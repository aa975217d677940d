package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU is the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU is this process's user+system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS, so the
// next peakRSSMB covers only what follows.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// daemon is one running cmd/reprod process. Its stderr is scanned for
// the listen address, the prewarm outcome and GODEBUG=gctrace lines.
type daemon struct {
	cmd  *exec.Cmd
	pid  int
	base string // http://host:port

	mu        sync.Mutex
	addr      string
	prewarmed bool
	warmErr   string
	gcLines   []string
	tail      []string // last stderr lines, for error reports

	changed chan struct{} // signalled (non-blocking) on every stderr line
	exited  chan struct{}
	waitErr error
}

// startDaemon execs bin with args and waits until it answers /healthz
// and reports its prewarm done. The returned duration is exec to ready.
func startDaemon(bin string, args, env []string, timeout time.Duration) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, changed: make(chan struct{}, 1), exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	d.pid = cmd.Process.Pid
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		d.scan(stderr)
	}()
	go func() {
		<-scanned // Wait must not close the pipe before the scan drains it.
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	healthy := false
	for {
		d.mu.Lock()
		addr, warm, werr := d.addr, d.prewarmed, d.warmErr
		d.mu.Unlock()
		if werr != "" {
			d.kill()
			return nil, 0, fmt.Errorf("daemon prewarm failed: %s", werr)
		}
		if addr != "" && !healthy {
			d.base = "http://" + addr
			resp, err := client.Get(d.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				healthy = resp.StatusCode == http.StatusOK
			}
		}
		if healthy && warm {
			return d, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("daemon not ready after %v: %s", timeout, d.lastLines())
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("daemon exited during start (%v): %s", d.waitErr, d.lastLines())
		case <-d.changed:
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (d *daemon) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		switch {
		case strings.HasPrefix(line, "gc "):
			d.gcLines = append(d.gcLines, line)
		case strings.Contains(line, "serving on http://"):
			rest := line[strings.Index(line, "http://")+len("http://"):]
			d.addr, _, _ = strings.Cut(rest, " ")
		case strings.Contains(line, "prewarmed "):
			d.prewarmed = true
		case strings.Contains(line, "prewarm stopped"):
			d.warmErr = line
		}
		if !strings.HasPrefix(line, "gc ") {
			d.tail = append(d.tail, line)
			if len(d.tail) > 8 {
				d.tail = d.tail[1:]
			}
		}
		d.mu.Unlock()
		select {
		case d.changed <- struct{}{}:
		default:
		}
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// gcTrace returns the gctrace lines seen so far.
func (d *daemon) gcTrace() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.gcLines)
}

// stop drains the daemon with SIGTERM and waits for it to exit; a clean
// drain exits 0. A daemon still running after the timeout is killed.
func (d *daemon) stop(timeout time.Duration) error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("daemon did not drain within %v", timeout)
	}
	if d.waitErr != nil {
		return fmt.Errorf("daemon exit: %v: %s", d.waitErr, d.lastLines())
	}
	return nil
}

// kill stops the daemon without a drain and waits for it to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// runTimed execs a command to completion and returns its wall time.
func runTimed(ctx context.Context, bin string, args ...string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return time.Since(start), nil
}
