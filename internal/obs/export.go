package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// WriteMetricsJSONL writes the registry snapshot, in its stable order,
// followed by every span, one JSON object per line. Metric lines carry
// "type" counter/gauge/histogram; span lines carry "type":"span".
func (r *Recorder) WriteMetricsJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	for _, m := range r.Registry().Snapshot() {
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("obs: encode metric %s: %w", m.Name, err)
		}
	}
	if err := encodeSpans(enc, r.Spans()); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeSpans streams spans through enc as "type":"span" objects.
func encodeSpans(enc *json.Encoder, spans []SpanRecord) error {
	for _, sp := range spans {
		line := struct {
			Type string `json:"type"`
			SpanRecord
		}{Type: "span", SpanRecord: sp}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("obs: encode span %s: %w", sp.Name, err)
		}
	}
	return nil
}

// chromeEvent is one trace_event entry. Only the fields Perfetto and
// chrome://tracing read are emitted.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // µs
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes every span as a complete ("ph":"X")
// trace_event, preceded by metadata events naming the process and each
// trace lane, in the JSON object format Perfetto and chrome://tracing
// load directly.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteSpansChromeTrace(w, r.Spans())
}

// WriteSpansJSONL writes a span slice as JSONL, one "type":"span"
// object per line — the incremental wire format of the daemon's
// /debug/trace endpoints (a poller resumes from the last Seq it saw).
func WriteSpansJSONL(w io.Writer, spans []SpanRecord) error {
	bw := bufio.NewWriter(w)
	if err := encodeSpans(json.NewEncoder(bw), spans); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSpansChromeTrace writes an arbitrary span slice (a whole
// recorder dump, or one trace's spans) in Chrome trace_event format.
// Trace identity travels in each event's args, so a loaded trace shows
// span/parent IDs in the Perfetto details pane.
func WriteSpansChromeTrace(w io.Writer, spans []SpanRecord) error {
	events := make([]chromeEvent, 0, len(spans)+8)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "repro"},
	})

	// Name each lane after the dominant category running on it.
	laneCat := make(map[int]string)
	for _, sp := range spans {
		if _, ok := laneCat[sp.TID]; !ok {
			laneCat[sp.TID] = sp.Cat
		}
	}
	lanes := make([]int, 0, len(laneCat))
	for tid := range laneCat {
		lanes = append(lanes, tid)
	}
	slices.Sort(lanes)
	for _, tid := range lanes {
		label := laneCat[tid]
		if tid < autoTIDBase {
			label = fmt.Sprintf("worker-%d", tid)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": label},
		})
	}

	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: sp.StartUS, Dur: sp.DurUS, PID: 1, TID: sp.TID,
		}
		if sp.TraceID != "" {
			ev.Args = make(map[string]any, 4)
			ev.Args["trace_id"] = sp.TraceID
			ev.Args["span_id"] = sp.SpanID
			if sp.ParentID != "" {
				ev.Args["parent_id"] = sp.ParentID
			}
			if sp.LinkSpanID != "" {
				ev.Args["link_trace_id"] = sp.LinkTraceID
				ev.Args["link_span_id"] = sp.LinkSpanID
			}
		}
		events = append(events, ev)
	}

	bw := bufio.NewWriter(w)
	payload := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(payload); err != nil {
		return fmt.Errorf("obs: encode chrome trace: %w", err)
	}
	return bw.Flush()
}
