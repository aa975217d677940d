package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// errNoVariant reports a table or series the artifact does not have.
// It is never cached: clients can name arbitrary variants.
var errNoVariant = errors.New("serve: no such variant")

// artifact is one built experiment result and its rendered response
// bodies, keyed by variant: "json", "md", "csv:<table>", "dat:<series>"
// — the names the ETags use. Each variant renders at most once, on its
// first request; every later hit is a map lookup. Only successful
// builds become artifacts.
type artifact struct {
	res *core.Result

	mu     sync.RWMutex
	bodies map[string]rendered
}

// rendered is one variant's body, or the error rendering it gave.
// Renderers are deterministic, so an error is cached like a body.
type rendered struct {
	b   []byte
	err error
}

func newArtifact(res *core.Result) *artifact {
	return &artifact{res: res, bodies: make(map[string]rendered)}
}

// body returns the variant's rendered bytes, rendering them on first
// use; renders counts each render.
func (a *artifact) body(variant string, renders *obs.Counter) ([]byte, error) {
	a.mu.RLock()
	r, ok := a.bodies[variant]
	a.mu.RUnlock()
	if ok {
		return r.b, r.err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.bodies[variant]; ok {
		return r.b, r.err
	}
	b, err := render(a.res, variant)
	if errors.Is(err, errNoVariant) {
		return nil, err
	}
	renders.Add(1)
	a.bodies[variant] = rendered{b: b, err: err}
	return b, err
}

// render produces one variant with the renderers cmd/repro uses: JSON
// is json.Marshal of the result, markdown core.WriteResultMarkdown, CSV
// report.Table.WriteCSV and .dat report.Series.WriteDAT.
func render(res *core.Result, variant string) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	kind, name, _ := strings.Cut(variant, ":")
	switch kind {
	case "json":
		b, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("encode response: %w", err)
		}
		return b, nil
	case "md":
		err = core.WriteResultMarkdown(&buf, res)
	case "csv":
		i := slices.IndexFunc(res.Tables, func(t *report.Table) bool { return t.ID == name })
		if i < 0 {
			return nil, errNoVariant
		}
		err = res.Tables[i].WriteCSV(&buf)
	case "dat":
		i := slices.IndexFunc(res.Series, func(s *report.Series) bool { return s.ID == name })
		if i < 0 {
			return nil, errNoVariant
		}
		err = res.Series[i].WriteDAT(&buf)
	default:
		return nil, errNoVariant
	}
	if err != nil {
		return nil, err
	}
	// The body is kept for the artifact's lifetime: drop the buffer's
	// spare growth capacity.
	return bytes.Clone(buf.Bytes()), nil
}

// variantContentType is the Content-Type each variant is served with.
func variantContentType(variant string) string {
	switch kind, _, _ := strings.Cut(variant, ":"); kind {
	case "json":
		return "application/json"
	case "md":
		return "text/markdown; charset=utf-8"
	case "csv":
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// writeVariant writes one variant of a, or the error it maps to.
func (s *Server) writeVariant(w http.ResponseWriter, a *artifact, variant string) {
	b, err := a.body(variant, s.renders)
	switch {
	case errors.Is(err, errNoVariant):
		kind, name, _ := strings.Cut(variant, ":")
		what := "table"
		if kind == "dat" {
			what = "series"
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("experiment %s has no %s %q", a.res.ID, what, name))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeBytes(w, variantContentType(variant), b)
	}
}

// writeReport assembles /v1/report from the artifacts' cached bodies,
// rendering nothing already rendered. Markdown goes through
// core.WriteMarkdownReportSections with each artifact's markdown
// section; JSON is the artifacts' JSON bodies joined into an array.
// Both are byte for byte what core.WriteMarkdownReport and
// json.Marshal of the result slice produce.
func (s *Server) writeReport(w http.ResponseWriter, cfg core.Config, arts []*artifact, variant string) {
	bodies := make([][]byte, len(arts))
	n := 0
	for i, a := range arts {
		b, err := a.body(variant, s.renders)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		bodies[i] = b
		n += len(b) + 1
	}
	var buf bytes.Buffer
	buf.Grow(n + 256)
	if variant == "json" {
		buf.WriteByte('[')
		for i, b := range bodies {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(b)
		}
		buf.WriteByte(']')
	} else if err := core.WriteMarkdownReportSections(&buf, cfg, bodies); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBytes(w, variantContentType(variant), buf.Bytes())
}
