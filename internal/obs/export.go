package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Exporters. Metrics serialize to JSON (machine consumption), CSV
// (spreadsheets/plotting), or an aligned human table; each machine format
// has a matching decoder so round-trip tests and downstream tooling never
// scrape the human rendering. Traces serialize to the Chrome trace-event
// JSON object format, loadable in chrome://tracing and Perfetto.

// metricsFile is the JSON metrics document.
type metricsFile struct {
	Metrics []Metric `json:"metrics"`
}

// WriteJSON writes the registry snapshot as a JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(metricsFile{Metrics: r.Snapshot()})
}

// DecodeJSON reads a document written by WriteJSON.
func DecodeJSON(rd io.Reader) ([]Metric, error) {
	var f metricsFile
	if err := json.NewDecoder(rd).Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: decode metrics JSON: %w", err)
	}
	return f.Metrics, nil
}

// WriteCSV writes the snapshot as CSV with the header
// name,type,value,count,sum,buckets; histogram buckets are packed as
// "le:n|le:n|..." with "inf" for the +Inf bound.
func (r *Registry) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "type", "value", "count", "sum", "buckets"}); err != nil {
		return err
	}
	for _, m := range r.Snapshot() {
		rec := []string{m.Name, m.Type, "", "", "", ""}
		if m.Type == "histogram" {
			rec[3] = strconv.FormatInt(m.Count, 10)
			rec[4] = strconv.FormatInt(m.Sum, 10)
			rec[5] = packBuckets(m.Buckets)
		} else {
			rec[2] = strconv.FormatInt(m.Value, 10)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func packBuckets(bs []Bucket) string {
	parts := make([]string, len(bs))
	for i, b := range bs {
		le := "inf"
		if b.Le != math.MaxInt64 {
			le = strconv.FormatInt(b.Le, 10)
		}
		parts[i] = le + ":" + strconv.FormatInt(b.N, 10)
	}
	return strings.Join(parts, "|")
}

// DecodeCSV reads a document written by WriteCSV.
func DecodeCSV(rd io.Reader) ([]Metric, error) {
	rows, err := csv.NewReader(rd).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("obs: decode metrics CSV: %w", err)
	}
	if len(rows) == 0 || len(rows[0]) != 6 || rows[0][0] != "name" {
		return nil, fmt.Errorf("obs: decode metrics CSV: missing or malformed header")
	}
	out := make([]Metric, 0, len(rows)-1)
	for _, rec := range rows[1:] {
		m := Metric{Name: rec[0], Type: rec[1]}
		if m.Type == "histogram" {
			if m.Count, err = strconv.ParseInt(rec[3], 10, 64); err != nil {
				return nil, fmt.Errorf("obs: metric %s: bad count: %w", m.Name, err)
			}
			if m.Sum, err = strconv.ParseInt(rec[4], 10, 64); err != nil {
				return nil, fmt.Errorf("obs: metric %s: bad sum: %w", m.Name, err)
			}
			if m.Buckets, err = unpackBuckets(rec[5]); err != nil {
				return nil, fmt.Errorf("obs: metric %s: %w", m.Name, err)
			}
		} else if rec[2] != "" {
			if m.Value, err = strconv.ParseInt(rec[2], 10, 64); err != nil {
				return nil, fmt.Errorf("obs: metric %s: bad value: %w", m.Name, err)
			}
		}
		out = append(out, m)
	}
	return out, nil
}

func unpackBuckets(s string) ([]Bucket, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, "|")
	out := make([]Bucket, len(parts))
	for i, p := range parts {
		le, n, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("bad bucket %q", p)
		}
		var err error
		if le == "inf" {
			out[i].Le = math.MaxInt64
		} else if out[i].Le, err = strconv.ParseInt(le, 10, 64); err != nil {
			return nil, fmt.Errorf("bad bucket bound %q", le)
		}
		if out[i].N, err = strconv.ParseInt(n, 10, 64); err != nil {
			return nil, fmt.Errorf("bad bucket count %q", n)
		}
	}
	return out, nil
}

// WriteTable writes the snapshot as an aligned human-readable table;
// histograms render count, mean, and approximate p50/p99.
func (r *Registry) WriteTable(w io.Writer) error {
	snap := r.Snapshot()
	width := len("name")
	for _, m := range snap {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s %-9s %s\n", width, "name", "type", "value"); err != nil {
		return err
	}
	for _, m := range snap {
		var v string
		if m.Type == "histogram" {
			mean := 0.0
			if m.Count > 0 {
				mean = float64(m.Sum) / float64(m.Count)
			}
			v = fmt.Sprintf("count=%d mean=%.1f p50<=%s p99<=%s",
				m.Count, mean, fmtBound(quantileOf(m, 0.5)), fmtBound(quantileOf(m, 0.99)))
		} else {
			v = strconv.FormatInt(m.Value, 10)
		}
		if _, err := fmt.Fprintf(w, "%-*s %-9s %s\n", width, m.Name, m.Type, v); err != nil {
			return err
		}
	}
	return nil
}

func fmtBound(v int64) string {
	if v == math.MaxInt64 {
		return "inf"
	}
	return strconv.FormatInt(v, 10)
}

// quantileOf computes the bucket-bound quantile from an exported snapshot
// (the same estimate Histogram.Quantile gives live).
func quantileOf(m Metric, q float64) int64 {
	if m.Count == 0 {
		return 0
	}
	target := quantileTarget(q, m.Count)
	var cum int64
	for _, b := range m.Buckets {
		cum += b.N
		if cum >= target {
			return b.Le
		}
	}
	return math.MaxInt64
}

// WriteMetrics writes the snapshot in the format implied by the file name:
// ".json" → JSON, ".csv" → CSV, anything else → the human table.
func (r *Registry) WriteMetrics(w io.Writer, filename string) error {
	switch {
	case strings.HasSuffix(filename, ".json"):
		return r.WriteJSON(w)
	case strings.HasSuffix(filename, ".csv"):
		return r.WriteCSV(w)
	default:
		return r.WriteTable(w)
	}
}

// traceFile is the Chrome trace-event JSON object format.
type traceFile struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	TraceEvents     []Event        `json:"traceEvents"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteTrace writes the recorded events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), directly loadable in Perfetto or
// chrome://tracing.
func (r *Recorder) WriteTrace(w io.Writer) error {
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: r.Events()}
	if d := r.Dropped(); d > 0 {
		f.OtherData = map[string]any{"droppedEvents": d}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// ValidateTrace checks that data is a well-formed Chrome trace-event JSON
// object: it parses, declares traceEvents, and every event carries a known
// phase, a name where the phase requires one, and non-negative time fields.
// It returns the decoded events for further inspection.
func ValidateTrace(data []byte) ([]Event, error) {
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("obs: trace does not parse: %w", err)
	}
	if f.TraceEvents == nil {
		return nil, fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "X", "i", "C", "M", "B", "E":
		default:
			return nil, fmt.Errorf("obs: event %d: unknown phase %q", i, e.Ph)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("obs: event %d (ph=%s): empty name", i, e.Ph)
		}
		if e.TS < 0 || e.Dur < 0 {
			return nil, fmt.Errorf("obs: event %d (%s): negative time ts=%d dur=%d", i, e.Name, e.TS, e.Dur)
		}
		if e.Ph == "X" && e.Dur == 0 {
			return nil, fmt.Errorf("obs: event %d (%s): complete event without duration", i, e.Name)
		}
		if e.Ph == "C" && len(e.Args) == 0 {
			return nil, fmt.Errorf("obs: event %d (%s): counter event without args", i, e.Name)
		}
	}
	return f.TraceEvents, nil
}
