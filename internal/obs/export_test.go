package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("sm.cycles").Add(1234)
	reg.Gauge("engine.jobs_running").Set(3)
	h := reg.Histogram("sm.scoreboard_wait_cycles", 1, 2, 4, 8)
	for _, v := range []int64{1, 3, 3, 9, 40} {
		h.Observe(v)
	}
	return reg
}

func TestJSONRoundTrip(t *testing.T) {
	reg := sampleRegistry()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := reg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("JSON round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	reg := sampleRegistry()
	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := reg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("CSV round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestDecodeCSVRejectsGarbage(t *testing.T) {
	if _, err := DecodeCSV(strings.NewReader("not,a,metrics,file\n")); err == nil {
		t.Error("DecodeCSV accepted a malformed header")
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRegistry().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sm.cycles", "1234", "engine.jobs_running",
		"sm.scoreboard_wait_cycles", "count=5", "p50<=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMetricsByExtension(t *testing.T) {
	reg := sampleRegistry()
	for _, tc := range []struct{ name, probe string }{
		{"out.json", "\"metrics\""},
		{"out.csv", "name,type,value"},
		{"out.txt", "count=5"},
	} {
		var buf bytes.Buffer
		if err := reg.WriteMetrics(&buf, tc.name); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(buf.String(), tc.probe) {
			t.Errorf("%s output missing %q:\n%s", tc.name, tc.probe, buf.String())
		}
	}
}

func TestTraceWriteAndValidate(t *testing.T) {
	r := NewRecorder()
	pid := r.Process("engine")
	r.Span(pid, 1, "job", "job", 10, 50, map[string]any{"n": 3})
	r.Instant(pid, 1, "mark", "x", 20, nil)
	r.Sample(pid, "queue", 30, map[string]any{"depth": 4})
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("recorder produced an invalid trace: %v", err)
	}
	if len(events) != 4 { // process_name + span + instant + counter
		t.Errorf("trace has %d events, want 4", len(events))
	}
}

func TestValidateTraceRejects(t *testing.T) {
	for name, data := range map[string]string{
		"not JSON":       "}{",
		"no traceEvents": `{"displayTimeUnit":"ms"}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":1,"tid":1}]}`,
		"empty name":     `{"traceEvents":[{"name":"","ph":"i","ts":0,"pid":1,"tid":1}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":1,"tid":1}]}`,
		"span no dur":    `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`,
		"counter 0 args": `{"traceEvents":[{"name":"x","ph":"C","ts":0,"pid":1,"tid":1}]}`,
	} {
		if _, err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("ValidateTrace accepted %s", name)
		}
	}
}
