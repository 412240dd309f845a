package jobs

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"swapcodes/internal/harness"
	"swapcodes/internal/obs/simprof"
)

// testFlightError builds a realistic *harness.FlightError with a valid
// JSONL bundle inside.
func testFlightError(t *testing.T) *harness.FlightError {
	t.Helper()
	fr := simprof.NewFlightRecorder(8)
	fr.Annotate("lavaMD", 0)
	fr.Partition(0).Add(simprof.Decision{Cycle: 1, Warp: 2, PC: 3, Kind: simprof.KindIssue})
	fr.Fail("lavaMD", "Swap-ECC", 2001, nil, "exceeded the 2000-cycle budget")
	return &harness.FlightError{
		Workload: "lavaMD", Scheme: "swap-ecc",
		Bundle: fr.Bundle(),
		Err:    errors.New("harness: lavaMD/Swap-ECC: exceeded the 2000-cycle budget"),
	}
}

// TestFailedJobStoresFlightBundle drives the failure path the executor
// takes when a launch dies with a flight bundle attached: the bundle lands
// in the content-addressed cache, the job links it, the status surfaces it,
// and GET /jobs/{id}/flight serves the exact bytes.
func TestFailedJobStoresFlightBundle(t *testing.T) {
	svc, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })

	fe := testFlightError(t)
	j := newJob("j1", Spec{Kind: KindPerf}, time.Now())
	svc.mu.Lock()
	svc.jobs[j.ID] = j
	svc.mu.Unlock()

	svc.storeFlight(j, fe)
	key := j.FlightKey()
	if key == "" {
		t.Fatal("failed job has no flight key")
	}
	got, ok := svc.cache.Get("flight", key)
	if !ok || !bytes.Equal(got, fe.Bundle) {
		t.Fatal("bundle not in the cache, or bytes differ")
	}
	if st := j.Status(); st.FlightBundle != key {
		t.Fatalf("status flight_bundle = %q, want %q", st.FlightBundle, key)
	}

	mux := http.NewServeMux()
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/jobs/j1/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/j1/flight: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, fe.Bundle) {
		t.Fatal("served bundle differs from the captured one")
	}
	// The served bytes are a parseable black box all the way through.
	b, err := simprof.ReadBundle(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("served bundle does not parse: %v", err)
	}
	if b.Meta.Workload != "lavaMD" || b.Meta.Reason == "" {
		t.Fatalf("served bundle meta: %+v", b.Meta)
	}
}

func TestFlightEndpointWithoutBundle(t *testing.T) {
	svc, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	j := newJob("j2", Spec{Kind: KindPerf}, time.Now())
	svc.mu.Lock()
	svc.jobs[j.ID] = j
	svc.mu.Unlock()

	mux := http.NewServeMux()
	svc.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/jobs/j2/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flight endpoint on bundle-less job: %d, want 404", resp.StatusCode)
	}
}

// TestStoreFlightIgnoresPlainErrors: only *harness.FlightError carries a
// bundle; anything else must leave the job untouched.
func TestStoreFlightIgnoresPlainErrors(t *testing.T) {
	svc, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	j := newJob("j3", Spec{Kind: KindPerf}, time.Now())
	svc.storeFlight(j, errors.New("plain failure"))
	if j.FlightKey() != "" {
		t.Fatal("plain error produced a flight key")
	}
}
