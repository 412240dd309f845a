package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"swapcodes/internal/obs"
)

// Register mounts the jobs API on mux, layering it onto the obs server
// (obs.StartConfigured passes its mux here as ServerConfig.Register, so
// /jobs lives next to /metrics and /runs):
//
//	POST /jobs              submit a Spec, 202 {"id": ...}
//	GET  /jobs              list job statuses
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/result  final payload (409 until terminal)
//	GET  /jobs/{id}/events  SSE progress stream until terminal
//	POST /jobs/{id}/cancel  cancel queued or running job
func (s *Service) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/flight", s.handleFlight)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeSpec decodes a POST /jobs body: one JSON object, whose fields the
// Spec does not name are ignored.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	err := json.NewDecoder(r).Decode(&spec)
	return spec, err
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	// Adopt the caller's trace identity when the request carries a valid
	// traceparent; otherwise mint one here so the response can hand it back.
	traceID, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		traceID = obs.NewTraceID()
	}
	id, err := s.SubmitWithTrace(spec, traceID)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			code = http.StatusTooManyRequests
			// Queue saturation is transient by construction (workers drain
			// it); tell well-behaved clients when to try again.
			w.Header().Set("Retry-After", "1")
		} else if errors.Is(err, ErrQueueClosed) {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "trace_id": traceID})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.List()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s", j.ID, st.State))
		return
	}
	if st.State != StateDone {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s %s: %s", j.ID, st.State, st.Error))
		return
	}
	// The payload is the runner's exact marshaled bytes — byte-identical
	// across resume and cache hits, which the e2e test compares directly.
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(j.Result())
}

// handleFlight serves a failed job's flight-recorder bundle: the JSONL
// black box captured at the moment of failure, sufficient to re-run the
// launch deterministically (harness.ReplayFlight).
func (s *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	key := j.FlightKey()
	if key == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("job %s has no flight bundle", j.ID))
		return
	}
	b, ok := s.cache.Get("flight", key)
	if !ok {
		writeErr(w, http.StatusGone, fmt.Errorf("flight bundle %s evicted", key))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Published events carry a seq and go out with an SSE "id:" line, so
	// browsers (and our client) resume after a dropped connection by sending
	// Last-Event-ID; the synthetic snapshot below has no seq and no id line.
	send := func(ev Event) {
		b, _ := json.Marshal(ev)
		if ev.Seq > 0 {
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, b)
		} else {
			fmt.Fprintf(w, "data: %s\n\n", b)
		}
		fl.Flush()
	}

	since := int64(-1)
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if v, err := strconv.ParseInt(lei, 10, 64); err == nil && v >= 0 {
			since = v
		}
	}

	// Subscribing and snapshotting the backlog are atomic inside
	// SubscribeSince, so no transition falls between the two.
	backlog, ch, unsub := j.SubscribeSince(since)
	defer unsub()
	if since < 0 {
		// Fresh client: orient it with a current-state snapshot before
		// streaming (a reconnecting client gets the retained events instead).
		st := j.Status()
		send(Event{Type: "state", JobID: j.ID, TraceID: st.TraceID, State: st.State,
			ShardsDone: st.ShardsDone, ShardsTotal: st.ShardsTotal, Error: st.Error})
		if st.State.Terminal() {
			return
		}
	}
	for _, ev := range backlog {
		send(ev)
		if ev.Type == "done" {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return // terminal: channel closed after the done event
			}
			send(ev)
			if ev.Type == "done" {
				return
			}
		}
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}
