package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"chicsim/internal/obs/monitor"
)

// maxBodyBytes bounds request bodies: a shard record carries per-seed
// aggregate Results (no per-job data), so even generous campaigns stay
// far below this.
const maxBodyBytes = 64 << 20

// Serve mounts the dispatcher's API on the monitor's HTTP plumbing, so
// one listener offers both the fabric protocol (/api/...) and the live
// control-plane surface (/metrics, /status, /events SSE) — state changes
// are published as SSE events exactly like campaign progress is. extra
// routes (e.g. monitor.PprofHandlers for -pprof) mount alongside the
// fabric API; patterns must not collide.
func Serve(addr string, d *Dispatcher, extra ...map[string]http.Handler) (*monitor.Server, error) {
	routes := d.Handlers()
	for _, m := range extra {
		for pattern, h := range m {
			routes[pattern] = h
		}
	}
	srv, err := monitor.StartMux(addr, d.Registry(), func() any { return d.State() }, routes)
	if err != nil {
		return nil, err
	}
	d.SetPublish(srv.Publish)
	return srv, nil
}

// Handlers returns the dispatcher's HTTP API as pattern → handler, for
// mounting on any mux (monitor.StartMux in production, httptest in
// tests).
func (d *Dispatcher) Handlers() map[string]http.Handler {
	return map[string]http.Handler{
		"/api/submit":    post(d.handleSubmit),
		"/api/campaign":  get(d.handleCampaign),
		"/api/register":  post(d.handleRegister),
		"/api/book":      post(d.handleBook),
		"/api/heartbeat": post(d.handleHeartbeat),
		"/api/result":    post(d.handleResult),
		"/api/state":     get(d.handleState),
		"/api/timeline":  get(d.handleTimeline),
		"/api/fleet":     get(d.handleFleet),
		"/api/merged":    get(d.handleMerged),
	}
}

func post(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
			return
		}
		h(w, r)
	})
}

func get(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
			return
		}
		h(w, r)
	})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fabric: decoding request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // connection-level failure only
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}

func (d *Dispatcher) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !readJSON(w, r, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := d.Submit(spec)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, resp)
}

func (d *Dispatcher) handleCampaign(w http.ResponseWriter, _ *http.Request) {
	doc, err := d.Campaign()
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, doc)
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, d.Register(req))
}

func (d *Dispatcher) handleBook(w http.ResponseWriter, r *http.Request) {
	var req BookRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := d.Book(req)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, resp)
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := d.Heartbeat(req)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, resp)
}

func (d *Dispatcher) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := d.Result(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, resp)
}

func (d *Dispatcher) handleState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, d.State())
}

func (d *Dispatcher) handleTimeline(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, d.Timeline())
}

func (d *Dispatcher) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, d.Fleet())
}

func (d *Dispatcher) handleMerged(w http.ResponseWriter, _ *http.Request) {
	merged, err := d.Merged()
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(merged) //nolint:errcheck // connection-level failure only
}
