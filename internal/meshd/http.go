// http.go maps the Server onto its HTTP API (documented in
// docs/MESHD.md). Every data read resolves against an immutable
// snapshot and takes no worker slot, so handlers never contend with
// warms. A not-ready 503's Retry-After is derived from observed warm
// times, and the pre-rendered text endpoints carry strong ETags so
// pollers revalidate with 304s instead of re-downloading reports.

package meshd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"meshlab"
)

// registration is the POST /v1/datasets body: a dataset file by path,
// or a declarative scenario by built-in name or spec-file path.
type registration struct {
	Name     string `json:"name,omitempty"`
	Path     string `json:"path,omitempty"`
	Scenario string `json:"scenario,omitempty"`
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("POST /v1/datasets", s.handleRegister)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDelete)
	mux.HandleFunc("GET /v1/datasets/{name}/report", s.dataHandler(cacheable, func(snap *Snapshot, r *http.Request) (any, error) {
		return text(snap.Report()), nil
	}))
	mux.HandleFunc("GET /v1/datasets/{name}/sec4", s.dataHandler(cacheable, func(snap *Snapshot, r *http.Request) (any, error) {
		return text(snap.Sec4()), nil
	}))
	mux.HandleFunc("GET /v1/datasets/{name}/experiments", s.dataHandler(uncached, listExperiments))
	mux.HandleFunc("GET /v1/datasets/{name}/experiments/{id}", s.dataHandler(cacheable, func(snap *Snapshot, r *http.Request) (any, error) {
		txt, err := snap.Experiment(r.PathValue("id"))
		if err != nil {
			return nil, err
		}
		return text(txt), nil
	}))
	mux.HandleFunc("GET /v1/datasets/{name}/networks", s.dataHandler(uncached, listNetworks))
	return mux
}

// handleHealthz is the liveness probe. It stays 200 while any dataset
// retries a warm — the process is serving — but the body degrades from
// "ok" to a warning so probes and humans see the flapping storage.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if n := s.retrying(); n > 0 {
		fmt.Fprintf(w, "warn: %d dataset(s) retrying a warm\n", n)
		return
	}
	fmt.Fprintln(w, "ok")
}

// text marks a handler result as preformatted plain text (the CLI byte
// paths) rather than a JSON document.
type text string

// cacheable/uncached tag dataHandler endpoints whose whole response is
// pre-rendered at warm time (report, §4, one experiment): those carry
// the snapshot's ETag and honor If-None-Match with 304. The filtered
// list endpoints vary by selector and stay unvalidated.
const (
	cacheable = true
	uncached  = false
)

// httpError maps the package's error taxonomy onto status codes:
// 404 unknown name, 503 still warming (dataHandler sets its
// Retry-After) or shutting down, 500 failed warm or internal fault,
// 400 bad request.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// ceilSeconds renders observed millis as a Retry-After value: whole
// seconds, rounded up, floor 1 (the header is integer seconds and
// "retry immediately" is never the advice a 503 wants to give).
func ceilSeconds(ms int64) string {
	sec := (ms + 999) / 1000
	if sec < 1 {
		sec = 1
	}
	return strconv.FormatInt(sec, 10)
}

// retryAfterWarm derives the 503-not-ready Retry-After from evidence:
// the dataset's own last successful warm, else the most recent warm
// anywhere on the server (a cold dataset has no history of its own),
// else 1s.
func (s *Server) retryAfterWarm(name string) string {
	var ms int64
	if d, err := s.lookup(name); err == nil {
		d.mu.Lock()
		ms = d.lastWarmMillis
		d.mu.Unlock()
	}
	if ms <= 0 {
		ms = s.lastWarmMillis.Load()
	}
	return ceilSeconds(ms)
}

// etagMatch implements If-None-Match: "*" matches anything with a
// current representation, otherwise any listed tag equal to the
// snapshot's (weak-comparison — a W/ prefix is ignored — which is safe
// here because the tags are strong and the endpoints are GETs).
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" || strings.TrimPrefix(c, "W/") == strings.TrimPrefix(etag, "W/") {
			return true
		}
	}
	return false
}

// dataHandler wraps a snapshot read: resolve the dataset, revalidate
// the client's cache when the endpoint is cacheable, run fn against the
// immutable snapshot, and render text or JSON.
func (s *Server) dataHandler(withETag bool, fn func(snap *Snapshot, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		snap, err := s.Snapshot(name)
		if err != nil {
			if errors.Is(err, ErrNotReady) {
				w.Header().Set("Retry-After", s.retryAfterWarm(name))
			}
			httpError(w, err)
			return
		}
		if withETag {
			// The whole response was rendered at warm time, so the
			// snapshot's tag validates it exactly.
			w.Header().Set("ETag", snap.ETag())
			if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, snap.ETag()) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		v, err := fn(snap, r)
		if err != nil {
			httpError(w, err)
			return
		}
		if t, ok := v.(text); ok {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, string(t))
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg registration
	if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
		httpError(w, fmt.Errorf("%w: body: %v", ErrBadRequest, err))
		return
	}
	var name string
	var err error
	switch {
	case reg.Path != "" && reg.Scenario != "":
		err = fmt.Errorf("%w: path and scenario are mutually exclusive", ErrBadRequest)
	case reg.Path != "":
		name = reg.Name
		err = s.RegisterPath(name, reg.Path)
	case reg.Scenario != "":
		name, err = s.RegisterScenario(reg.Name, reg.Scenario)
	default:
		err = fmt.Errorf("%w: a registration needs a path or a scenario", ErrBadRequest)
	}
	if err != nil {
		httpError(w, err)
		return
	}
	// 202 + a pollable status document: warming happens in the
	// background, clients poll the Location until state is ready.
	w.Header().Set("Location", "/v1/datasets/"+name)
	st, _ := s.Status(name)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("name"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleDelete removes a dataset (canceling its in-flight warm).
// In-flight queries holding the snapshot finish on it — the
// copy-on-write contract — so 204 only promises the registry no longer
// knows the name.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.PathValue("name")); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	sel, err := parseSelector(r, "state", "source")
	if err != nil {
		httpError(w, err)
		return
	}
	out := []Status{}
	for _, st := range s.Statuses() {
		if sel.matches(map[string]string{"state": string(st.State), "source": st.Source}) {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// experimentEntry is one row of the experiment list resource.
type experimentEntry struct {
	ID         string `json:"id"`
	Section    string `json:"section"`
	SampleOnly bool   `json:"sampleOnly"`
	Title      string `json:"title"`
}

// experimentSection derives the paper chapter from the artifact ID
// ("fig4.2" → "4", "abl5.sym" → "5", "sec6.3" → "6").
func experimentSection(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] >= '0' && id[i] <= '9' {
			return id[i : i+1]
		}
	}
	return ""
}

// listExperiments serves the filterable experiment list: section (the
// paper chapter) and sampleOnly (runs from §4 samples alone) are the
// selector fields.
func listExperiments(snap *Snapshot, r *http.Request) (any, error) {
	sel, err := parseSelector(r, "section", "sampleOnly")
	if err != nil {
		return nil, err
	}
	if err := sel.normBool("sampleOnly"); err != nil {
		return nil, err
	}
	sampleOnly := make(map[string]bool)
	for _, id := range sampleIDs() {
		sampleOnly[id] = true
	}
	out := []experimentEntry{}
	for _, res := range snap.Results {
		e := experimentEntry{
			ID:         res.ID,
			Section:    experimentSection(res.ID),
			SampleOnly: sampleOnly[res.ID],
			Title:      res.Title,
		}
		if sel.matches(map[string]string{
			"section":    e.Section,
			"sampleOnly": fmt.Sprintf("%t", e.SampleOnly),
		}) {
			out = append(out, e)
		}
	}
	return out, nil
}

// listNetworks serves the filterable network index: band, env, and the
// minAPs/maxAPs size window are the selector fields.
func listNetworks(snap *Snapshot, r *http.Request) (any, error) {
	sel, err := parseSelector(r, "band", "env", "minAPs", "maxAPs")
	if err != nil {
		return nil, err
	}
	minAPs, maxAPs, err := sel.intRange("minAPs", "maxAPs")
	if err != nil {
		return nil, err
	}
	out := []NetworkEntry{}
	for _, n := range snap.Networks {
		if n.APs < minAPs || n.APs > maxAPs {
			continue
		}
		if sel.matches(map[string]string{"band": n.Band, "env": n.Env}) {
			out = append(out, n)
		}
	}
	return out, nil
}

// sampleIDs lists the §4 sample-path artifacts (the meshanalyze -sample
// set), used to tag the experiment list's sampleOnly field.
func sampleIDs() []string { return meshlab.SampleExperimentIDs() }
