package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"dsmtx/internal/expsched"
	"dsmtx/internal/job"
)

// Server exposes an Engine over JSON/HTTP — the `dsmtxd serve` job-serving
// path. The protocol is four endpoints:
//
//	POST /jobs        submit a JobSpec; ?wait=1 blocks for the Result,
//	                  otherwise 202 + {"id": N} and the job runs detached
//	GET  /jobs/{id}   a detached job's status and, once done, its Result
//	GET  /stats       engine counters plus the result cache footprint
//	GET  /metrics     a live JSON snapshot of the engine's metrics registry
//
// Admission rejections map to 503 (clients back off and retry), spec
// errors to 400 (413 for a body over maxSpecBytes), execution failures to
// 500.
type Server struct {
	eng *Engine

	// DefaultBackend, when non-empty, fills a submitted spec's empty
	// Backend field (dsmtxd serve defaults to "host": a job server exists
	// to run live jobs, while the engine's own default is the simulator).
	DefaultBackend string

	mu     sync.Mutex
	nextID uint64
	jobs   map[uint64]*jobStatus
	done   []uint64       // finished ids still in jobs, oldest first
	wg     sync.WaitGroup // detached jobs in flight
}

const (
	// maxSpecBytes caps a POST /jobs body; a JobSpec is a few hundred bytes.
	maxSpecBytes = 1 << 20
	// maxFinishedJobs bounds the finished detached jobs GET /jobs/{id} can
	// still answer for; the oldest-finished is forgotten first and running
	// jobs are never forgotten.
	maxFinishedJobs = 1024
)

// jobStatus tracks one detached submission.
type jobStatus struct {
	ID     uint64   `json:"id"`
	Spec   job.Spec `json:"spec"`
	State  string   `json:"state"` // "running", "done", "failed"
	Result *Result  `json:"result,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// NewServer wraps an engine.
func NewServer(eng *Engine) *Server {
	return &Server{eng: eng, jobs: make(map[uint64]*jobStatus)}
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJobByID)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Drain waits for every detached job to finish. The caller is responsible
// for first stopping new submissions (http.Server.Shutdown unblocks after
// in-flight handlers return, and the engine itself rejects with ErrDraining
// once Engine.Drain/Close has begun).
func (s *Server) Drain() { s.wg.Wait() }

// statsReply is the /stats body.
type statsReply struct {
	Engine Stats                `json:"engine"`
	Cache  *expsched.CacheStats `json:"cache,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	reply := statsReply{Engine: s.eng.Stats()}
	if st, ok := s.eng.CacheStats(); ok {
		reply.Cache = &st
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleMetrics writes the registry's live snapshot; instruments update
// atomically, so sampling mid-job is safe.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.eng.Metrics().WriteJSON(w)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a JobSpec to /jobs")
		return
	}
	var spec job.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		// The body is one JSON object and nothing else.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "bad job spec: "+err.Error())
		return
	}
	if spec.Backend == "" && spec.Kind != job.KindSeq && s.DefaultBackend != "" {
		spec.Backend = s.DefaultBackend
	}
	spec = spec.Normalized()
	// Validate before submitting so spec errors are 400s; the engine
	// re-validates but its error would be indistinguishable from an
	// execution failure here.
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	if r.URL.Query().Get("wait") == "1" {
		res, err := s.eng.Submit(r.Context(), spec)
		if err != nil {
			httpError(w, submitStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}

	s.mu.Lock()
	s.nextID++
	st := &jobStatus{ID: s.nextID, Spec: spec, State: "running"}
	s.jobs[st.ID] = st
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Detached jobs outlive their HTTP request, so they are admitted
		// without a cancellation context.
		res, err := s.eng.Submit(context.Background(), st.Spec)
		s.mu.Lock()
		if err != nil {
			st.State = "failed"
			st.Error = err.Error()
		} else {
			st.State = "done"
			st.Result = &res
		}
		s.done = append(s.done, st.ID)
		if len(s.done) > maxFinishedJobs {
			delete(s.jobs, s.done[0])
			s.done = s.done[1:]
		}
		s.mu.Unlock()
	}()
	writeJSON(w, http.StatusAccepted, map[string]uint64{"id": st.ID})
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id "+idStr)
		return
	}
	s.mu.Lock()
	st, ok := s.jobs[id]
	var snapshot jobStatus
	if ok {
		snapshot = *st
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, snapshot)
}

// submitStatus maps a Submit error to its HTTP status: admission pressure
// is retryable (503), anything else failed for good (500 — the spec was
// already validated).
func submitStatus(err error) int {
	var over *ErrOverloaded
	if errors.As(err, &over) || errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
