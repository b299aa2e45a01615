// Package serve is the HTTP layer of cmd/serve: simulation jobs come
// in as experiment specs (internal/spec), run through internal/runner
// on a bounded worker pool (internal/jobqueue), and hand their
// artifacts back over HTTP. The server owns the cache directory — a
// submitted spec's cache-dir setting is overridden with the server's,
// so every job shares one warm input/result store and a repeated job is
// a pure cache replay — and collected runs neither write files nor
// read a [workload] input file (POST /jobs answers 400 to one), so a
// client-supplied spec cannot name paths on the server's filesystem.
//
// Endpoints:
//
//	POST   /jobs                        submit a spec (raw TOML, or JSON {"spec": "..."})
//	GET    /jobs/{id}                   job status, timings, artifacts, cache provenance
//	GET    /jobs/{id}/artifacts/{name}  one artifact's exact bytes
//	DELETE /jobs/{id}                   cancel a pending or running job
//	GET    /metrics                     plain-text counters
//	GET    /healthz                     liveness (503 while draining)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"path"
	"runtime"
	"strings"
	"sync"
	"time"

	"pargraph/internal/diskcache"
	"pargraph/internal/jobqueue"
	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

// Config sizes the server. Zero values mean the documented defaults.
type Config struct {
	// CacheDir is the input/result cache directory every job shares.
	// Empty runs with caching off (every job re-simulates).
	CacheDir string

	// CacheMaxBytes bounds the cache directory; 0 = unbounded.
	CacheMaxBytes int64

	// Concurrency is the worker-pool size (default 1): how many jobs
	// execute simultaneously, each in its own harness.Env against the
	// shared disk cache. Submitted specs that leave [run] jobs on auto
	// are admitted with NumCPU/Concurrency cell-level jobs, splitting
	// the host's cores between job- and cell-level parallelism; a
	// spec's explicit jobs value is respected.
	Concurrency int

	// Retain bounds how many finished jobs (with their artifacts) stay
	// queryable; oldest are forgotten first. Default 64, <0 = unbounded.
	Retain int

	// MaxRequestBytes caps a POST /jobs body. Default 1 MiB, matching
	// the spec parser's own size cap.
	MaxRequestBytes int64

	// Logf, when non-nil, receives one line per request and per job
	// state change (log.Printf-shaped).
	Logf func(format string, args ...any)
}

// Server routes HTTP jobs onto a jobqueue running internal/runner.
type Server struct {
	cfg     Config
	queue   *jobqueue.Queue
	handler http.Handler

	mu            sync.Mutex
	draining      bool
	input, result diskcache.Stats // summed over finished jobs
	cellsComputed int64
	cellsCached   int64
	durBuckets    []int64 // cumulative-style histogram counts per bucket edge, +Inf last
	durCount      int64
	durSum        float64
	active        int // jobs executing right now
	activePeak    int // high-water mark of active — pins that jobs overlapped

	// Latency percentiles: bounded reservoirs, one per stat. jobDur
	// samples whole-job wall clocks; cellDur samples every sweep cell's
	// wall clock across all jobs (via runner.Options.CellObserver).
	jobDur  *reservoir
	cellDur *reservoir
}

// durEdges are the job wall-clock histogram bucket upper bounds in
// seconds; an implicit +Inf bucket follows.
var durEdges = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// jobSpec is a job's payload: the validated spec plus its content hash
// (kept so pending jobs can report it before a manifest exists).
type jobSpec struct {
	sp   *spec.Spec
	hash string
}

// New builds a server and starts its worker pool. Call Drain to stop.
func New(cfg Config) *Server {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Retain == 0 {
		cfg.Retain = 64
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 1 << 20
	}
	s := &Server{
		cfg:        cfg,
		durBuckets: make([]int64, len(durEdges)+1),
		jobDur:     newReservoir(1024, 1),
		cellDur:    newReservoir(4096, 2),
	}
	s.queue = jobqueue.New(cfg.Concurrency, cfg.Retain, s.runJob)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.handler = s.middleware(mux)
	return s
}

// Handler is the server's HTTP entry point.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops the server's queue gracefully: pending jobs fail, the
// in-flight job finishes (until ctx expires, which cancels it), and
// /healthz turns 503 so load balancers stop routing here.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	return s.queue.Drain(ctx)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// runJob is the queue's Runner: one spec through the runner — each in
// its own harness.Env, so Concurrency workers execute specs genuinely
// in parallel — artifacts collected in memory, cache traffic and wall
// clock folded into the server's metrics.
func (s *Server) runJob(ctx context.Context, payload any) (any, error) {
	js := payload.(*jobSpec)
	s.mu.Lock()
	s.active++
	if s.active > s.activePeak {
		s.activePeak = s.active
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	start := time.Now()
	res, err := runner.RunContext(ctx, js.sp, runner.Options{
		Stdout: io.Discard, Stderr: io.Discard,
		CacheMaxBytes: s.cfg.CacheMaxBytes,
		CellObserver:  s.cellDur.add,
	})
	s.observe(time.Since(start), res)
	return res, err
}

// observe folds one finished run into the metrics counters.
func (s *Server) observe(d time.Duration, res *runner.Result) {
	sec := d.Seconds()
	s.jobDur.add(sec)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := len(durEdges)
	for j, edge := range durEdges {
		if sec <= edge {
			i = j
			break
		}
	}
	s.durBuckets[i]++
	s.durCount++
	s.durSum += sec
	if res == nil {
		return
	}
	addStats(&s.input, res.InputStats)
	addStats(&s.result, res.ResultStats)
	if res.Manifest != nil {
		for _, r := range res.Manifest.Results {
			if r.Source == "cache" {
				s.cellsCached++
			} else {
				s.cellsComputed++
			}
		}
	}
}

func addStats(dst *diskcache.Stats, src diskcache.Stats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Rejects += src.Rejects
	dst.Puts += src.Puts
	dst.Prunes += src.Prunes
	dst.BytesRead += src.BytesRead
	dst.BytesWritten += src.BytesWritten
}

// handleSubmit accepts a spec — raw TOML, or JSON {"spec": "<TOML>"}
// when the Content-Type says application/json — validates it, and
// enqueues it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxRequestBytes)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}

	text := body
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct == "application/json" {
		var req struct {
			Spec string `json:"spec"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "decoding JSON body: %v", err)
			return
		}
		if req.Spec == "" {
			httpError(w, http.StatusBadRequest, `JSON body needs a non-empty "spec" field holding the spec text`)
			return
		}
		text = []byte(req.Spec)
	}

	sp, err := spec.Parse(text)
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing spec: %v", err)
		return
	}
	if sp.Run.Shard != "" {
		httpError(w, http.StatusBadRequest,
			"sharded specs only fill a result cache and write no artifacts; submit the unsharded spec")
		return
	}
	if sp.Workload.Input != "" {
		httpError(w, http.StatusBadRequest,
			"jobs read no server files; [workload] input is not available, submit a generated graph")
		return
	}
	// The server owns the cache: every job shares its directory, and a
	// client cannot point a job at a server-side path of its choosing.
	sp.Run.CacheDir = s.cfg.CacheDir
	// Split the host's cores between job-level and cell-level
	// parallelism: a spec that leaves [run] jobs on auto would claim
	// every core (0 = NumCPU in the runner), starving the other
	// Concurrency-1 workers, so it is admitted with its fair share
	// instead. An explicit jobs value is respected. Execution knobs are
	// outside the canonical spec hash, so this never changes artifact
	// bytes or cache identity.
	if sp.Run.Jobs == 0 {
		if sp.Run.Jobs = runtime.NumCPU() / s.cfg.Concurrency; sp.Run.Jobs < 1 {
			sp.Run.Jobs = 1
		}
	}
	if err := sp.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}

	js := &jobSpec{sp: sp, hash: sp.Hash()}
	id, err := s.queue.Submit(js)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.logf("job %s submitted: command=%s spec=%s", id, sp.Run.Command, js.hash[:12])
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":          id,
		"spec_sha256": js.hash,
		"status":      fmt.Sprintf("/jobs/%s", id),
	})
}

// jobView is GET /jobs/{id}'s response body.
type jobView struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Command    string     `json:"command"`
	SpecSHA256 string     `json:"spec_sha256"`
	Error      string     `json:"error,omitempty"`
	Enqueued   time.Time  `json:"enqueued"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	// WaitSeconds is time spent queued; RunSeconds is execution time
	// (so far, for a running job).
	WaitSeconds float64        `json:"wait_seconds"`
	RunSeconds  float64        `json:"run_seconds,omitempty"`
	Artifacts   []artifactView `json:"artifacts,omitempty"`
	Cells       *cellsView     `json:"cells,omitempty"`
	Cache       *cacheView     `json:"cache,omitempty"`
}

type artifactView struct {
	Name  string `json:"name"`
	Path  string `json:"path,omitempty"` // where the spec would have written it
	Bytes int    `json:"bytes"`
	Href  string `json:"href"`
}

// cellsView is the job's sweep-cell provenance from its manifest:
// cached cells were replayed from the result store without simulating.
type cellsView struct {
	Computed int `json:"computed"`
	Cached   int `json:"cached"`
}

type cacheView struct {
	Input  diskcache.Stats `json:"input"`
	Result diskcache.Stats `json:"result"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.queue.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	js := snap.Payload.(*jobSpec)
	now := time.Now()
	v := jobView{
		ID:          snap.ID,
		State:       string(snap.State),
		Command:     js.sp.Run.Command,
		SpecSHA256:  js.hash,
		Enqueued:    snap.Enqueued,
		WaitSeconds: snap.Wait(now).Seconds(),
	}
	if snap.Err != nil {
		v.Error = snap.Err.Error()
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		v.Started = &t
		end := now
		if !snap.Finished.IsZero() {
			end = snap.Finished
		}
		v.RunSeconds = end.Sub(snap.Started).Seconds()
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		v.Finished = &t
	}
	if res, ok := snap.Result.(*runner.Result); ok && res != nil {
		for _, a := range res.Artifacts {
			v.Artifacts = append(v.Artifacts, artifactView{
				Name: a.Name, Path: a.Path, Bytes: len(a.Data),
				Href: fmt.Sprintf("/jobs/%s/artifacts/%s", snap.ID, a.Name),
			})
		}
		if res.Manifest != nil {
			c := &cellsView{}
			for _, r := range res.Manifest.Results {
				if r.Source == "cache" {
					c.Cached++
				} else {
					c.Computed++
				}
			}
			v.Cells = c
		}
		v.Cache = &cacheView{Input: res.InputStats, Result: res.ResultStats}
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id, name := r.PathValue("id"), r.PathValue("name")
	snap, ok := s.queue.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch snap.State {
	case jobqueue.Pending, jobqueue.Running:
		httpError(w, http.StatusConflict, "job %s is %s; artifacts exist once it is done", id, snap.State)
		return
	case jobqueue.Failed:
		httpError(w, http.StatusConflict, "job %s failed: %v", id, snap.Err)
		return
	}
	res := snap.Result.(*runner.Result)
	a := res.Artifact(name)
	if a == nil {
		httpError(w, http.StatusNotFound, "job %s has no artifact %q", id, name)
		return
	}
	w.Header().Set("Content-Type", artifactContentType(a))
	w.Header().Set("Content-Length", fmt.Sprint(len(a.Data)))
	w.Write(a.Data)
}

// artifactContentType guesses a serviceable Content-Type from the
// artifact's role and the path the spec would have written.
func artifactContentType(a *runner.Artifact) string {
	if a.Name == "manifest" || a.Name == "trace" {
		return "application/json"
	}
	switch path.Ext(a.Path) {
	case ".json":
		return "application/json"
	case ".csv":
		return "text/csv; charset=utf-8"
	}
	if a.Name == "attr" {
		return "text/csv; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.queue.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !s.queue.Cancel(id) {
		httpError(w, http.StatusConflict, "job %s already finished (%s)", id, snap.State)
		return
	}
	s.logf("job %s canceled", id)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": "canceling"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.queue.Counts()
	s.mu.Lock()
	input, result := s.input, s.result
	computed, cached := s.cellsComputed, s.cellsCached
	buckets := append([]int64(nil), s.durBuckets...)
	count, sum := s.durCount, s.durSum
	peak := s.activePeak
	s.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "jobs_submitted_total %d\n", c.Submitted)
	fmt.Fprintf(&b, "jobs_pending %d\n", c.Pending)
	fmt.Fprintf(&b, "jobs_running %d\n", c.Running)
	fmt.Fprintf(&b, "jobs_done %d\n", c.Done)
	fmt.Fprintf(&b, "jobs_failed %d\n", c.Failed)
	fmt.Fprintf(&b, "jobs_running_peak %d\n", peak)
	fmt.Fprintf(&b, "queue_depth %d\n", c.Pending)
	fmt.Fprintf(&b, "cells_computed_total %d\n", computed)
	fmt.Fprintf(&b, "cells_cached_total %d\n", cached)
	for _, cs := range []struct {
		name string
		st   diskcache.Stats
	}{{"input", input}, {"result", result}} {
		fmt.Fprintf(&b, "cache_%s_hits_total %d\n", cs.name, cs.st.Hits)
		fmt.Fprintf(&b, "cache_%s_misses_total %d\n", cs.name, cs.st.Misses)
		fmt.Fprintf(&b, "cache_%s_rejects_total %d\n", cs.name, cs.st.Rejects)
		fmt.Fprintf(&b, "cache_%s_puts_total %d\n", cs.name, cs.st.Puts)
		fmt.Fprintf(&b, "cache_%s_prunes_total %d\n", cs.name, cs.st.Prunes)
		fmt.Fprintf(&b, "cache_%s_read_bytes_total %d\n", cs.name, cs.st.BytesRead)
		fmt.Fprintf(&b, "cache_%s_written_bytes_total %d\n", cs.name, cs.st.BytesWritten)
	}
	cum := int64(0)
	for i, edge := range durEdges {
		cum += buckets[i]
		fmt.Fprintf(&b, "job_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", edge), cum)
	}
	fmt.Fprintf(&b, "job_seconds_bucket{le=\"+Inf\"} %d\n", count)
	fmt.Fprintf(&b, "job_seconds_count %d\n", count)
	fmt.Fprintf(&b, "job_seconds_sum %.6f\n", sum)
	// Percentiles from the bounded reservoirs: job wall clock and
	// per-sweep-cell latency across all jobs.
	quantileQs := []float64{0.5, 0.95, 0.99}
	jq, _ := s.jobDur.quantiles(quantileQs)
	cq, cellCount := s.cellDur.quantiles(quantileQs)
	for i, q := range quantileQs {
		fmt.Fprintf(&b, "job_seconds{quantile=%q} %.6f\n", fmt.Sprintf("%g", q), jq[i])
	}
	fmt.Fprintf(&b, "cell_seconds_count %d\n", cellCount)
	for i, q := range quantileQs {
		fmt.Fprintf(&b, "cell_seconds{quantile=%q} %.6f\n", fmt.Sprintf("%g", q), cq[i])
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, b.String())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// httpError sends a plain-text error line with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
