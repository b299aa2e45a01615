package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pargraph/internal/runner"
	"pargraph/internal/spec"
)

// fastSpec is a figures run small enough for a unit test: one list
// size, two processor counts, JSON report on stdout.
const fastSpec = `
[run]
command = "figures"
jobs = 2

[figures]
fig = 1
format = "json"
sizes = [256]
procs = [1, 2]
`

// newTestServer starts a server over a fresh cache dir and returns it
// with its httptest frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// submit POSTs a spec body and returns the decoded response.
func submit(t *testing.T, ts *httptest.Server, contentType string, body []byte) (map[string]any, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v map[string]any
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("decoding submit response %q: %v", data, err)
		}
	} else {
		v = map[string]any{"error": strings.TrimSpace(string(data))}
	}
	return v, resp
}

// await polls the job until it leaves pending/running.
func await(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == "done" || v.State == "failed" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestJobArtifactMatchesCLI: the HTTP path hands back byte-identical
// artifacts to what the CLI (runner.Run, which cmd/figures calls)
// writes for the same spec, and a repeated submission is a pure cache
// replay — zero re-simulated cells.
func TestJobArtifactMatchesCLI(t *testing.T) {
	cacheDir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: cacheDir})

	// Reference run through the CLI execution path, report to a file.
	ref := filepath.Join(t.TempDir(), "fig1.json")
	sp, err := spec.Parse([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	sp.Output.Report = ref
	sp.Run.CacheDir = filepath.Join(t.TempDir(), "clicache") // separate cache: same bytes either way
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(sp, runner.Options{Stdout: io.Discard, Stderr: io.Discard}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	v, resp := submit(t, ts, "text/plain", []byte(fastSpec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, v)
	}
	id := v["id"].(string)
	job := await(t, ts, id)
	if job.State != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}

	code, got := get(t, ts, "/jobs/"+id+"/artifacts/report")
	if code != http.StatusOK {
		t.Fatalf("artifact fetch: %d %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP artifact differs from CLI bytes:\nhttp: %d bytes\ncli:  %d bytes", len(got), len(want))
	}

	// The first run computed every cell (cold cache).
	if job.Cells == nil || job.Cells.Computed == 0 {
		t.Fatalf("first run reported no computed cells: %+v", job.Cells)
	}

	// Same spec again: every cell replays from the shared result store.
	v2, _ := submit(t, ts, "text/plain", []byte(fastSpec))
	job2 := await(t, ts, v2["id"].(string))
	if job2.State != "done" {
		t.Fatalf("repeat job failed: %s", job2.Error)
	}
	if job2.Cells == nil {
		t.Fatal("repeat job has no cell provenance")
	}
	if job2.Cells.Computed != 0 {
		t.Errorf("repeat job re-simulated %d cells, want 0 (cached=%d)",
			job2.Cells.Computed, job2.Cells.Cached)
	}
	if job2.Cells.Cached != job.Cells.Computed {
		t.Errorf("repeat job replayed %d cells, first run computed %d",
			job2.Cells.Cached, job.Cells.Computed)
	}

	// The repeat's artifact is byte-identical too.
	code, got2 := get(t, ts, "/jobs/"+v2["id"].(string)+"/artifacts/report")
	if code != http.StatusOK || !bytes.Equal(got2, want) {
		t.Errorf("repeat artifact differs (code %d, %d bytes vs %d)", code, len(got2), len(want))
	}
}

// TestSubmitJSONBody: the JSON {"spec": ...} submission form works.
func TestSubmitJSONBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]string{"spec": fastSpec})
	v, resp := submit(t, ts, "application/json", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, v)
	}
	if job := await(t, ts, v["id"].(string)); job.State != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
}

// TestSubmitRejects: malformed specs, sharded specs, specs naming a
// server file as input, bad JSON, and oversize bodies all answer 4xx
// without reaching the queue.
func TestSubmitRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 4096})
	cases := []struct {
		name, contentType, body string
		wantCode                int
	}{
		{"bad TOML", "text/plain", "[run\ncommand=", http.StatusBadRequest},
		{"unknown key", "text/plain", "[run]\nbogus = 1\n", http.StatusBadRequest},
		{"invalid value", "text/plain", "[run]\ncommand = \"figures\"\n[figures]\nfig = 9\n", http.StatusBadRequest},
		{"sharded", "text/plain", "[run]\ncommand = \"figures\"\nshard = \"0/2\"\n[figures]\nfig = 1\n", http.StatusBadRequest},
		{"server file", "text/plain", "[run]\ncommand = \"concomp\"\n[workload]\ninput = \"/etc/passwd\"\n", http.StatusBadRequest},
		{"bad JSON", "application/json", "{not json", http.StatusBadRequest},
		{"empty JSON spec", "application/json", `{"spec": ""}`, http.StatusBadRequest},
		{"oversize", "text/plain", strings.Repeat("# pad\n", 1000), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		v, resp := submit(t, ts, c.contentType, []byte(c.body))
		if resp.StatusCode != c.wantCode {
			t.Errorf("%s: got %d (%v), want %d", c.name, resp.StatusCode, v, c.wantCode)
		}
	}
}

// TestStatusAndArtifactErrors: unknown ids 404; artifacts of unfinished
// or failed jobs 409.
func TestStatusAndArtifactErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := get(t, ts, "/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", code)
	}
	if code, _ := get(t, ts, "/jobs/nope/artifacts/report"); code != http.StatusNotFound {
		t.Errorf("unknown job artifact: %d, want 404", code)
	}

	// A spec that validates but fails at run time: a profile of one
	// node, which the kernel rejects.
	bad := "[run]\ncommand = \"profile\"\n[profile]\nn = 1\n"
	v, resp := submit(t, ts, "text/plain", []byte(bad))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, v)
	}
	id := v["id"].(string)
	job := await(t, ts, id)
	if job.State != "failed" || job.Error == "" {
		t.Fatalf("job on missing input: state=%s err=%q, want failed", job.State, job.Error)
	}
	if code, _ := get(t, ts, "/jobs/"+id+"/artifacts/report"); code != http.StatusConflict {
		t.Errorf("artifact of failed job: %d, want 409", code)
	}

	// Unknown artifact name on a done job.
	v2, _ := submit(t, ts, "text/plain", []byte(fastSpec))
	id2 := v2["id"].(string)
	if job := await(t, ts, id2); job.State != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
	if code, _ := get(t, ts, "/jobs/"+id2+"/artifacts/bogus"); code != http.StatusNotFound {
		t.Errorf("unknown artifact name: %d, want 404", code)
	}
}

// TestMetricsAndHealth: counters move with traffic; healthz flips to
// 503 once draining.
func TestMetricsAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if code, body := get(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	v, _ := submit(t, ts, "text/plain", []byte(fastSpec))
	await(t, ts, v["id"].(string))

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, line := range []string{
		"jobs_submitted_total 1",
		"jobs_done 1",
		"cells_computed_total",
		"cache_result_puts_total",
		"job_seconds_count 1",
		`job_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q\n%s", line, text)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", code)
	}
	// Submissions after drain are refused.
	if _, resp := submit(t, ts, "text/plain", []byte(fastSpec)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: %d, want 503", resp.StatusCode)
	}
}

// TestSingleRunReportsItsCell: a served listrank job is a one-cell
// sweep, so it moves the cell latency count from 0 to 1.
func TestSingleRunReportsItsCell(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, before := get(t, ts, "/metrics")
	if !strings.Contains(string(before), "cell_seconds_count 0\n") {
		t.Fatalf("fresh server's metrics lack cell_seconds_count 0:\n%s", before)
	}
	v, _ := submit(t, ts, "text/plain", []byte("[run]\ncommand = \"listrank\"\n[workload]\nn = 1024\nprocs = 2\n"))
	if job := await(t, ts, v["id"].(string)); job.State != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
	_, after := get(t, ts, "/metrics")
	if !strings.Contains(string(after), "cell_seconds_count 1\n") {
		t.Errorf("metrics after one listrank job lack cell_seconds_count 1:\n%s", after)
	}
}

// TestCancelPendingJob: a queued job behind a running one can be
// canceled over HTTP and reports failed with the cancellation error.
func TestCancelPendingJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A couple of jobs to occupy the single worker, then a victim.
	var ids []string
	for i := 0; i < 3; i++ {
		v, resp := submit(t, ts, "text/plain", []byte(fastSpec))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, v["id"].(string))
	}
	victim := ids[len(ids)-1]

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+victim, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Accepted if it was still pending/running; 409 if it already won
	// the race and finished — both are correct server behavior.
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusAccepted {
		job := await(t, ts, victim)
		if job.State != "failed" || !strings.Contains(job.Error, "canceled") {
			t.Errorf("canceled job: state=%s err=%q", job.State, job.Error)
		}
	}
	for _, id := range ids[:len(ids)-1] {
		await(t, ts, id)
	}
}

// TestRetentionOverHTTP: finished jobs beyond the retention bound
// disappear from the API.
func TestRetentionOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Retain: 1, CacheDir: t.TempDir()})
	var ids []string
	for i := 0; i < 3; i++ {
		v, _ := submit(t, ts, "text/plain", []byte(fastSpec))
		id := v["id"].(string)
		ids = append(ids, id)
		await(t, ts, id)
	}
	if code, _ := get(t, ts, "/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Errorf("evicted job still answers: %d, want 404", code)
	}
	if code, _ := get(t, ts, "/jobs/"+ids[len(ids)-1]); code != http.StatusOK {
		t.Errorf("newest job gone: %d, want 200", code)
	}
}

// TestManifestArtifact: every collected run serves a manifest whose
// spec hash matches what submit reported.
func TestManifestArtifact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v, _ := submit(t, ts, "text/plain", []byte(fastSpec))
	id := v["id"].(string)
	if job := await(t, ts, id); job.State != "done" {
		t.Fatalf("job failed: %s", job.Error)
	}
	code, data := get(t, ts, "/jobs/"+id+"/artifacts/manifest")
	if code != http.StatusOK {
		t.Fatalf("manifest fetch: %d", code)
	}
	var m struct {
		Schema     string `json:"schema"`
		SpecSHA256 string `json:"spec_sha256"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if m.SpecSHA256 != v["spec_sha256"].(string) {
		t.Errorf("manifest spec hash %s != submit's %s", m.SpecSHA256, v["spec_sha256"])
	}
	if m.Schema == "" {
		t.Error("manifest has no schema field")
	}
}
