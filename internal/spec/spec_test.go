package spec

import (
	"bytes"
	"testing"
)

// validSpecs holds one minimal valid spec per command; boundary cases
// below are built by perturbing one field at a time.
var validSpecs = map[string]string{
	"figures":  "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\nformat = \"json\"\n",
	"profile":  "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig1\"\n",
	"coloring": "[run]\ncommand = \"coloring\"\n[workload]\ngen = \"rmat\"\nn = 1024\nm = 4096\n",
	"listrank": "[run]\ncommand = \"listrank\"\n[workload]\nn = 4096\nlayout = \"random\"\n",
	"concomp":  "[run]\ncommand = \"concomp\"\n[workload]\ngen = \"gnm\"\nn = 1024\nm = 2048\n",
}

func TestValidSpecs(t *testing.T) {
	for name, text := range validSpecs {
		s, err := Parse([]byte(text))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: validate: %v", name, err)
		}
	}
}

// TestBoundaries drives every field through its zero / negative /
// overflow / unknown-key / conflicting case and pins the exact one-line
// error. These strings are the spec system's user interface; changing
// one is an interface change and must update this table.
func TestBoundaries(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // exact error string; "" = must validate clean
	}{
		// ---- parser-level ----
		{"unknown-section", "[experiment]\n", `spec: line 1: unknown section [experiment]`},
		{"unterminated-section", "[run\n", `spec: line 1: unterminated section header "[run"`},
		{"unknown-key", "[run]\ncommands = \"figures\"\n", `spec: line 2: [run] has no key "commands"`},
		{"unknown-key-other-section", "[figures]\nfigs = 1\n", `spec: line 2: [figures] has no key "figs"`},
		{"key-outside-section", "fig = 1\n", `spec: line 1: key "fig" outside any section`},
		{"duplicate-key", "[run]\nworkers = 1\nworkers = 2\n", `spec: line 3: duplicate key "workers" in [run]`},
		{"missing-equals", "[run]\nworkers\n", `spec: line 2: expected key = value, got "workers"`},
		{"missing-value", "[run]\nworkers =\n", `spec: line 2: key "workers" has no value`},
		{"bad-key-name", "[run]\nWorkers = 1\n", `spec: line 2: invalid key name "Workers"`},
		{"int-overflow", "[workload]\nn = 99999999999999999999\n", `spec: line 2: [workload] n wants an integer, got 99999999999999999999`},
		{"string-for-int", "[figures]\nfig = \"1\"\n", `spec: line 2: [figures] fig wants an integer, got "1"`},
		{"int-for-string", "[run]\ncommand = 5\n", `spec: line 2: [run] command wants a quoted string, got 5`},
		{"float-for-int", "[workload]\nn = 1.5\n", `spec: line 2: [workload] n wants an integer, got 1.5`},
		{"negative-seed", "[run]\nseed = -1\n", `spec: line 2: [run] seed wants a non-negative integer, got -1`},
		{"bad-bool", "[figures]\nall = yes\n", `spec: line 2: [figures] all wants true or false, got yes`},
		{"bad-array", "[figures]\nprocs = 1, 2\n", `spec: line 2: [figures] procs wants an integer array like [1, 2, 4], got 1, 2`},
		{"array-bad-element", "[figures]\nprocs = [1, x]\n", `spec: line 2: [figures] procs wants an integer array like [1, 2, 4], got [1, x]`},
		{"string-bad-char", "[run]\ncommand = \"fig\tures\"\n", `spec: line 2: unsupported character '\t' in string value of command`},

		// ---- [run] ----
		{"bad-command", "[run]\ncommand = \"sweep\"\n", `spec: [run] command must be one of figures, profile, coloring, listrank, concomp; got "sweep"`},
		{"bad-scale", "[run]\nscale = \"huge\"\n[figures]\nall = true\n", `spec: [run] scale must be one of small, medium, paper; got "huge"`},
		{"negative-workers", "[run]\nworkers = -1\n[figures]\nall = true\n", `spec: [run] workers must be >= 0 (0 = one per host CPU), got -1`},
		{"negative-jobs", "[run]\njobs = -2\n[figures]\nall = true\n", `spec: [run] jobs must be >= 0 (0 = one per host CPU), got -2`},
		{"bad-shard", "[run]\nshard = \"0:4\"\n[figures]\nall = true\nformat = \"json\"\n", `spec: [run] shard must look like i/N (e.g. 0/4), got "0:4"`},
		{"shard-zero-count", "[run]\nshard = \"0/0\"\n[figures]\nall = true\nformat = \"json\"\n", `spec: [run] shard count must be >= 1, got 0`},
		{"shard-index-high", "[run]\nshard = \"4/4\"\n[figures]\nall = true\nformat = \"json\"\n", `spec: [run] shard index must satisfy 0 <= i < 4, got 4`},
		{"shard-on-coloring", "[run]\ncommand = \"coloring\"\nshard = \"0/2\"\n", `spec: [run] shard does not apply to command "coloring"`},
		{"seed-on-figures", "[run]\nseed = 5\n[figures]\nall = true\n", `spec: [run] seed does not apply to command "figures"`},
		{"scale-on-listrank", "[run]\ncommand = \"listrank\"\nscale = \"small\"\n", `spec: [run] scale applies only to command "figures"`},

		// ---- cross-section conflicts ----
		{"profile-section-for-figures", "[figures]\nall = true\n[profile]\nn = 64\n", `spec: section [profile] does not apply to command "figures"`},
		{"workload-section-for-profile", "[run]\ncommand = \"profile\"\n[workload]\nn = 64\n", `spec: section [workload] does not apply to command "profile"`},
		{"figures-section-for-concomp", "[run]\ncommand = \"concomp\"\n[figures]\nfig = 1\n", `spec: section [figures] does not apply to command "concomp"`},

		// ---- [figures] ----
		{"bad-fig", "[figures]\nfig = 3\n", `spec: [figures] fig must be 1 or 2, got 3`},
		{"negative-fig", "[figures]\nfig = -1\n", `spec: [figures] fig must be 1 or 2, got -1`},
		{"bad-table", "[figures]\ntable = 2\n", `spec: [figures] table must be 1, got 2`},
		{"bad-exp", "[figures]\nexp = \"warp\"\n", `spec: [figures] unknown experiment "warp"`},
		{"bad-format", "[figures]\nfig = 1\nformat = \"yaml\"\n", `spec: [figures] format must be one of text, json, csv; got "yaml"`},
		{"csv-with-all", "[figures]\nall = true\nformat = \"csv\"\n", `spec: [figures] format "csv" renders only fig and table, not all`},
		{"csv-with-summary", "[figures]\nfig = 1\nsummary = true\nformat = \"csv\"\n", `spec: [figures] format "csv" renders only fig and table, not summary`},
		{"csv-with-exp", "[figures]\nexp = \"saturation\"\nformat = \"csv\"\n", `spec: [figures] format "csv" renders only fig and table, not exp`},
		{"selects-nothing", "[run]\ncommand = \"figures\"\n", `spec: [figures] selects nothing to run (set all, fig, table, summary, or exp)`},
		{"zero-axis-value", "[figures]\nfig = 1\nprocs = [1, 0]\n", `spec: [figures] procs values must be positive, got 0`},
		{"negative-axis-value", "[figures]\nfig = 2\nedge_factors = [-4]\n", `spec: [figures] edge_factors values must be positive, got -4`},

		// ---- [profile] ----
		{"bad-kernel", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig3\"\n", `spec: [profile] kernel must be one of fig1, fig2, prefix, treecon, coloring; got "fig3"`},
		{"bad-profile-machine", "[run]\ncommand = \"profile\"\n[profile]\nmachine = \"gpu\"\n", `spec: [profile] machine must be one of mta, smp, both; got "gpu"`},
		{"zero-profile-n", "[run]\ncommand = \"profile\"\n[profile]\nn = 0\n", `spec: [profile] n must be positive, got 0`},
		{"one-profile-n", "[run]\ncommand = \"profile\"\n[profile]\nn = 1\n", `spec: [profile] n must be at least 2, got 1`},
		{"fig2-profile-n-too-small", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig2\"\nmachine = \"smp\"\nn = 16\n", `spec: [profile] kernel "fig2" runs on G(n, 8n): gnm with -n 16 holds at most 120 edges, got -m 128`},
		{"coloring-profile-n-too-small", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"coloring\"\nn = 4\n", `spec: [profile] kernel "coloring" runs on G(n, 8n): gnm with -n 4 holds at most 6 edges, got -m 32`},
		{"fig2-profile-smallest-n", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig2\"\nn = 17\n", ""},
		{"fig1-profile-n-2", "[run]\ncommand = \"profile\"\n[profile]\nkernel = \"fig1\"\nn = 2\n", ""},
		{"negative-profile-procs", "[run]\ncommand = \"profile\"\n[profile]\nprocs = -8\n", `spec: [profile] procs must be positive, got -8`},
		{"bad-profile-layout", "[run]\ncommand = \"profile\"\n[profile]\nlayout = \"clustered\"\n", `spec: [profile] layout must be one of ordered, random; got "clustered"`},
		{"bad-attr-format", "[run]\ncommand = \"profile\"\n[profile]\nattr = \"xml\"\n", `spec: [profile] attr must be one of table, csv, json, none; got "xml"`},

		// ---- [workload] ----
		{"bad-coloring-machine", "[run]\ncommand = \"coloring\"\n[workload]\nmachine = \"native\"\n", `spec: [workload] machine must be one of mta, smp, spec, seq; got "native"`},
		{"bad-listrank-machine", "[run]\ncommand = \"listrank\"\n[workload]\nmachine = \"spec\"\n", `spec: [workload] machine must be one of mta, smp, native, seq; got "spec"`},
		{"bad-concomp-machine", "[run]\ncommand = \"concomp\"\n[workload]\nmachine = \"gpu\"\n", `spec: [workload] machine must be one of mta, mta-star, smp, native, as, randmate, hybrid, seq, bfs; got "gpu"`},
		{"zero-workload-procs", "[run]\ncommand = \"concomp\"\n[workload]\nprocs = 0\n", `spec: [workload] procs must be positive, got 0`},
		{"bad-sched", "[run]\ncommand = \"coloring\"\n[workload]\nsched = \"static\"\n", `spec: [workload] sched must be one of dynamic, block; got "static"`},
		{"zero-listrank-n", "[run]\ncommand = \"listrank\"\n[workload]\nn = 0\n", `spec: [workload] n must be positive, got 0`},
		{"bad-listrank-layout", "[run]\ncommand = \"listrank\"\n[workload]\nlayout = \"sorted\"\n", `spec: [workload] layout must be one of ordered, random, clustered; got "sorted"`},
		{"gen-on-listrank", "[run]\ncommand = \"listrank\"\n[workload]\ngen = \"gnm\"\n", `spec: [workload] gen does not apply to command "listrank"`},
		{"layout-on-coloring", "[run]\ncommand = \"coloring\"\n[workload]\nlayout = \"random\"\n", `spec: [workload] layout applies only to command "listrank"`},
		{"sublists-on-concomp", "[run]\ncommand = \"concomp\"\n[workload]\nsublists = 4\n", `spec: [workload] sublists applies only to command "listrank"`},
		{"sched-on-concomp", "[run]\ncommand = \"concomp\"\n[workload]\nsched = \"block\"\n", `spec: [workload] sched does not apply to command "concomp"`},
		{"m-on-listrank", "[run]\ncommand = \"listrank\"\n[workload]\nm = 4096\n", `spec: [workload] m does not apply to command "listrank"`},
		{"gnm-too-many-edges", "[run]\ncommand = \"concomp\"\n[workload]\ngen = \"gnm\"\nn = 4\nm = 100\n", `spec: [workload] gnm with -n 4 holds at most 6 edges, got -m 100`},
		{"unknown-gen", "[run]\ncommand = \"concomp\"\n[workload]\ngen = \"hypercube\"\n", `spec: [workload] unknown generator "hypercube" (want gnm, rmat, mesh2d, mesh3d, or torus)`},
		{"mesh-zero-rows", "[run]\ncommand = \"concomp\"\n[workload]\ngen = \"mesh2d\"\nrows = 0\n", `spec: [workload] mesh2d needs positive -rows and -cols, got 0x512`},
		{"input-skips-gen-check", "[run]\ncommand = \"concomp\"\n[workload]\ngen = \"gnm\"\nn = 4\nm = 100\ninput = \"g.dimacs\"\n", ""},

		// ---- [output] ----
		{"report-on-profile", "[run]\ncommand = \"profile\"\n[output]\nreport = \"r.json\"\n", `spec: [output] report applies only to command "figures"`},
		{"attr-on-listrank", "[run]\ncommand = \"listrank\"\n[output]\nattr = \"a.csv\"\n", `spec: [output] attr does not apply to command "listrank"`},
		{"empty-report-on-profile", "[run]\ncommand = \"profile\"\n[output]\nreport = \"\"\n", `spec: [output] report applies only to command "figures"`},
		{"trace-on-host-listrank", "[run]\ncommand = \"listrank\"\n[workload]\nmachine = \"native\"\n[output]\ntrace = \"t.json\"\n", `spec: [output] trace needs a simulated machine; [workload] machine "native" runs on the host`},
		{"attr-on-host-coloring", "[run]\ncommand = \"coloring\"\n[workload]\nmachine = \"seq\"\n[output]\nattr = \"a.csv\"\n", `spec: [output] attr needs a simulated machine; [workload] machine "seq" runs on the host`},
		{"trace-on-host-coloring", "[run]\ncommand = \"coloring\"\n[workload]\nmachine = \"spec\"\n[output]\ntrace = \"t.json\"\n", `spec: [output] trace needs a simulated machine; [workload] machine "spec" runs on the host`},
		{"trace-on-host-concomp", "[run]\ncommand = \"concomp\"\n[workload]\nmachine = \"bfs\"\n[output]\ntrace = \"t.json\"\nmanifest = \"m.json\"\n", `spec: [output] trace needs a simulated machine; [workload] machine "bfs" runs on the host`},
		{"trace-on-mta-star", "[run]\ncommand = \"concomp\"\n[workload]\nmachine = \"mta-star\"\n[output]\ntrace = \"t.json\"\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := Parse([]byte(c.text))
			if err == nil {
				err = s.Validate()
			}
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("want clean validate, got %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("want error %q, got none", c.want)
			case c.want != "" && err.Error() != c.want:
				t.Fatalf("error = %q\n     want %q", err, c.want)
			}
		})
	}
}

// TestClamps pins the fields that clamp instead of erroring, and that
// clamping is idempotent (a second Validate changes nothing) — the
// property the canonical fixpoint rests on.
func TestClamps(t *testing.T) {
	cases := []struct {
		name  string
		text  string
		check func(t *testing.T, s *Spec)
	}{
		{"sample-negative", "[run]\ncommand = \"profile\"\n[profile]\nsample = -5.0\n",
			func(t *testing.T, s *Spec) {
				if s.Profile.Sample != 0 {
					t.Errorf("sample = %v, want clamped 0", s.Profile.Sample)
				}
			}},
		{"timeline-negative", "[run]\ncommand = \"profile\"\n[profile]\ntimeline = -1\n",
			func(t *testing.T, s *Spec) {
				if s.Profile.Timeline != 0 {
					t.Errorf("timeline = %v, want clamped 0", s.Profile.Timeline)
				}
			}},
		{"sublists-zero", "[run]\ncommand = \"listrank\"\n[workload]\nsublists = 0\n",
			func(t *testing.T, s *Spec) {
				if s.Workload.Sublists != 8 {
					t.Errorf("sublists = %d, want clamped 8", s.Workload.Sublists)
				}
			}},
		{"nodes-per-walk-negative", "[run]\ncommand = \"listrank\"\n[workload]\nnodes_per_walk = -3\n",
			func(t *testing.T, s *Spec) {
				if s.Workload.NodesPerWalk != defaultNodesPerWalk {
					t.Errorf("nodes_per_walk = %d, want clamped %d", s.Workload.NodesPerWalk, defaultNodesPerWalk)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := Parse([]byte(c.text))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			c.check(t, s)
			before := s.Canonical()
			if err := s.Validate(); err != nil {
				t.Fatalf("revalidate: %v", err)
			}
			if after := s.Canonical(); !bytes.Equal(before, after) {
				t.Errorf("validate is not idempotent:\n%s\nvs\n%s", before, after)
			}
		})
	}
}

// TestDefaultsMatchFlags pins the spec defaults against the commands'
// historical flag defaults, so an empty spec means a bare invocation.
func TestDefaultsMatchFlags(t *testing.T) {
	s := Default(CmdColoring)
	if s.Workload.Gen != "rmat" || s.Workload.N != 1<<14 || s.Workload.M != 8<<14 ||
		s.Workload.Rows != 128 || s.Workload.Cols != 128 || s.Workload.Depth != 8 {
		t.Errorf("coloring workload defaults drifted: %+v", s.Workload)
	}
	s = Default(CmdConcomp)
	if s.Workload.Gen != "gnm" || s.Workload.N != 1<<18 || s.Workload.M != 4<<18 ||
		s.Workload.Rows != 512 || s.Workload.Cols != 512 {
		t.Errorf("concomp workload defaults drifted: %+v", s.Workload)
	}
	s = Default(CmdListrank)
	if s.Workload.N != 1<<20 || s.Workload.Layout != "random" || s.Workload.Sublists != 8 ||
		s.Workload.NodesPerWalk != defaultNodesPerWalk {
		t.Errorf("listrank workload defaults drifted: %+v", s.Workload)
	}
	s = Default(CmdProfile)
	if s.Profile.Kernel != "fig1" || s.Profile.Machine != "both" || s.Profile.N != 1<<16 ||
		s.Profile.Procs != 8 || s.Run.Seed != 0x33 {
		t.Errorf("profile defaults drifted: %+v run=%+v", s.Profile, s.Run)
	}
	if s := Default(CmdFigures); s.Run.Scale != "small" || s.Figures.Format != "text" {
		t.Errorf("figures defaults drifted: %+v", s)
	}
}

// TestCanonicalFixpoint: parse(canonical(s)) must canonicalize to the
// same bytes, for every command's minimal spec and some richer ones.
func TestCanonicalFixpoint(t *testing.T) {
	texts := make([]string, 0, len(validSpecs)+2)
	for _, v := range validSpecs {
		texts = append(texts, v)
	}
	texts = append(texts,
		"[run]\ncommand = \"figures\"\nscale = \"medium\"\n[figures]\nfig = 1\nformat = \"json\"\nprocs = [1, 2, 4]\nsizes = [1024, 2048]\n[output]\nreport = \"out/fig1.json\"\n",
		"[run]\ncommand = \"profile\"\nseed = 99\n[profile]\nkernel = \"prefix\"\nmachine = \"mta\"\nsample = 500.5\ntimeline = 2e4\n[output]\ntrace = \"t.json\"\n",
	)
	for i, text := range texts {
		s, err := Parse([]byte(text))
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		c1 := s.Canonical()
		s2, err := Parse(c1)
		if err != nil {
			t.Fatalf("spec %d: reparse canonical: %v\n%s", i, err, c1)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("spec %d: revalidate canonical: %v\n%s", i, err, c1)
		}
		if c2 := s2.Canonical(); !bytes.Equal(c1, c2) {
			t.Errorf("spec %d: canonical is not a fixpoint:\n--- first\n%s--- second\n%s", i, c1, c2)
		}
	}
}

// TestHashIgnoresExecutionKnobs: workers / jobs / shard / cache_dir and
// the manifest path must not move the spec identity — that is what lets
// a sharded 8-job run and a serial run produce the same manifest.
func TestHashIgnoresExecutionKnobs(t *testing.T) {
	base := "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\nformat = \"json\"\n"
	s, err := Parse([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := s.Hash()
	knobs := []string{"workers = 4", "jobs = 8", "shard = \"1/4\"", "cache_dir = \"/tmp/pgc\""}
	for _, k := range knobs {
		text := "[run]\ncommand = \"figures\"\n" + k + "\n[figures]\nfig = 1\nformat = \"json\"\n"
		s2, err := Parse([]byte(text))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if got := s2.Hash(); got != want {
			t.Errorf("knob %q moved the spec hash: %s vs %s", k, got, want)
		}
	}
	text := "[run]\ncommand = \"figures\"\n[figures]\nfig = 1\nformat = \"json\"\n[output]\nmanifest = \"m.json\"\n"
	s2, err := Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Hash(); got != want {
		t.Errorf("output.manifest moved the spec hash: %s vs %s", got, want)
	}
	// And a result-determining change must move it.
	s3, err := Parse([]byte("[run]\ncommand = \"figures\"\n[figures]\nfig = 2\nformat = \"json\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Validate(); err != nil {
		t.Fatal(err)
	}
	if s3.Hash() == want {
		t.Error("changing fig did not move the spec hash")
	}
}

// TestCommentsAndWhitespace: the parser tolerates the formatting people
// actually write.
func TestCommentsAndWhitespace(t *testing.T) {
	text := "# experiment spec\n\n  [run]  \n  command = \"listrank\"  # the command\n\n[workload]\nn = 64 # tiny\nmachine = \"seq\" \n"
	s, err := Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Workload.N != 64 || s.Workload.Machine != "seq" {
		t.Errorf("parsed %+v", s.Workload)
	}
	// '#' inside a string is content, not a comment.
	s2, err := Parse([]byte("[run]\ncommand = \"coloring\"\n[workload]\ninput = \"data#1.dimacs\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Workload.Input != "data#1.dimacs" {
		t.Errorf("input = %q", s2.Workload.Input)
	}
}

func TestFileTooLarge(t *testing.T) {
	_, err := Parse(make([]byte, maxSpecBytes+1))
	if err == nil || err.Error() != "spec: file larger than 1048576 bytes" {
		t.Fatalf("err = %v", err)
	}
}
