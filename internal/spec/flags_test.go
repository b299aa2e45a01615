package spec

import (
	"flag"
	"io"
	"maps"
	"testing"
)

// flagKey is what one command-line flag sets: its spec key and default.
type flagKey struct{ key, def string }

// handWrittenFlags are the spec flags each command declared by hand before
// the field table drove them: flag name → the spec key it set → its
// default as -h printed it.
var handWrittenFlags = map[string]map[string]flagKey{
	CmdFigures: {
		"fig": {"figures.fig", "0"}, "table": {"figures.table", "0"},
		"summary": {"figures.summary", "false"}, "exp": {"figures.exp", ""},
		"all": {"figures.all", "false"}, "scale": {"run.scale", "small"},
		"workers": {"run.workers", "1"}, "jobs": {"run.jobs", "0"},
		"trace": {"output.trace", ""}, "attr": {"output.attr", ""},
		"shard": {"run.shard", ""}, "cache-dir": {"run.cache_dir", ""},
		"emit-manifest": {"output.manifest", ""},
	},
	CmdProfile: {
		"kernel": {"profile.kernel", "fig1"}, "machine": {"profile.machine", "both"},
		"n": {"profile.n", "65536"}, "procs": {"profile.procs", "8"},
		"layout": {"profile.layout", "random"}, "seed": {"run.seed", "51"},
		"sample": {"profile.sample", "0"}, "trace": {"output.trace", ""},
		"attr": {"profile.attr", "table"}, "timeline": {"profile.timeline", "0"},
		"workers": {"run.workers", "1"}, "jobs": {"run.jobs", "0"},
		"shard": {"run.shard", ""}, "cache-dir": {"run.cache_dir", ""},
		"emit-manifest": {"output.manifest", ""},
	},
	CmdColoring: {
		"gen": {"workload.gen", "rmat"}, "n": {"workload.n", "16384"},
		"m": {"workload.m", "131072"}, "rows": {"workload.rows", "128"},
		"cols": {"workload.cols", "128"}, "depth": {"workload.depth", "8"},
		"machine": {"workload.machine", "mta"}, "p": {"workload.procs", "8"},
		"sched": {"workload.sched", "dynamic"}, "seed": {"run.seed", "1"},
		"verify": {"workload.verify", "true"}, "in": {"workload.input", ""},
		"trace": {"output.trace", ""}, "attr": {"output.attr", ""},
		"workers": {"run.workers", "1"}, "jobs": {"run.jobs", "1"},
		"cache-dir": {"run.cache_dir", ""}, "emit-manifest": {"output.manifest", ""},
	},
	CmdListrank: {
		"n": {"workload.n", "1048576"}, "layout": {"workload.layout", "random"},
		"machine": {"workload.machine", "mta"}, "p": {"workload.procs", "8"},
		"nodes-per-walk":    {"workload.nodes_per_walk", "10"},
		"sublists-per-proc": {"workload.sublists", "8"},
		"sched":             {"workload.sched", "dynamic"}, "seed": {"run.seed", "1"},
		"verify": {"workload.verify", "true"}, "trace-json": {"output.trace", ""},
		"workers": {"run.workers", "1"}, "jobs": {"run.jobs", "1"},
		"cache-dir": {"run.cache_dir", ""}, "emit-manifest": {"output.manifest", ""},
	},
	CmdConcomp: {
		"gen": {"workload.gen", "gnm"}, "n": {"workload.n", "262144"},
		"m": {"workload.m", "1048576"}, "rows": {"workload.rows", "512"},
		"cols": {"workload.cols", "512"}, "depth": {"workload.depth", "8"},
		"machine": {"workload.machine", "mta"}, "p": {"workload.procs", "8"},
		"seed": {"run.seed", "1"}, "verify": {"workload.verify", "true"},
		"in": {"workload.input", ""}, "trace-json": {"output.trace", ""},
		"workers": {"run.workers", "1"}, "jobs": {"run.jobs", "1"},
		"cache-dir": {"run.cache_dir", ""}, "emit-manifest": {"output.manifest", ""},
	},
}

// TestFlagsMatchHandWritten: every command's table-driven flags set the same
// spec keys with the same defaults as its hand-written flags did, but
// for two deliberate changes: listrank's and concomp's -trace-json is
// -trace, as on the other commands, and the single runs' -jobs shows
// the spec default 0 (they run one cell either way).
func TestFlagsMatchHandWritten(t *testing.T) {
	for _, cmd := range commands {
		want := maps.Clone(handWrittenFlags[cmd])
		if tr, ok := want["trace-json"]; ok {
			delete(want, "trace-json")
			want["trace"] = tr
		}
		if cmd != CmdFigures && cmd != CmdProfile {
			want["jobs"] = flagKey{"run.jobs", "0"}
		}

		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		BindFlags(fs, cmd)
		got := map[string]flagKey{}
		fs.VisitAll(func(x *flag.Flag) {
			for _, f := range fields {
				if f.flag == x.Name && f.cmds&bitOf(cmd) != 0 {
					got[x.Name] = flagKey{f.section + "." + f.key, x.DefValue}
				}
			}
		})
		if !maps.Equal(got, want) {
			t.Errorf("%s flags:\n got %v\nwant %v", cmd, got, want)
		}
	}
}

// TestFlagsOverrideSpec: Apply sets exactly the keys whose flags the
// command line gave, over a parsed spec, and marks none as set by text.
func TestFlagsOverrideSpec(t *testing.T) {
	fs := flag.NewFlagSet(CmdListrank, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fl := BindFlags(fs, CmdListrank)
	if err := fs.Parse([]string{"-p", "3", "-verify=false", "-trace", "t.json"}); err != nil {
		t.Fatal(err)
	}
	s, err := Parse([]byte(validSpecs[CmdListrank] + "procs = 2\nmachine = \"smp\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	before := s.set
	fl.Apply(s)
	w := s.Workload
	if w.Procs != 3 || w.Verify || s.Output.Trace != "t.json" || w.Machine != "smp" || w.N != 4096 {
		t.Errorf("flags over spec: workload %+v, trace %q", w, s.Output.Trace)
	}
	if s.set != before {
		t.Errorf("Apply marked keys as set by text: %b -> %b", before, s.set)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFieldTable: every key is declared once, and Spec.set has a bit
// for each.
func TestFieldTable(t *testing.T) {
	if len(fields) > 64 {
		t.Fatalf("%d fields overflow Spec.set's 64 bits", len(fields))
	}
	for i, f := range fields {
		if j := lookup(f.section, f.key); j != i {
			t.Errorf("[%s] %s is declared at rows %d and %d", f.section, f.key, j, i)
		}
	}
}
