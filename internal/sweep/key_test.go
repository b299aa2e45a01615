package sweep

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestKeyProducers enumerates every key constructor and pins its exact
// output. These strings address persistent disk caches, so changing one
// silently strands (or worse, aliases) existing entries — any change
// here must come with an InputSchema bump in internal/harness.
func TestKeyProducers(t *testing.T) {
	cases := []struct {
		name string
		got  string
		want string
	}{
		{"list", ListKey(1024, "Random", 7), "list/1024/Random/7"},
		{"list-ordered", ListKey(8, "Ordered", 0), "list/8/Ordered/0"},
		{"gnm", GnmKey(4096, 32768, 34), "gnm/4096/32768/34"},
		{"rmat", RMATKey(11, 16384, 68), "rmat/11/16384/68"},
		{"mesh2d", Mesh2DKey(48, 48), "mesh2d/48/48"},
		{"mesh3d", Mesh3DKey(8, 8, 4), "mesh3d/8/8/4"},
		{"torus2d", Torus2DKey(48, 48), "torus2d/48/48"},
		{"expr", ExprKey(4096, 11), "expr/4096/11"},
		{"prefix", PrefixKey(65536, "Ordered", 51), "prefix/65536/Ordered/51"},
		{"dimacs", DIMACSKey([]byte("p edge 2 1\ne 1 2\n")), "dimacs/cc285fb6c093465e44eea624d59b8c14809e353c4f67d98f96c5f8361d82d41d"},
		{"unionfind", UnionFindKey(GnmKey(10, 20, 1)), "gnm/10/20/1/unionfind"},
		{"specref", SpecRefKey(RMATKey(11, 100, 2)), "rmat/11/100/2/specref"},
		{"result-no-inputs", ResultKey(1, "in-v1", "fig1/p=2"), "result/c1/5:in-v1/8:fig1/p=2"},
		{"result", ResultKey(2, "in-v3", "fig2/n=4096", GnmKey(10, 20, 1), UnionFindKey(GnmKey(10, 20, 1))),
			"result/c2/5:in-v3/11:fig2/n=4096|11:gnm/10/20/1|21:gnm/10/20/1/unionfind"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s key = %q, want %q", c.name, c.got, c.want)
		}
	}
}

// TestNoInlineKeyConstruction scans the packages that consume the input
// cache for inline key building: every cache key must come from the
// typed helpers in this file, so spec-derived keys and harness keys can
// never drift. The pattern catches a format string or literal that
// starts with one of the key namespaces followed by '/'.
func TestNoInlineKeyConstruction(t *testing.T) {
	inline := regexp.MustCompile(`"(list|gnm|rmat|mesh2d|mesh3d|torus2d|expr|prefix|result)/`)
	for _, dir := range []string{"../harness", "../runner"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if inline.MatchString(line) {
					t.Errorf("%s:%d builds a cache key inline; use the sweep.*Key helpers: %s",
						path, i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}
