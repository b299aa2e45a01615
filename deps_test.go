package pargraph

import (
	"os/exec"
	"strings"
	"testing"
)

// unreachableAllowed are the internal packages no command, example or
// the root package imports, each kept for a reason of its own.
var unreachableAllowed = map[string]string{
	"pargraph/internal/cmdtest": "a helper only the commands' tests import",
	"pargraph/internal/model":   "the paper's §2 cost model, checked against the simulators' counters by its own tests",
}

// TestEveryInternalPackageIsReachable keeps dead packages from piling
// up: every internal package must be a dependency of a command, an
// example or the root package, or be listed in unreachableAllowed.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	reached := make(map[string]bool)
	for _, p := range goList("-deps", "./cmd/...", "./examples/...", ".") {
		reached[p] = true
	}
	for _, p := range goList("./internal/...") {
		_, allowed := unreachableAllowed[p]
		switch {
		case !reached[p] && !allowed:
			t.Errorf("%s is imported by no command, example or the root package; delete it or use it", p)
		case reached[p] && allowed:
			t.Errorf("%s is reachable now; drop it from unreachableAllowed", p)
		}
	}
}
