// Package cmdtest gives every main package in cmd/ and examples/ a
// one-line smoke test: build the binary in the test's working directory
// (go test runs each package's tests from its own directory), execute it
// at tiny scale, and require exit status 0 plus non-empty output. The
// binaries are the repo's user interface; without this, a main() that
// panics on startup ships green.
package cmdtest

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build builds the main package in the current directory and returns
// the binary's path.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "smoke")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Run builds the main package in the current directory, executes it with
// args, and returns its combined output. It fails the test on build
// error, non-zero exit, or empty output.
func Run(t *testing.T, args ...string) string {
	t.Helper()
	return RunIn(t, "", args...)
}

// RunIn is Run with the binary executed in dir ("" = the current
// directory), where its relative paths resolve.
func RunIn(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command(build(t), args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, buf.String())
	}
	out := strings.TrimSpace(buf.String())
	if out == "" {
		t.Fatalf("run %v: produced no output", args)
	}
	return out
}

// Expect runs the binary and additionally requires every want substring
// to appear in the output.
func Expect(t *testing.T, args []string, want ...string) string {
	t.Helper()
	out := Run(t, args...)
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output of %v missing %q; got:\n%s", args, w, out)
		}
	}
	return out
}

// RunError builds and executes the binary expecting a NON-zero exit: the
// flag-validation contract is a one-line error, never a stack trace. It
// fails the test if the binary exits 0, if the output panics, or if any
// want substring is missing from the combined output.
func RunError(t *testing.T, args []string, want ...string) string {
	t.Helper()
	cmd := exec.Command(build(t), args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	out := buf.String()
	if err == nil {
		t.Fatalf("run %v: expected failure, exited 0 with:\n%s", args, out)
	}
	if strings.Contains(out, "goroutine 1 [running]") || strings.Contains(out, "panic:") {
		t.Errorf("run %v: died with a stack trace instead of an error:\n%s", args, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output of %v missing %q; got:\n%s", args, w, out)
		}
	}
	return out
}
