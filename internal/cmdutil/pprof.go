package cmdutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// RunProfiled is the run step of the commands with -cpuprofile and
// -memprofile flags: it calls run with a context that SIGINT and SIGTERM
// cancel, under a CPU profile written to cpuPath, then writes the heap
// profile to memPath. Both profiles are complete when it returns,
// whether run succeeded, failed or was interrupted, so the caller may
// exit at once on the error it returns: run's, joined with a
// profile's. An empty path skips its profile.
func RunProfiled(cpuPath, memPath string, run func(ctx context.Context) error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopCPU, err := startCPUProfile(cpuPath)
	if err != nil {
		return err
	}
	err = run(ctx)
	stopCPU()
	return errors.Join(err, writeHeapProfile(memPath))
}

// startCPUProfile opens path and starts the Go CPU profiler, returning
// a stop function that stops the profiler and closes the file. An empty
// path is a no-op returning a no-op stop.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile forces a GC (so the profile reflects live objects,
// not garbage awaiting collection) and writes the heap profile to path.
// An empty path is a no-op, mirroring startCPUProfile.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}
