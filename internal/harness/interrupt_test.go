package harness

import (
	"context"
	"errors"
	"testing"

	"pargraph/internal/list"
)

// TestCancelledEnvReturnsError runs every sweep entry point under an
// already-cancelled Interrupt. Each must return the cancellation as its
// error, as a run interrupted by a signal or a cancelled served job
// does, and must not panic.
func TestCancelledEnvReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := &Env{Interrupt: ctx}
	drop := func(_ any, err error) error { return err }
	cases := []struct {
		name string
		run  func() error
	}{
		{"RunFig1", func() error { return drop(e.RunFig1(DefaultFig1(Small))) }},
		{"RunFig2", func() error { return drop(e.RunFig2(DefaultFig2(Small))) }},
		{"RunTable1", func() error { return drop(e.RunTable1(DefaultTable1(Small))) }},
		{"RunSaturation", func() error { return drop(e.RunSaturation([]int{1, 2}, []int{100}, 1)) }},
		{"RunStreams", func() error { return drop(e.RunStreams(1<<12, 1, []int{1, 8}, 1)) }},
		{"RunTreeEval", func() error { return drop(e.RunTreeEval([]int{1 << 8}, 2, 1)) }},
		{"RunColoring", func() error { return drop(e.RunColoring(DefaultColoring(Small))) }},
		{"RunProfile", func() error {
			return drop(e.RunProfile(ProfileParams{Kernel: "fig1", Machine: "both", N: 1 << 10, Procs: 2, Layout: list.Random, Seed: 1}))
		}},
		{"RunCell", func() error { return e.RunCell(func(*Cell) error { return nil }) }},
		{"RunAblScheduling", func() error { return drop(e.RunAblScheduling(1<<12, 1, 1)) }},
		{"RunAblHashing", func() error { return drop(e.RunAblHashing(1<<12, 1)) }},
		{"RunAblSublists", func() error { return drop(e.RunAblSublists(1<<12, 1, []int{1, 8}, 1)) }},
		{"RunAblShortcut", func() error { return drop(e.RunAblShortcut(1<<8, 4, 1, 1)) }},
		{"RunAblCache", func() error { return drop(e.RunAblCache(1<<12, 1, []int{1, 4}, 1)) }},
		{"RunAblAssociativity", func() error { return drop(e.RunAblAssociativity(1<<12, 1, []int{1, 2}, 1)) }},
		{"RunAblReduction", func() error { return drop(e.RunAblReduction(1<<12, 1)) }},
		{"RunAblColoringSched", func() error { return drop(e.RunAblColoringSched(8, 4, 1, 1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := tc.run(); !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		})
	}
}
