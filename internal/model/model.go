// Package model implements the paper's analytic cost model (§2): the
// Helman–JáJá SMP complexity triplet
//
//	T(n,p) = ⟨ T_M(n,p) ; T_C(n,p) ; B(n,p) ⟩
//
// where T_M is the maximum number of non-contiguous main-memory accesses
// by any processor, T_C bounds any processor's local computation, and B
// counts barrier synchronizations. The same model applies to the MTA
// with the twist the paper describes: given sufficient parallelism,
// multithreading drives the effective T_M and B to zero and running time
// becomes a function of T_C alone (instructions × cycle time).
//
// The predictions here are asymptotic bounds with small explicit
// constants; the tests validate them against the machine simulators'
// measured counters, which is exactly how the paper uses the model — to
// explain measured behaviour, not to replace measurement.
package model

import "math"

// Triplet is one cost vector of the model.
type Triplet struct {
	TM float64 // non-contiguous memory accesses (max over processors)
	TC float64 // local computation (operations, max over processors)
	B  float64 // barrier synchronizations
}

// Add returns the component-wise sum of two costs.
func (t Triplet) Add(o Triplet) Triplet {
	return Triplet{TM: t.TM + o.TM, TC: t.TC + o.TC, B: t.B + o.B}
}

// Scale returns the cost repeated k times.
func (t Triplet) Scale(k float64) Triplet {
	return Triplet{TM: t.TM * k, TC: t.TC * k, B: t.B * k}
}

func log2(x float64) float64 {
	if x < 2 {
		return 1
	}
	return math.Log2(x)
}

// ListRankSMP is the paper's §3 prediction for Helman–JáJá list ranking
// on an SMP: T(n,p) = ( n/p ; O(n/p) ; O(1) ) for n > p² ln n. Each node
// costs one non-contiguous successor access during the sublist walk; the
// combining pass is contiguous and so contributes only to T_C.
func ListRankSMP(n, p int) Triplet {
	np := float64(n) / float64(p)
	return Triplet{
		TM: np,
		TC: 4 * np, // walk bookkeeping plus the contiguous combining pass
		B:  5,      // one per algorithm phase
	}
}

// ListRankMTA is the §3 prediction for the walk-based MTA code: three
// O(n) parallel traversal steps whose memory costs are hidden by
// multithreading, so cost reduces to instructions. The effective T_M and
// B are zero when parallelism is abundant.
func ListRankMTA(n, p int) Triplet {
	return Triplet{
		TM: 0,
		TC: 8 * float64(n) / float64(p), // ~2 refs + ~2 ops per node, twice over the list
		B:  0,
	}
}

// SVIter is the §4 per-iteration cost of Shiloach–Vishkin on an SMP:
// the graft step reads D[j] and D[D[i]] per edge (two non-contiguous
// accesses), grafting writes one more, and the shortcut step performs
// pointer jumping over the vertices.
func SVIter(n, m, p int) Triplet {
	mp := float64(m) / float64(p)
	np := float64(n) / float64(p)
	return Triplet{
		TM: float64(3*mp) + 1 + float64(np*log2(float64(n))),
		TC: (float64(float64(n)*log2(float64(n))) + float64(n+m)) / float64(p),
		B:  4,
	}
}

// SVSMP is the paper's worst-case total for SV on an SMP: log n
// iterations of SVIter,
//
//	T(n,p) ≤ ( (3m/p+1)·log n + (n log²n)/p ; O((n log n + m)·log n/p) ; 4 log n ).
func SVSMP(n, m, p int) Triplet {
	return SVIter(n, m, p).Scale(log2(float64(n)))
}

// SVMTA is the §4 prediction for Alg. 3 on the MTA: the same O(log n)
// iterations, but memory latency is hidden, so only instruction counts
// remain; the paper notes the O(log² n) bound is not tight because the
// full shortcut usually converges in a few iterations.
func SVMTA(n, m, p, iters int) Triplet {
	if iters < 1 {
		iters = 1
	}
	perIter := (float64(10*2*float64(m)) + float64(6*float64(n))) / float64(p)
	return Triplet{TM: 0, TC: perIter * float64(iters), B: 2 * float64(iters)}
}

// ColoringSMPRound is the per-round cost of speculative greedy coloring
// on an SMP (Gebremedhin–Manne rounds, Çatalyürek et al.'s study), for
// a round whose worklist still spans the whole graph: the assign and
// detect passes each read the color of every neighbor — one
// non-contiguous access per directed edge — plus a worklist entry per
// vertex, and the round ends with assign/detect/requeue barriers.
func ColoringSMPRound(n, m, p int) Triplet {
	mp := float64(m) / float64(p)
	np := float64(n) / float64(p)
	return Triplet{
		TM: 2 * (2*mp + np),
		TC: 2 * (float64(4*mp) + float64(4*np)),
		B:  3,
	}
}

// ColoringSMP is the worst-case total for a run that takes the given
// number of rounds: every round rescans at most the full graph (real
// worklists shrink, so measurements land well under this bound — the
// same relationship SVSMP has to its log n iterations).
func ColoringSMP(n, m, p, rounds int) Triplet {
	if rounds < 1 {
		rounds = 1
	}
	return ColoringSMPRound(n, m, p).Scale(float64(rounds))
}

// ColoringMTA predicts the MTA run from the measured work: touched is
// the total number of worklist entries processed across all rounds (n
// plus every requeued conflict, i.e. n + Stats.TotalConflicts()).
// Memory latency is hidden, so cost reduces to the instruction count of
// the neighbor scans — ~8 slots per directed-edge visit plus ~8 per
// worklist entry, prorated by the touched fraction — and the effective
// T_M and B are zero given abundant parallelism.
func ColoringMTA(n, m, p, touched int) Triplet {
	if touched < n {
		touched = n
	}
	frac := float64(touched) / float64(n)
	return Triplet{
		TM: 0,
		TC: frac * (float64(8*2*float64(m)) + float64(8*float64(n))) / float64(p),
		B:  0,
	}
}

// SMPSeconds converts a triplet to rough seconds on an SMP-like machine:
// every non-contiguous access pays memLatency cycles, computation is one
// op per cycle, and each barrier costs barrierCy.
func SMPSeconds(t Triplet, clockMHz, memLatencyCy, barrierCy float64) float64 {
	cycles := float64(t.TM*memLatencyCy) + t.TC + float64(t.B*barrierCy)
	return cycles / (clockMHz * 1e6)
}

// MTASeconds converts a triplet to rough seconds on an MTA-like machine:
// with T_M and B suppressed by multithreading, time is instructions at
// one per cycle per processor.
func MTASeconds(t Triplet, clockMHz float64) float64 {
	return t.TC / (clockMHz * 1e6)
}
