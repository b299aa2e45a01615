package sim

// CostSchemaVersion identifies the cost semantics of the simulation
// stack — this package's fluid region simulator plus the machine
// models in internal/mta and internal/smp. It is folded into
// every memoized sweep-cell result key (internal/sweep.ResultKey), so
// bumping it is the single action that invalidates all cached results.
//
// Bump rule: increment this constant whenever a change alters the
// numbers a simulation produces — cycle costs, latency or contention
// formulas, scheduling order, sampling semantics, or the set/meaning of
// recorded trace attributes. Pure refactors that leave every simulated
// output bit-identical (such as allocation or data-structure changes in
// the region heap) must NOT bump it: stale warm caches are only a hazard
// when the cold result would differ.
const CostSchemaVersion = 1
