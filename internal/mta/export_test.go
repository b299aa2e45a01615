package mta

// SetMaxExact lowers the exact-path threshold so the external tests can
// drive real kernels down the aggregate path at small sizes.
func SetMaxExact(m *Machine, n int) { m.maxExact = n }
