package core

// ShadowReplay exposes the allocation-only Setup replay of a net daemon
// without the commit rank to the external tests, which can import the
// workloads.
func ShadowReplay(cfg Config, prog Program) { shadowReplay(cfg, prog) }
