//go:build sbstats

package vm

// SBStatsEnabled is true in builds tagged sbstats: the tier-2 run loop
// counts its dispatches per micro-op kind (see UopMixReport).
const SBStatsEnabled = true
