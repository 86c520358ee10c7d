//go:build !sbstats

package vm

// SBStatsEnabled is false in default builds: the dispatch counters of
// the tier-2 run loop compile out. Build with -tags sbstats to count.
const SBStatsEnabled = false
