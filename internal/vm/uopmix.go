package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// uopMix is one machine's tier-2 dispatch mix: switch passes per
// micro-op kind (a superop whose fast path refuses counts once as itself
// and once as its original kind), and superop fast paths taken. Only
// builds tagged sbstats fill it; elsewhere every use is compiled out.
type uopMix struct {
	dispatched [numUKinds]uint64
	fired      [numUKinds]uint64
}

// mixTotal accumulates every finished run's mix.
var mixTotal struct {
	sync.Mutex
	uopMix
}

// uopMix returns the machine's mix counters, allocating them on first
// use.
func (m *Machine) uopMix() *uopMix {
	if m.mix == nil {
		m.mix = new(uopMix)
	}
	return m.mix
}

// publishMix folds the machine's counts into the process total and
// clears them.
func (m *Machine) publishMix() {
	if m.mix == nil {
		return
	}
	mixTotal.Lock()
	for i := range m.mix.dispatched {
		mixTotal.dispatched[i] += m.mix.dispatched[i]
		mixTotal.fired[i] += m.mix.fired[i]
	}
	mixTotal.Unlock()
	*m.mix = uopMix{}
}

// UopMix is the process-wide tier-2 dispatch mix (all zero unless the
// build is tagged sbstats).
type UopMix struct {
	Dispatched map[string]uint64 // switch passes per micro-op kind, every kind listed
	Fired      map[string]uint64 // fast paths taken per superop, every superop listed
	Total      uint64            // all switch passes
}

// ReadUopMix returns the dispatch mix of every run finished so far.
func ReadUopMix() UopMix {
	mixTotal.Lock()
	defer mixTotal.Unlock()
	x := UopMix{Dispatched: map[string]uint64{}, Fired: map[string]uint64{}}
	for kind, c := range mixTotal.dispatched {
		x.Dispatched[uopNames[kind]] = c
		x.Total += c
		if isSuperop(uint8(kind)) {
			x.Fired[uopNames[kind]] = mixTotal.fired[kind]
		}
	}
	return x
}

// String renders the mix, most frequent kind first, then the superops'
// fast-path counts.
func (x UopMix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tier-2 dispatches: %d\n", x.Total)
	write := func(counts map[string]uint64, pct func(uint64) string) {
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if counts[names[i]] != counts[names[j]] {
				return counts[names[i]] > counts[names[j]]
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			fmt.Fprintf(&b, "  %-28s %12d%s\n", name, counts[name], pct(counts[name]))
		}
	}
	write(x.Dispatched, func(c uint64) string {
		return fmt.Sprintf("  %5.1f%%", 100*float64(c)/float64(max(x.Total, 1)))
	})
	fmt.Fprintf(&b, "superop fast paths:\n")
	write(x.Fired, func(uint64) string { return "" })
	return b.String()
}
