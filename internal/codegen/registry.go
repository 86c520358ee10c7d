package codegen

import (
	"fmt"
	"strings"

	"cash/internal/vm"
)

// Named-strategy registry. Checking strategies used to be a closed
// three-value mode enum; they are now registered by name so callers
// (internal/core, the CLIs, the bench matrix) can enumerate and select
// them without a mode switch. Each entry binds a public name to the
// vm.Mode its programs run under and the lowering implementation.

// StrategyKind classifies how a checking strategy enforces bounds.
type StrategyKind string

// Strategy kinds.
const (
	// KindLowering strategies work purely by code lowering: either no
	// checks at all or software compare-and-branch sequences.
	KindLowering StrategyKind = "lowering"
	// KindHardware strategies rely on modeled checking hardware:
	// segment-limit checks or MPX bounds registers and tables.
	KindHardware StrategyKind = "hardware-modeled"
)

// StrategyInfo describes one registered checking strategy.
type StrategyInfo struct {
	// Name is the public strategy name ("gcc", "bcc", "cash", "mpx").
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// Kind tells whether checking happens in lowered code or in modeled
	// hardware.
	Kind StrategyKind
	// Mode is the vm execution mode programs built with this strategy
	// run under.
	Mode vm.Mode
	// UsesSegRegs tells whether the strategy allocates segment
	// registers to arrays, so that the segment-register budget (§3.7)
	// shapes its programs. Builds under any other strategy ignore the
	// budget and compile with the default one.
	UsesSegRegs bool
}

type registeredStrategy struct {
	info StrategyInfo
	impl strategy
}

// stratRegistry holds the registered strategies in registration order.
var stratRegistry []registeredStrategy

// strategies maps each vm mode to its lowering strategy, maintained by
// registerStrategy. Absence makes a mode invalid at Config validation.
var strategies = map[vm.Mode]strategy{}

// registerStrategy adds a strategy to the registry. Registering a
// duplicate name is a programming error and panics.
func registerStrategy(info StrategyInfo, impl strategy) {
	for _, r := range stratRegistry {
		if r.info.Name == info.Name {
			panic(fmt.Sprintf("codegen: duplicate strategy registration %q", info.Name))
		}
	}
	stratRegistry = append(stratRegistry, registeredStrategy{info: info, impl: impl})
	strategies[info.Mode] = impl
}

func init() {
	registerStrategy(StrategyInfo{
		Name:        "gcc",
		Description: "unchecked baseline: thin pointers, no bound checks",
		Kind:        KindLowering,
		Mode:        vm.ModeGCC,
	}, gccStrategy{})
	registerStrategy(StrategyInfo{
		Name:        "bcc",
		Description: "software bound checking: 3-word fat pointers, 6-instruction check per reference",
		Kind:        KindLowering,
		Mode:        vm.ModeBCC,
	}, bccStrategy{})
	registerStrategy(StrategyInfo{
		Name:        "cash",
		Description: "segmentation-hardware checking: 2-word pointers, one x86 segment per array",
		Kind:        KindHardware,
		Mode:        vm.ModeCash,
		UsesSegRegs: true,
	}, cashStrategy{})
	registerStrategy(StrategyInfo{
		Name:        "mpx",
		Description: "MPX-style checking: thin pointers, bndcl/bndcu checks, shadow bounds table",
		Kind:        KindHardware,
		Mode:        vm.ModeMPX,
	}, mpxStrategy{})
}

// Strategies returns every registered checking strategy in registration
// order.
func Strategies() []StrategyInfo {
	out := make([]StrategyInfo, len(stratRegistry))
	for i, r := range stratRegistry {
		out[i] = r.info
	}
	return out
}

// StrategyNames returns the registered strategy names in registration
// order.
func StrategyNames() []string {
	names := make([]string, len(stratRegistry))
	for i, r := range stratRegistry {
		names[i] = r.info.Name
	}
	return names
}

// StrategyByName looks a strategy up by its registered name.
func StrategyByName(name string) (StrategyInfo, bool) {
	for _, r := range stratRegistry {
		if r.info.Name == name {
			return r.info, true
		}
	}
	return StrategyInfo{}, false
}

// UnknownStrategyError builds the error for an unregistered strategy
// name, listing the valid names.
func UnknownStrategyError(name string) error {
	return fmt.Errorf("codegen: unknown strategy %q (valid: %s)", name, strings.Join(StrategyNames(), ", "))
}
