// Artifact and run-result codecs for the on-disk store layer
// (internal/store). Compiled artifacts and deterministic run outcomes
// are encoded with encoding/gob behind a version tag; the store's own
// content hash protects the bytes, so the codec only has to be
// self-consistent, not canonical.
//
// Persistence is strictly host-side: a decoded artifact produces
// machines (and therefore tables, counters and faults) byte-identical
// to a freshly compiled one. What cannot be made identical is refused
// at encode time — an attached event trace, a non-Fault run error —
// so the disk layer silently skips those entries and the memory layer
// still serves them for the life of the process.
package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"cash/internal/vm"
)

// persistVersion tags every encoded blob. Decoders reject any other
// value, so a format change after an upgrade degrades to a cache miss
// and a rebuild, never a wrong answer. Version 2 marks the flip of the
// execution default to tier 2 (Options.StepOnly replaced Tier2).
const persistVersion = 2

// persistedOptions mirrors Options minus the fields that cannot or
// must not survive a process: EventTrace is a live pointer into this
// process's observability registry.
type persistedOptions struct {
	SegRegs         int
	SkipReadChecks  bool
	UseBoundInstr   bool
	WithoutCallGate bool
	ElectricFence   bool
	Passes          []string
	StepLimit       uint64
	StepOnly        bool
}

// artifactBlob is the gob payload for one compiled artifact. The AST
// and IR module are deliberately not persisted: machines only need the
// Program, and dropping the front-end trees keeps blobs small. DumpIR
// on a decoded artifact returns "".
type artifactBlob struct {
	Version int
	Mode    string
	Opts    persistedOptions
	Program *vm.Program
}

// EncodeArtifact serialises an artifact for the disk store. ok is
// false — with no error — for artifacts that must stay memory-only
// (currently: an attached event trace).
func EncodeArtifact(a *Artifact) (data []byte, ok bool, err error) {
	if a == nil || a.Program == nil {
		return nil, false, nil
	}
	if a.opts.EventTrace != nil {
		return nil, false, nil
	}
	blob := artifactBlob{
		Version: persistVersion,
		Mode:    string(a.Mode),
		Opts: persistedOptions{
			SegRegs:         a.opts.SegRegs,
			SkipReadChecks:  a.opts.SkipReadChecks,
			UseBoundInstr:   a.opts.UseBoundInstr,
			WithoutCallGate: a.opts.WithoutCallGate,
			ElectricFence:   a.opts.ElectricFence,
			Passes:          a.opts.Passes,
			StepLimit:       a.opts.StepLimit,
			StepOnly:        a.opts.StepOnly,
		},
		Program: a.Program,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&blob); err != nil {
		return nil, false, fmt.Errorf("core: encode artifact: %w", err)
	}
	return buf.Bytes(), true, nil
}

// DecodeArtifact reconstructs an artifact from EncodeArtifact's bytes.
// The checking strategy is re-resolved against this process's registry,
// so a blob naming an unregistered strategy fails (and the caller
// treats the failure as a cache miss).
func DecodeArtifact(data []byte) (*Artifact, error) {
	var blob artifactBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: decode artifact: %w", err)
	}
	if blob.Version != persistVersion {
		return nil, fmt.Errorf("core: artifact blob version %d, want %d", blob.Version, persistVersion)
	}
	if blob.Program == nil {
		return nil, errors.New("core: artifact blob has no program")
	}
	mode := Mode(blob.Mode)
	info, err := mode.resolve()
	if err != nil {
		return nil, err
	}
	return &Artifact{
		Mode:    mode,
		Program: blob.Program,
		vmMode:  info.Mode,
		opts: Options{
			SegRegs:         blob.Opts.SegRegs,
			SkipReadChecks:  blob.Opts.SkipReadChecks,
			UseBoundInstr:   blob.Opts.UseBoundInstr,
			WithoutCallGate: blob.Opts.WithoutCallGate,
			ElectricFence:   blob.Opts.ElectricFence,
			Passes:          blob.Opts.Passes,
			StepLimit:       blob.Opts.StepLimit,
			StepOnly:        blob.Opts.StepOnly,
		},
	}, nil
}

// faultBlob flattens a *vm.Fault. The cause chain is collapsed to its
// rendered text — Fault.Error() only ever appends Cause.Error(), so the
// reconstructed fault formats byte-identically.
type faultBlob struct {
	Kind     vm.FaultKind
	IP       int
	Instr    string
	Cause    string
	HasCause bool
}

func newFaultBlob(f *vm.Fault) *faultBlob {
	if f == nil {
		return nil
	}
	b := &faultBlob{Kind: f.Kind, IP: f.IP, Instr: f.Instr}
	if f.Cause != nil {
		b.Cause = f.Cause.Error()
		b.HasCause = true
	}
	return b
}

func (b *faultBlob) fault() *vm.Fault {
	if b == nil {
		return nil
	}
	f := &vm.Fault{Kind: b.Kind, IP: b.IP, Instr: b.Instr}
	if b.HasCause {
		f.Cause = errors.New(b.Cause)
	}
	return f
}

// runBlob is the gob payload for one deterministic run outcome —
// either a completed result (possibly carrying a violation verdict) or
// a terminal fault.
type runBlob struct {
	Version   int
	HasRes    bool
	Result    *vm.Result
	Violation *faultBlob
	HeapSpan  uint32
	RunErr    *faultBlob
}

// EncodeRunOutcome serialises a run-cache entry: the result and the
// run error exactly as the engine caches them. ok is false for
// outcomes that must not be persisted — a cancellation (FaultCanceled
// reflects the caller's context, not the program) or a run error that
// is not a *vm.Fault and so cannot be reconstructed faithfully.
func EncodeRunOutcome(res *RunResult, runErr error) (data []byte, ok bool) {
	blob := runBlob{Version: persistVersion}
	if runErr != nil {
		f, isFault := runErr.(*vm.Fault)
		if !isFault || f.Kind == vm.FaultCanceled {
			return nil, false
		}
		blob.RunErr = newFaultBlob(f)
	}
	if res != nil {
		blob.HasRes = true
		blob.Result = res.Result
		blob.Violation = newFaultBlob(res.Violation)
		blob.HeapSpan = res.HeapSpan
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&blob); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// DecodeRunOutcome reconstructs EncodeRunOutcome's entry. err is only
// non-nil for undecodable bytes; a decoded entry reproduces the cached
// (res, runErr) pair, including a nil res alongside a fault.
func DecodeRunOutcome(data []byte) (res *RunResult, runErr error, err error) {
	var blob runBlob
	if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); derr != nil {
		return nil, nil, fmt.Errorf("core: decode run outcome: %w", derr)
	}
	if blob.Version != persistVersion {
		return nil, nil, fmt.Errorf("core: run blob version %d, want %d", blob.Version, persistVersion)
	}
	if blob.HasRes {
		res = &RunResult{
			Result:    blob.Result,
			Violation: blob.Violation.fault(),
			HeapSpan:  blob.HeapSpan,
		}
	}
	if blob.RunErr != nil {
		runErr = blob.RunErr.fault()
	}
	return res, runErr, nil
}
