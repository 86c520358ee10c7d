// Artifact and run-result codecs for the on-disk store layer
// (internal/store). Compiled artifacts and deterministic run outcomes
// are written in a small hand-written binary format: a tag byte, the
// uvarint persistVersion, then the fields in a fixed order. Integers are
// uvarints or zigzag varints, strings and byte runs are length-prefixed,
// and every slice or map length is written as n+1 so that 0 can mean
// nil: a decoded value is exactly the one that was encoded, nil and
// empty included. Map keys are written sorted, so one artifact always
// encodes to the same bytes. The initial data image, mostly zeros, is
// written as its length and its maximal runs of nonzero bytes.
//
// The format is canonical: the decoder accepts only what the encoder
// writes (minimal varints, defined flag bits, strictly sorted keys,
// maximal data runs, no trailing bytes), so any blob that decodes
// re-encodes to the same bytes. Every count and length is checked
// against the input that remains — or, for the data image, against
// maxDataImage — before anything is allocated, so a hostile blob costs
// an error, never a panic or an unbounded allocation. The store's own
// content hash protects the bytes at rest; the disk layer treats a
// decode error as a miss and removes the entry.
//
// Persistence is strictly host-side: a decoded artifact produces
// machines (and therefore tables, counters and faults) byte-identical
// to a freshly compiled one. What cannot be made identical is refused
// at encode time — an attached event trace, a non-Fault run error, an
// operand field its Kind does not use, a value the format cannot hold —
// so the disk layer silently skips those entries and the memory layer
// still serves them for the life of the process.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"cash/internal/ldt"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// persistVersion tags every encoded blob. Decoders reject any other
// value, so a format change after an upgrade degrades to a cache miss
// and a rebuild, never a wrong answer. Version 2 marked the flip of the
// execution default to tier 2 (Options.StepOnly replaced Tier2);
// version 3 replaced gob with the codec in this file.
const persistVersion = 3

// Blob tags: the first byte of every encoded artifact and run outcome.
const (
	tagArtifact = 'A'
	tagRun      = 'R'
)

// maxDataImage caps a program's initial data image. It bounds the one
// allocation a blob sizes by a declared length rather than by its own
// remaining bytes; the largest image any workload compiles to is far
// below it.
const maxDataImage = 1 << 24

// minInstrBytes is the smallest encoded instruction: op, kinds, size,
// note, and one byte each for an empty target, symbol and label.
const minInstrBytes = 7

// Options flag bits.
const (
	optSkipReadChecks = 1 << iota
	optUseBoundInstr
	optWithoutCallGate
	optElectricFence
	optStepOnly
	optAll = 1<<iota - 1
)

// MemRef flag bits.
const (
	memHasBase = 1 << iota
	memHasIndex
	memAll = 1<<iota - 1
)

// Run outcome flag bits. The two result-part bits are set only with
// runHasRes.
const (
	runHasRes = 1 << iota
	runHasResult
	runHasViolation
	runHasErr
	runAll = 1<<iota - 1
)

// errUnpersistable aborts an encode whose input the format refuses.
var errUnpersistable = errors.New("core: value cannot be persisted")

// EncodeArtifact serialises an artifact for the disk store. ok is
// false — with no error — for artifacts that must stay memory-only: an
// attached event trace, an oracle build (Options.Oracle), or a program
// the format cannot hold exactly.
// The AST and IR module are deliberately not persisted: machines only
// need the Program, so DumpIR on a decoded artifact returns "".
func EncodeArtifact(a *Artifact) (data []byte, ok bool, err error) {
	if a == nil || a.Program == nil || a.opts.EventTrace != nil || a.opts.Oracle {
		return nil, false, nil
	}
	e := &encoder{buf: make([]byte, 0, 256+12*len(a.Program.Instrs))}
	e.byte(tagArtifact)
	e.uint(persistVersion)
	e.str(string(a.Mode))
	e.options(&a.opts)
	if e.program(a.Program) != nil {
		return nil, false, nil
	}
	return e.buf, true, nil
}

// DecodeArtifact reconstructs an artifact from EncodeArtifact's bytes.
// The checking strategy is re-resolved against this process's registry,
// so a blob naming an unregistered strategy fails (and the caller
// treats the failure as a cache miss).
func DecodeArtifact(data []byte) (*Artifact, error) {
	d := &decoder{data: data}
	d.header(tagArtifact)
	mode := Mode(d.str())
	opts := d.options()
	prog := d.program()
	if err := d.finish("artifact"); err != nil {
		return nil, err
	}
	info, err := mode.resolve()
	if err != nil {
		return nil, err
	}
	return &Artifact{Mode: mode, Program: prog, vmMode: info.Mode, opts: opts}, nil
}

// EncodeRunOutcome serialises a run-cache entry: the result and the
// run error exactly as the engine caches them. ok is false for
// outcomes that must not be persisted — a cancellation (FaultCanceled
// reflects the caller's context, not the program) or a run error that
// is not a *vm.Fault and so cannot be reconstructed faithfully.
func EncodeRunOutcome(res *RunResult, runErr error) (data []byte, ok bool) {
	var fault *vm.Fault
	if runErr != nil {
		f, isFault := runErr.(*vm.Fault)
		if !isFault || f.Kind == vm.FaultCanceled {
			return nil, false
		}
		fault = f
	}
	flags := bit(fault != nil, runHasErr)
	if res != nil {
		flags |= runHasRes | bit(res.Result != nil, runHasResult) | bit(res.Violation != nil, runHasViolation)
	}
	e := &encoder{buf: make([]byte, 0, 160)}
	e.byte(tagRun)
	e.uint(persistVersion)
	e.byte(flags)
	if res != nil {
		if res.Result != nil {
			e.result(res.Result)
		}
		if res.Violation != nil {
			e.fault(res.Violation)
		}
		e.uint(uint64(res.HeapSpan))
	}
	if fault != nil {
		e.fault(fault)
	}
	return e.buf, true
}

// DecodeRunOutcome reconstructs EncodeRunOutcome's entry. err is only
// non-nil for undecodable bytes; a decoded entry reproduces the cached
// (res, runErr) pair, including a nil res alongside a fault. A fault's
// cause chain comes back as its rendered text — Fault.Error() only ever
// appends Cause.Error(), so the fault formats byte-identically.
func DecodeRunOutcome(data []byte) (res *RunResult, runErr error, err error) {
	d := &decoder{data: data}
	d.header(tagRun)
	flags := d.flags(runAll)
	if flags&runHasRes == 0 && flags&(runHasResult|runHasViolation) != 0 {
		d.fail("result parts without a result")
	}
	if flags&runHasRes != 0 {
		res = &RunResult{}
		if flags&runHasResult != 0 {
			res.Result = d.result()
		}
		if flags&runHasViolation != 0 {
			res.Violation = d.fault()
		}
		res.HeapSpan = d.u32()
	}
	if flags&runHasErr != 0 {
		f := d.fault()
		if f.Kind == vm.FaultCanceled {
			d.fail("canceled outcome") // EncodeRunOutcome never writes one
		}
		runErr = f
	}
	if err := d.finish("run outcome"); err != nil {
		return nil, nil, err
	}
	return res, runErr, nil
}

// encoder appends the format's primitives to buf.
type encoder struct {
	buf []byte
}

func (e *encoder) byte(b byte)   { e.buf = append(e.buf, b) }
func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) int(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) bool(b bool) { e.byte(bit(b, 1)) }

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// count writes a slice or map length with nil distinct from empty.
func (e *encoder) count(n int, isNil bool) {
	if isNil {
		e.uint(0)
	} else {
		e.uint(uint64(n) + 1)
	}
}

func (e *encoder) strs(s []string) {
	e.count(len(s), s == nil)
	for _, v := range s {
		e.str(v)
	}
}

func (e *encoder) options(o *Options) {
	e.int(int64(o.SegRegs))
	e.byte(bit(o.SkipReadChecks, optSkipReadChecks) | bit(o.UseBoundInstr, optUseBoundInstr) |
		bit(o.WithoutCallGate, optWithoutCallGate) | bit(o.ElectricFence, optElectricFence) |
		bit(o.StepOnly, optStepOnly))
	e.strs(o.Passes)
	e.uint(o.StepLimit)
}

func (e *encoder) program(p *vm.Program) error {
	e.str(p.Name)
	e.count(len(p.Instrs), p.Instrs == nil)
	for i := range p.Instrs {
		if err := e.instr(&p.Instrs[i]); err != nil {
			return err
		}
	}
	e.int(int64(p.Entry))
	e.count(len(p.Funcs), p.Funcs == nil)
	for _, k := range sortedKeys(p.Funcs) {
		e.str(k)
		e.int(int64(p.Funcs[k]))
	}
	if err := e.data(p.Data); err != nil {
		return err
	}
	e.uint(uint64(p.DataBase))
	e.uint(uint64(p.HeapBase))
	e.uint(uint64(p.StackTop))
	e.str(p.Mode)
	e.count(len(p.Stats), p.Stats == nil)
	for _, k := range sortedKeys(p.Stats) {
		e.str(k)
		e.uint(p.Stats[k])
	}
	e.count(len(p.Regions), p.Regions == nil)
	for _, r := range p.Regions {
		e.int(int64(r.Start))
		e.int(int64(r.End))
		e.str(r.Name)
	}
	return nil
}

func (e *encoder) instr(in *vm.Instr) error {
	e.byte(byte(in.Op))
	e.byte(byte(in.Dst.Kind) | byte(in.Src.Kind)<<4)
	e.byte(in.Size)
	e.byte(byte(in.Note))
	e.int(int64(in.Target))
	e.str(in.Sym)
	e.str(in.Label)
	if err := e.operand(&in.Dst); err != nil {
		return err
	}
	return e.operand(&in.Src)
}

// operand writes only the fields o.Kind uses, and refuses an operand
// carrying anything else — or of an unknown Kind: dropping it would
// change the program.
func (e *encoder) operand(o *vm.Operand) error {
	var used vm.Operand
	switch o.Kind {
	case vm.KindNone:
		used = vm.Operand{}
	case vm.KindReg:
		if o.Reg >= vm.NumRegs {
			return errUnpersistable
		}
		e.byte(byte(o.Reg))
		used = vm.R(o.Reg)
	case vm.KindImm:
		e.int(int64(o.Imm))
		used = vm.I(o.Imm)
	case vm.KindSReg:
		if !validSeg(o.SReg) {
			return errUnpersistable
		}
		e.byte(byte(o.SReg))
		used = vm.SR(o.SReg)
	case vm.KindMem:
		m := &o.Mem
		if !validSeg(m.Seg) || m.Base >= vm.NumRegs || m.Index >= vm.NumRegs {
			return errUnpersistable
		}
		e.byte(byte(m.Seg))
		e.byte(byte(m.Base))
		e.byte(byte(m.Index))
		e.byte(bit(m.HasBase, memHasBase) | bit(m.HasIndex, memHasIndex))
		e.byte(m.Scale)
		e.int(int64(m.Disp))
		used = vm.M(*m)
	}
	if *o != used {
		return errUnpersistable
	}
	return nil
}

// data writes the data image as its length and its maximal runs of
// nonzero bytes, each as (gap since the previous run's end, length,
// bytes).
func (e *encoder) data(b []byte) error {
	if len(b) > maxDataImage {
		return errUnpersistable
	}
	e.count(len(b), b == nil)
	if b == nil {
		return nil
	}
	var runs [][2]int // [start, end) of each nonzero run
	for i := skipZeros(b, 0); i < len(b); i = skipZeros(b, i) {
		j := len(b)
		if k := bytes.IndexByte(b[i:], 0); k >= 0 {
			j = i + k
		}
		runs = append(runs, [2]int{i, j})
		i = j
	}
	e.uint(uint64(len(runs)))
	end := 0
	for _, r := range runs {
		e.uint(uint64(r[0] - end))
		e.uint(uint64(r[1] - r[0]))
		e.buf = append(e.buf, b[r[0]:r[1]]...)
		end = r[1]
	}
	return nil
}

// skipZeros returns the index of the first nonzero byte of b at or
// after i, or len(b). Data images are almost all zeros, so it steps a
// word at a time.
func skipZeros(b []byte, i int) int {
	for i+8 <= len(b) && binary.LittleEndian.Uint64(b[i:]) == 0 {
		i += 8
	}
	for i < len(b) && b[i] == 0 {
		i++
	}
	return i
}

func (e *encoder) result(r *vm.Result) {
	e.uint(r.Cycles)
	e.int(int64(r.ExitCode))
	e.count(len(r.Output), r.Output == nil)
	for _, v := range r.Output {
		e.int(int64(v))
	}
	for _, p := range vmStatsFields(&r.Stats) {
		e.uint(*p)
	}
	for _, p := range ldtStatsFields(&r.LDTStats) {
		e.uint(*p)
	}
	e.int(int64(r.LDTStats.PeakLive))
	e.bool(r.SB != nil)
	if r.SB != nil {
		for _, p := range sbStatsFields(r.SB) {
			e.uint(*p)
		}
	}
}

func (e *encoder) fault(f *vm.Fault) {
	e.int(int64(f.Kind))
	e.int(int64(f.IP))
	e.str(f.Instr)
	e.bool(f.Cause != nil)
	if f.Cause != nil {
		e.str(f.Cause.Error())
	}
}

// decoder consumes the format's primitives from data. The first error
// sticks: later reads return zero values and consume nothing, so
// callers check once, at finish.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

// finish reports the sticky error or leftover input.
func (d *decoder) finish(what string) error {
	if d.err == nil && len(d.data) != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return fmt.Errorf("core: decode %s: %w", what, d.err)
	}
	return nil
}

func (d *decoder) header(tag byte) {
	if d.byte() != tag {
		d.fail("not a cash blob of this kind")
		return
	}
	if v := d.uint(); d.err == nil && v != persistVersion {
		d.fail(fmt.Sprintf("blob version %d, want %d", v, persistVersion))
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail("truncated")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// uint reads a minimally encoded uvarint.
func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("truncated or oversized varint")
		return 0
	}
	if n > 1 && d.data[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// int reads a zigzag varint, as binary.AppendVarint writes it.
func (d *decoder) int() int64 {
	u := d.uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) intN() int {
	v := d.int()
	if v < math.MinInt || v > math.MaxInt {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

func (d *decoder) i32() int32 {
	v := d.int()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("integer out of range")
		return 0
	}
	return int32(v)
}

func (d *decoder) u32() uint32 {
	v := d.uint()
	if v > math.MaxUint32 {
		d.fail("integer out of range")
		return 0
	}
	return uint32(v)
}

func (d *decoder) bool() bool {
	return d.flags(1) != 0
}

// flags reads a byte whose set bits must all lie in mask.
func (d *decoder) flags(mask byte) byte {
	b := d.byte()
	if b&^mask != 0 {
		d.fail("unknown flag bits")
		return 0
	}
	return b
}

// take returns the next n bytes, which must all be present.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)) {
		d.fail("length exceeds input")
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *decoder) str() string {
	return string(d.take(d.uint()))
}

// count reads a length written by encoder.count. The n elements, each
// at least minBytes long, must fit in the remaining input, so the
// caller may allocate n of them.
func (d *decoder) count(minBytes int) (n int, isNil bool) {
	c := d.uint()
	if d.err != nil || c == 0 {
		return 0, d.err == nil
	}
	if c-1 > uint64(len(d.data)/minBytes) {
		d.fail("count exceeds input")
		return 0, false
	}
	return int(c - 1), false
}

func (d *decoder) strs() []string {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	s := make([]string, n)
	for i := range s {
		s[i] = d.str()
	}
	return s
}

func (d *decoder) options() Options {
	var o Options
	o.SegRegs = d.intN()
	flags := d.flags(optAll)
	o.SkipReadChecks = flags&optSkipReadChecks != 0
	o.UseBoundInstr = flags&optUseBoundInstr != 0
	o.WithoutCallGate = flags&optWithoutCallGate != 0
	o.ElectricFence = flags&optElectricFence != 0
	o.StepOnly = flags&optStepOnly != 0
	o.Passes = d.strs()
	o.StepLimit = d.uint()
	return o
}

func (d *decoder) program() *vm.Program {
	p := &vm.Program{Name: d.str()}
	if n, isNil := d.count(minInstrBytes); !isNil {
		p.Instrs = make([]vm.Instr, n)
		for i := range p.Instrs {
			d.instr(&p.Instrs[i])
		}
	}
	p.Entry = d.intN()
	if n, isNil := d.count(2); !isNil {
		p.Funcs = make(map[string]int, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.key(i, prev)
			p.Funcs[k] = d.intN()
			prev = k
		}
	}
	p.Data = d.dataImage()
	p.DataBase = d.u32()
	p.HeapBase = d.u32()
	p.StackTop = d.u32()
	p.Mode = d.str()
	if n, isNil := d.count(2); !isNil {
		p.Stats = make(map[string]uint64, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.key(i, prev)
			p.Stats[k] = d.uint()
			prev = k
		}
	}
	if n, isNil := d.count(3); !isNil {
		p.Regions = make([]vm.Region, n)
		for i := range p.Regions {
			r := &p.Regions[i]
			r.Start = d.intN()
			r.End = d.intN()
			r.Name = d.str()
		}
	}
	return p
}

// key reads the i-th map key, which must sort strictly after prev.
func (d *decoder) key(i int, prev string) string {
	k := d.str()
	if i > 0 && k <= prev {
		d.fail("map keys not strictly sorted")
	}
	return k
}

func (d *decoder) instr(in *vm.Instr) {
	in.Op = vm.Op(d.byte())
	kinds := d.byte()
	in.Size = d.byte()
	in.Note = vm.Note(d.byte())
	in.Target = d.intN()
	in.Sym = d.str()
	in.Label = d.str()
	d.operand(&in.Dst, vm.OperandKind(kinds&0xf))
	d.operand(&in.Src, vm.OperandKind(kinds>>4))
}

func (d *decoder) operand(o *vm.Operand, kind vm.OperandKind) {
	switch kind {
	case vm.KindNone:
	case vm.KindReg:
		*o = vm.R(d.reg())
	case vm.KindImm:
		*o = vm.I(d.i32())
	case vm.KindSReg:
		*o = vm.SR(d.seg())
	case vm.KindMem:
		m := vm.MemRef{Seg: d.seg(), Base: d.reg(), Index: d.reg()}
		flags := d.flags(memAll)
		m.HasBase = flags&memHasBase != 0
		m.HasIndex = flags&memHasIndex != 0
		m.Scale = d.byte()
		m.Disp = d.i32()
		*o = vm.M(m)
	default:
		d.fail("unknown operand kind")
	}
}

func (d *decoder) reg() vm.Reg {
	r := vm.Reg(d.byte())
	if r >= vm.NumRegs {
		d.fail("register out of range")
		return 0
	}
	return r
}

func (d *decoder) seg() x86seg.SegReg {
	s := x86seg.SegReg(d.byte())
	if !validSeg(s) {
		d.fail("segment register out of range")
		return 0
	}
	return s
}

// dataImage reads encoder.data's runs into a zeroed image. The runs
// must be the encoder's: nonempty, separated by at least one zero byte,
// free of zero bytes, and inside the declared length.
func (d *decoder) dataImage() []byte {
	c := d.uint()
	if d.err != nil || c == 0 {
		return nil
	}
	if c-1 > maxDataImage {
		d.fail("data image exceeds cap")
		return nil
	}
	size := c - 1
	runs := d.uint()
	// A run is at least a gap byte, a length byte and one data byte.
	if runs > uint64(len(d.data)/3) {
		d.fail("run count exceeds input")
		return nil
	}
	img := make([]byte, size)
	var end uint64
	for i := uint64(0); i < runs && d.err == nil; i++ {
		gap, n := d.uint(), d.uint()
		switch {
		case i > 0 && gap == 0, n == 0:
			d.fail("data runs not maximal")
		case gap > size-end || n > size-end-gap:
			d.fail("data run outside the image")
		}
		src := d.take(n)
		if d.err != nil {
			break
		}
		if bytes.IndexByte(src, 0) >= 0 {
			d.fail("zero byte inside a data run")
			break
		}
		end += gap
		copy(img[end:], src)
		end += n
	}
	return img
}

func (d *decoder) result() *vm.Result {
	r := &vm.Result{Cycles: d.uint(), ExitCode: d.i32()}
	if n, isNil := d.count(1); !isNil {
		r.Output = make([]int32, n)
		for i := range r.Output {
			r.Output[i] = d.i32()
		}
	}
	for _, p := range vmStatsFields(&r.Stats) {
		*p = d.uint()
	}
	for _, p := range ldtStatsFields(&r.LDTStats) {
		*p = d.uint()
	}
	r.LDTStats.PeakLive = d.intN()
	if d.bool() {
		r.SB = &vm.SBStats{}
		for _, p := range sbStatsFields(r.SB) {
			*p = d.uint()
		}
	}
	return r
}

func (d *decoder) fault() *vm.Fault {
	f := &vm.Fault{Kind: vm.FaultKind(d.intN()), IP: d.intN(), Instr: d.str()}
	if d.bool() {
		f.Cause = errors.New(d.str())
	}
	return f
}

// The *Fields helpers list a counter struct's uint64 fields in format
// order; encoder and decoder share them, so the two cannot drift.
func vmStatsFields(s *vm.Stats) []*uint64 {
	return []*uint64{
		&s.Instructions, &s.HWChecks, &s.SWChecks, &s.BoundInstrs,
		&s.BndChecks, &s.BndLoads, &s.BndStores, &s.SegRegLoads,
		&s.MallocCalls, &s.PageWalks, &s.LoopIters, &s.SpilledIters,
		&s.FlatFallbacks,
	}
}

func ldtStatsFields(s *ldt.Stats) []*uint64 {
	return []*uint64{&s.AllocRequests, &s.CacheHits, &s.KernelCalls, &s.Frees}
}

func sbStatsFields(s *vm.SBStats) []*uint64 {
	return []*uint64{&s.Compiled, &s.Entries, &s.Deopts, &s.InstrsRetired}
}

// bit returns mask when on is set, else 0.
func bit(on bool, mask byte) byte {
	if on {
		return mask
	}
	return 0
}

func validSeg(s x86seg.SegReg) bool { return s >= 0 && s < x86seg.NumSegRegs }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
