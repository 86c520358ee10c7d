// Artifact and run-result codecs for the on-disk store layer
// (internal/store). Compiled artifacts and deterministic run outcomes
// are written in a small hand-written binary format: a tag byte, the
// uvarint persistVersion, then the fields in a fixed order. Integers are
// uvarints or zigzag varints, strings and byte runs are length-prefixed,
// and every slice or map length is written as n+1 so that 0 can mean
// nil: a decoded value is exactly the one that was encoded, nil and
// empty included. Map keys are written sorted, so one artifact always
// encodes to the same bytes. The initial data image, mostly zeros, is
// written as its length and its maximal runs of nonzero bytes — the
// runs vm.Program.Data holds.
//
// The format is canonical: the decoder accepts only what the encoder
// writes (minimal varints, defined flag bits, strictly sorted keys,
// maximal data runs, build options as NormalizeOptions spells them, no
// trailing bytes), so any blob that decodes re-encodes to the same
// bytes. Every count and length is checked against the input that
// remains — or, for the data image, against maxDataImage — before
// anything is allocated, so a hostile blob costs an error, never a
// panic or an unbounded allocation. The store's checksum protects the
// bytes at rest; the serving cache's disk tier treats a decode error
// as a miss and removes the entry.
//
// Decoding is one pass and copies the blob once: DecodeArtifact turns
// it into one string, of which every decoded name, symbol and label is
// a substring. The artifact keeps and aliases its input — its data
// runs are slices of it, and its run key hashes the program's bytes
// there on first use — so a caller must not modify a blob it has
// decoded.
//
// Persistence is strictly host-side: a decoded artifact produces
// machines (and therefore tables, counters and faults) byte-identical
// to a freshly compiled one. What cannot be made identical is refused
// at encode time — a non-Fault run error, an operand field its Kind
// does not use, a value the format cannot hold — so the serving cache's
// disk tier silently skips those entries and its memory tier still
// serves them for the life of the process.
package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"cash/internal/codegen"
	"cash/internal/ldt"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// persistVersion tags every encoded blob. Decoders reject any other
// value, so a format change after an upgrade degrades to a cache miss
// and a rebuild, never a wrong answer. Version 2 marked the flip of the
// execution default to tier 2 (Options.StepOnly replaced Tier2);
// version 3 replaced gob with the codec in this file; version 4 added
// Program.Globals; version 5 keeps only the build options and adds the
// oracle's site table after the program; version 6 drops the tier-2
// region hints (tier 2 finds a program's loops in its code) and the
// program's copy of the artifact's mode.
const persistVersion = 6

// Blob tags: the first byte of every encoded artifact and run outcome.
const (
	tagArtifact = 'A'
	tagRun      = 'R'
)

// maxDataImage caps a program's initial data image at the cap codegen
// compiles to. It bounds the one allocation a blob sizes by a declared
// length rather than by its own remaining bytes.
const maxDataImage = codegen.MaxDataImage

// minInstrBytes is the smallest encoded instruction: op, kinds, size,
// note, and one byte each for an empty target, symbol and label.
const minInstrBytes = 7

// minSiteBytes is the smallest encoded site: instruction index, kind,
// offset, size, frame flag, register and subtracted register.
const minSiteBytes = 7

// Build-option flag bits.
const (
	optSkipReadChecks = 1 << iota
	optUseBoundInstr
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

// EncodeArtifact serialises an artifact for the disk store: its mode,
// its build options and its program with the site table. The run part
// is not written, so an artifact and its views encode alike and decode
// to the artifact with no run options. The program's Mode is not
// written either: it is the artifact's. ok is false — with no error —
// for a program the format cannot hold exactly, one whose Mode is not
// the artifact's included.
func EncodeArtifact(a *Artifact) (data []byte, ok bool, err error) {
	if a == nil || a.Program == nil || a.Program.Mode != a.vmMode.String() {
		return nil, false, nil
	}
	e := &encoder{buf: make([]byte, 0, 256+12*len(a.Program.Instrs))}
	e.byte(tagArtifact)
	e.uint(persistVersion)
	e.str(string(a.Mode))
	e.options(&a.opts)
	if e.program(a.Program) != nil || e.sites(a.Program.Sites) != nil {
		return nil, false, nil
	}
	return e.buf, true, nil
}

// DecodeArtifact reconstructs an artifact from EncodeArtifact's bytes,
// with no run options (see Artifact.WithRun). The checking strategy is
// re-resolved against this process's registry, so a blob naming an
// unregistered strategy fails (and the caller treats the failure as a
// cache miss). The artifact keeps and aliases data — its data runs are
// slices of it, and its run key hashes it on first use — so the caller
// must not modify data afterwards.
func DecodeArtifact(data []byte) (*Artifact, error) {
	d := newDecoder(data)
	d.header(tagArtifact)
	mode := Mode(d.str())
	opts := d.options()
	// The program and then its site table are the blob's tail: once
	// finish has accepted the blob, these are exactly the bytes they
	// decoded from.
	progStart := d.pos
	prog := d.program()
	sitesStart := d.pos
	prog.Sites = d.sites(prog.Instrs)
	if err := d.finish("artifact"); err != nil {
		return nil, err
	}
	info, err := mode.resolve()
	if err != nil {
		return nil, err
	}
	prog.Mode = info.Mode.String()
	// A build records its options as normalizeOptions spells them, so
	// any other budget or pass list is not an encoding of a build. (The
	// codec keeps an empty pass list apart from nil, as it does every
	// slice.)
	if canon, err := normalizeOptions(info, opts); err != nil || canon.SegRegs != opts.SegRegs || !slices.Equal(canon.Passes, opts.Passes) {
		return nil, fmt.Errorf("core: decode artifact: options %+v are not canonical under %s", opts, mode)
	}
	dg := &programDigest{enc: data[progStart:], split: sitesStart - progStart}
	return &Artifact{Mode: mode, Program: prog, vmMode: info.Mode, opts: opts, digest: dg}, nil
}

// BuildKey returns the content address of a build: a SHA-256 over the
// strategy name, the build part of opts as EncodeArtifact writes it, and
// the source text. The run part does not enter it: requests that differ
// only there are one program. opts must be as NormalizeOptions returns
// them, so that equivalent spellings collide. The strategy is hashed by
// name, so a Mode constant and its string spelling (ModeCash and
// "cash") share a key. A restarted process computes the same key, so
// the key addresses the artifact across processes too.
func BuildKey(source string, mode Mode, opts Options) string {
	e := &encoder{buf: make([]byte, 0, 64+len(source))}
	e.str("build")
	e.str(string(mode))
	e.options(&opts)
	e.str(source)
	sum := sha256.Sum256(e.buf)
	return hex.EncodeToString(sum[:])
}

// RunKey returns the artifact's run key: a content digest of everything
// a run of it consumes — the vm execution mode, the run options
// (StepLimit, WithoutCallGate, ElectricFence, StepOnly, Oracle), the
// program's canonical bytes, as EncodeArtifact writes them, and, for
// an oracle run alone, the site table the oracle reads. Build requests
// that compile to the same program share it: a cash build at budgets 2
// and 3 whose loops fit in two registers, a bound-instruction build
// that emits no software check, sources that differ only in comments.
// The program's digest is computed once and shared by its views; a
// decoded artifact hashes the bytes it decoded, on its first run key.
func (a *Artifact) RunKey() string {
	a.runKeyOnce.Do(func() {
		d := a.digest.of(a.Program)
		limit := a.opts.StepLimit
		if limit == 0 {
			// The limit the machine applies: the two spellings of the
			// default share a key, and a change of the default changes it.
			limit = vm.DefaultStepLimit
		}
		buf := make([]byte, 0, 96)
		buf = append(buf, "run\x00"...)
		buf = binary.AppendUvarint(buf, uint64(a.vmMode))
		buf = append(buf, a.opts.runFlags())
		buf = binary.AppendUvarint(buf, limit)
		buf = append(buf, d.code[:]...)
		if a.opts.Oracle {
			buf = append(buf, d.sites[:]...)
		}
		sum := sha256.Sum256(buf)
		a.runKey = hex.EncodeToString(sum[:])
	})
	return a.runKey
}

// of returns the digest of p, hashing it on first use: the encoding a
// decoded artifact kept, or else p encoded now. A program the format
// cannot hold (codegen emits none) gets random digests: its runs then
// share nothing, which is slow but never wrong.
func (d *programDigest) of(p *vm.Program) *programDigest {
	d.once.Do(func() {
		if d.enc == nil {
			e := &encoder{buf: make([]byte, 0, 256+12*len(p.Instrs))}
			progErr := e.program(p)
			n := len(e.buf)
			if progErr != nil || e.sites(p.Sites) != nil {
				rand.Read(d.code[:])
				rand.Read(d.sites[:])
				return
			}
			d.enc, d.split = e.buf, n
		}
		d.code, d.sites = sha256.Sum256(d.enc[:d.split]), sha256.Sum256(d.enc[d.split:])
		d.enc = nil
	})
	return d
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
	d := newDecoder(data)
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

// options writes the build part of o: the one encoding of build
// options, which the artifact codec and BuildKey share.
func (e *encoder) options(o *Options) {
	e.int(int64(o.SegRegs))
	e.byte(bit(o.SkipReadChecks, optSkipReadChecks) | bit(o.UseBoundInstr, optUseBoundInstr))
	e.strs(o.Passes)
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
	e.count(len(p.Globals), p.Globals == nil)
	for _, k := range sortedKeys(p.Globals) {
		g := p.Globals[k]
		if !inImage(g, p) {
			return errUnpersistable
		}
		e.str(k)
		e.uint(uint64(g.Addr))
		e.uint(uint64(g.Size))
	}
	if err := e.data(p); err != nil {
		return err
	}
	e.uint(uint64(p.DataBase))
	e.uint(uint64(p.HeapBase))
	e.uint(uint64(p.StackTop))
	e.count(len(p.Stats), p.Stats == nil)
	for _, k := range sortedKeys(p.Stats) {
		e.str(k)
		e.uint(p.Stats[k])
	}
	return nil
}

// sites writes a program's site table: each site's fields in order,
// then the static objects. A missing table or a site the decoder would
// reject is refused.
func (e *encoder) sites(t *vm.SiteTable) error {
	if t == nil {
		return errUnpersistable
	}
	e.count(len(t.Sites), t.Sites == nil)
	for i := range t.Sites {
		s := &t.Sites[i]
		if s.Instr < 0 || !validSite(s) {
			return errUnpersistable
		}
		e.uint(uint64(s.Instr))
		e.byte(byte(s.Kind))
		e.int(int64(s.Off))
		e.uint(uint64(s.Size))
		e.bool(s.Frame)
		e.byte(byte(s.Reg))
		e.byte(byte(s.Sub))
	}
	e.count(len(t.Statics), t.Statics == nil)
	for _, o := range t.Statics {
		e.uint(uint64(o.Addr))
		e.uint(uint64(o.Size))
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

// data writes p's data image as its length and its runs of nonzero
// bytes, each as (gap since the previous run's end, length, bytes). The
// runs must be the maximal ones vm.Program.SetData makes — nonempty,
// free of zero bytes, in order, apart and inside the image — and a nil
// run list, which means no image, must come with a zero DataSize.
func (e *encoder) data(p *vm.Program) error {
	if p.DataSize > maxDataImage || p.Data == nil && p.DataSize != 0 {
		return errUnpersistable
	}
	e.count(int(p.DataSize), p.Data == nil)
	if p.Data == nil {
		return nil
	}
	e.uint(uint64(len(p.Data)))
	var end uint64
	for i, r := range p.Data {
		off, n := uint64(r.Off), uint64(len(r.Bytes))
		if off < end || i > 0 && off == end || n == 0 || off+n > uint64(p.DataSize) || bytes.IndexByte(r.Bytes, 0) >= 0 {
			return errUnpersistable
		}
		e.uint(off - end)
		e.uint(n)
		e.buf = append(e.buf, r.Bytes...)
		end = off + n
	}
	return nil
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

// decoder consumes the format's primitives from data. It advances a
// cursor through the input rather than re-slicing it, so a read stores
// an int, not a pointer. Every string it returns is a substring of s,
// the input converted once, so a blob costs one string allocation
// however many names it holds. The first error sticks: later reads
// return zero values and consume nothing, so callers check once, at
// finish.
type decoder struct {
	data []byte // the whole input; never re-sliced
	s    string // data as a string
	pos  int    // index of the next unread byte
	err  error
}

func newDecoder(data []byte) *decoder {
	return &decoder{data: data, s: string(data)}
}

// rest returns the number of unread input bytes.
func (d *decoder) rest() int { return len(d.data) - d.pos }

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

// advance moves the cursor to next, where one of the *At readers below
// stopped, or records its failure.
func (d *decoder) advance(next int, msg string) {
	d.pos = next
	if msg != "" {
		d.fail(msg)
	}
}

// finish reports the sticky error or leftover input.
func (d *decoder) finish(what string) error {
	if d.err == nil && d.rest() != 0 {
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
	if d.pos >= len(d.data) {
		d.fail("truncated")
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, next, msg := uvarintAt(d.data, d.pos)
	d.advance(next, msg)
	return v
}

// int reads a zigzag varint, as binary.AppendVarint writes it.
func (d *decoder) int() int64 { return unzigzag(d.uint()) }

func (d *decoder) intN() int {
	v := d.int()
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

func (d *decoder) i32() int32 {
	if d.err != nil {
		return 0
	}
	v, next, msg := int32At(d.data, d.pos)
	d.advance(next, msg)
	return v
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

// take returns the next n bytes, which must all be present, with their
// capacity cut to n.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.rest()) {
		d.fail("length exceeds input")
		return nil
	}
	b := d.data[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return b
}

func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	v, next, msg := strAt(d.data, d.s, d.pos)
	d.advance(next, msg)
	return v
}

// The *At readers decode one primitive at b[i:] and return it with the
// index after it. On input the encoder cannot have written they return
// the zero value, i itself and a non-empty msg.

// uvarintAt reads a minimally encoded uvarint. Most are below 0x80 and
// so one byte long, which needs neither binary.Uvarint nor the
// minimality check.
func uvarintAt(b []byte, i int) (v uint64, next int, msg string) {
	if i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1, ""
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, i, "truncated or oversized varint"
	}
	if b[i+n-1] == 0 {
		return 0, i, "non-minimal varint"
	}
	return v, i + n, ""
}

// int32At reads a zigzag varint that must fit an int32.
func int32At(b []byte, i int) (int32, int, string) {
	u, next, msg := uvarintAt(b, i)
	v := unzigzag(u)
	if v != int64(int32(v)) {
		return 0, i, "integer out of range"
	}
	return int32(v), next, msg
}

// strAt reads a length-prefixed string as a substring of s, which is b
// as a string.
func strAt(b []byte, s string, i int) (string, int, string) {
	n, next, msg := uvarintAt(b, i)
	if msg != "" {
		return "", i, msg
	}
	if n > uint64(len(b)-next) {
		return "", i, "length exceeds input"
	}
	return s[next : next+int(n)], next + int(n), ""
}

func unzigzag(u uint64) int64 {
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads a length written by encoder.count. The n elements, each
// at least minBytes long, must fit in the remaining input, so the
// caller may allocate n of them.
func (d *decoder) count(minBytes int) (n int, isNil bool) {
	c := d.uint()
	if d.err != nil || c == 0 {
		return 0, d.err == nil
	}
	if c-1 > uint64(d.rest()/minBytes) {
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
	o.Passes = d.strs()
	return o
}

func (d *decoder) program() *vm.Program {
	p := &vm.Program{Name: d.str()}
	if n, isNil := d.count(minInstrBytes); !isNil {
		p.Instrs = make([]vm.Instr, n)
		for i := 0; i < n && d.err == nil; i++ {
			next, msg := instrAt(d.data, d.s, d.pos, &p.Instrs[i])
			d.advance(next, msg)
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
	if n, isNil := d.count(3); !isNil {
		p.Globals = make(map[string]vm.Global, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.key(i, prev)
			p.Globals[k] = vm.Global{Addr: d.u32(), Size: d.u32()}
			prev = k
		}
	}
	d.dataImage(p)
	p.DataBase = d.u32()
	for _, g := range p.Globals {
		if !inImage(g, p) {
			d.fail("global array outside the data image")
		}
	}
	p.HeapBase = d.u32()
	p.StackTop = d.u32()
	if n, isNil := d.count(2); !isNil {
		p.Stats = make(map[string]uint64, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.key(i, prev)
			p.Stats[k] = d.uint()
			prev = k
		}
	}
	return p
}

// instrAt reads the instruction encoder.instr wrote at b[i:], operands
// included, into the zero instruction in; s is b as a string, and Sym
// and Label are substrings of it. It is one pass over a local cursor
// that checks the input's length once per group of fields: the four
// fixed bytes with the shortest target, symbol and label; a register
// or segment byte; a memory operand's five fixed bytes with the
// shortest displacement. Most varints are one byte, read in place; a
// longer one, or a string's bytes, takes a check of its own. Each
// operand comes out as vm.R, vm.I, vm.SR or vm.M would build it.
func instrAt(b []byte, s string, i int, in *vm.Instr) (next int, msg string) {
	if len(b)-i < minInstrBytes {
		return i, "truncated"
	}
	in.Op, in.Size, in.Note = vm.Op(b[i]), b[i+2], vm.Note(b[i+3])
	kinds := b[i+1]
	var u uint64
	if t := b[i+4]; t < 0x80 {
		u, i = uint64(t), i+5
	} else if u, i, msg = uvarintAt(b, i+4); msg != "" {
		return i, msg
	}
	if t := unzigzag(u); int64(int(t)) == t {
		in.Target = int(t)
	} else {
		return i, "integer out of range"
	}
	if len(b)-i >= 2 && b[i] == 0 && b[i+1] == 0 {
		i += 2 // most instructions have neither symbol nor label
	} else {
		if in.Sym, i, msg = strAt(b, s, i); msg != "" {
			return i, msg
		}
		if in.Label, i, msg = strAt(b, s, i); msg != "" {
			return i, msg
		}
	}
	for _, o := range [2]*vm.Operand{&in.Dst, &in.Src} {
		kind := vm.OperandKind(kinds & 0xf)
		kinds >>= 4
		switch kind {
		case vm.KindNone:
			continue
		case vm.KindReg, vm.KindSReg:
			if i >= len(b) {
				return i, "truncated"
			}
			if kind == vm.KindReg {
				if o.Reg = vm.Reg(b[i]); o.Reg >= vm.NumRegs {
					return i, "register out of range"
				}
			} else if o.SReg = x86seg.SegReg(b[i]); !validSeg(o.SReg) {
				return i, "segment register out of range"
			}
			i++
		case vm.KindImm:
			if i < len(b) && b[i] < 0x80 {
				o.Imm = int32(unzigzag(uint64(b[i])))
				i++
			} else if o.Imm, i, msg = int32At(b, i); msg != "" {
				return i, msg
			}
		case vm.KindMem:
			if len(b)-i < 6 {
				return i, "truncated"
			}
			m := &o.Mem
			m.Seg, m.Base, m.Index, m.Scale = x86seg.SegReg(b[i]), vm.Reg(b[i+1]), vm.Reg(b[i+2]), b[i+4]
			switch flags := b[i+3]; {
			case !validSeg(m.Seg):
				return i, "segment register out of range"
			case m.Base >= vm.NumRegs || m.Index >= vm.NumRegs:
				return i, "register out of range"
			case flags&^memAll != 0:
				return i, "unknown flag bits"
			default:
				m.HasBase, m.HasIndex = flags&memHasBase != 0, flags&memHasIndex != 0
			}
			if b[i+5] < 0x80 {
				m.Disp = int32(unzigzag(uint64(b[i+5])))
				i += 6
			} else if m.Disp, i, msg = int32At(b, i+5); msg != "" {
				return i, msg
			}
		default:
			return i, "unknown operand kind"
		}
		o.Kind = kind
	}
	return i, ""
}

// sites reads encoder.sites' table for a program of the given
// instructions. Sites must name instructions in strictly increasing
// order, each with a memory operand the oracle can wrap, and be valid
// (validSite); statics must be sorted by address.
func (d *decoder) sites(instrs []vm.Instr) *vm.SiteTable {
	t := &vm.SiteTable{}
	if n, isNil := d.count(minSiteBytes); !isNil {
		t.Sites = make([]vm.Site, n)
		for i := range t.Sites {
			s := &t.Sites[i]
			idx := d.uint()
			if d.err == nil && (idx >= uint64(len(instrs)) || i > 0 && idx <= uint64(t.Sites[i-1].Instr)) {
				d.fail("site indices not increasing inside the program")
			}
			s.Instr = int(idx)
			s.Kind = vm.SiteKind(d.byte())
			s.Off, s.Size, s.Frame = d.i32(), d.u32(), d.bool()
			s.Reg, s.Sub = vm.Reg(d.byte()), vm.Reg(d.byte())
			if d.err != nil {
				return nil
			}
			if !validSite(s) {
				d.fail("site of an unknown kind or register")
				return nil
			}
			if in := &instrs[s.Instr]; in.Dst.Kind != vm.KindMem && in.Src.Kind != vm.KindMem {
				d.fail("site on an instruction without a memory operand")
				return nil
			}
		}
	}
	if n, isNil := d.count(2); !isNil {
		t.Statics = make([]vm.Object, n)
		for i := range t.Statics {
			o := &t.Statics[i]
			o.Addr, o.Size = d.u32(), d.u32()
			if i > 0 && o.Addr < t.Statics[i-1].Addr {
				d.fail("static objects not sorted")
			}
		}
	}
	return t
}

// key reads the i-th map key, which must sort strictly after prev.
func (d *decoder) key(i int, prev string) string {
	k := d.str()
	if i > 0 && k <= prev {
		d.fail("map keys not strictly sorted")
	}
	return k
}

// dataImage reads encoder.data's image into p's Data and DataSize. The
// runs must be the encoder's: nonempty, separated by at least one zero
// byte, free of zero bytes, and inside the declared length. Their bytes
// are slices of the input; nothing is expanded.
func (d *decoder) dataImage(p *vm.Program) {
	c := d.uint()
	if d.err != nil || c == 0 {
		return
	}
	if c-1 > maxDataImage {
		d.fail("data image exceeds cap")
		return
	}
	size := c - 1
	runs := d.uint()
	// A run is at least a gap byte, a length byte and one data byte.
	if runs > uint64(d.rest()/3) {
		d.fail("run count exceeds input")
		return
	}
	p.Data, p.DataSize = make([]vm.DataRun, runs), uint32(size)
	var end uint64
	for i := range p.Data {
		gap, n := d.uint(), d.uint()
		switch {
		case i > 0 && gap == 0, n == 0:
			d.fail("data runs not maximal")
		case gap > size-end || n > size-end-gap:
			d.fail("data run outside the image")
		}
		src := d.take(n)
		if d.err != nil {
			return
		}
		if bytes.IndexByte(src, 0) >= 0 {
			d.fail("zero byte inside a data run")
			return
		}
		end += gap
		p.Data[i] = vm.DataRun{Off: uint32(end), Bytes: src}
		end += n
	}
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

// inImage reports whether a global array lies inside p's data image.
func inImage(g vm.Global, p *vm.Program) bool {
	return g.Addr >= p.DataBase && uint64(g.Addr-p.DataBase)+uint64(g.Size) <= uint64(p.DataSize)
}

func validSeg(s x86seg.SegReg) bool { return s < x86seg.NumSegRegs }

// validSite reports whether a site has a defined kind and registers the
// oracle can read: Reg a register, Sub a register or NumRegs for none.
func validSite(s *vm.Site) bool {
	return s.Kind >= vm.SiteStatic && s.Kind <= vm.SiteReg && s.Reg < vm.NumRegs && s.Sub <= vm.NumRegs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
