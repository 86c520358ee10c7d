package vm

// Test hooks into tier 2's region selection, for the external test
// package.

// Region is a superblock candidate region.
type Region = region

// Loops returns the primary regions tier 2 derives from p's code.
func Loops(p *Program) []Region { return findLoops(p) }

// BuildTable builds p's superblock table over the given primary regions
// in place of its loops. It must come before p's first tier-2 machine.
func BuildTable(p *Program, primary []Region) {
	built := false
	p.sb.once.Do(func() {
		p.sb.t = buildTable(p, primary)
		built = true
	})
	if !built {
		panic("vm: BuildTable after the superblock table was built")
	}
}

// TraceAt reports whether p's superblock table has a trace headed at i.
func TraceAt(p *Program, i int) bool { return p.superblocks().heads[i] != nil }
