package serve

import (
	"testing"

	"cash/internal/core"
)

// TestBuildKeyAliasIdentity: the deprecated Mode constants and their
// plain string spellings must address the same artifact-cache entry —
// the key hashes the strategy name, not an enum value.
func TestBuildKeyAliasIdentity(t *testing.T) {
	src := "void main() { printi(1); }"
	cases := []struct{ a, b core.Mode }{
		{core.ModeCash, core.Mode("cash")},
		{core.ModeGCC, core.Mode("gcc")},
		{core.ModeBCC, core.Mode("bcc")},
		{core.ModeMPX, core.Mode("mpx")},
	}
	for _, c := range cases {
		if got, want := core.BuildKey(src, c.a, core.Options{}), core.BuildKey(src, c.b, core.Options{}); got != want {
			t.Errorf("BuildKey(%v) = %s, BuildKey(%q) = %s: aliases must share a cache entry",
				c.a, got, string(c.b), want)
		}
	}
	// Distinct strategies must not collide.
	if core.BuildKey(src, core.ModeCash, core.Options{}) == core.BuildKey(src, core.ModeMPX, core.Options{}) {
		t.Error("cash and mpx share a cache key")
	}
}

// TestBuildKeyStrategySeparation: the name is length-delimited in the
// hash, so a strategy name must never alias into the option block or
// source of a different request.
func TestBuildKeyStrategySeparation(t *testing.T) {
	if core.BuildKey("x", core.Mode("ab"), core.Options{}) == core.BuildKey("x", core.Mode("a"), core.Options{}) {
		t.Error("different names collide")
	}
}

// TestBuildKeyPinned pins the digest of build keys, which address
// artifacts in every store a previous process wrote, and pins that the
// run part of the options does not enter them: requests that differ
// only in how they run address one artifact.
func TestBuildKeyPinned(t *testing.T) {
	src := "void main() { printi(1); }"
	pins := []struct {
		mode core.Mode
		opts core.Options
		want string
	}{
		{core.ModeGCC, core.Options{}, "d724b987bdbe92520593f14031d2ccc3bdea7d837a42591c8973aed0d73b66b0"},
		{core.ModeCash, core.Options{SegRegs: 4, UseBoundInstr: true, Passes: []string{"rce", "hoist"}}, "1a5b5c52d357e71b01d7ccc879eea28945f30b4779a224e2ce02f061e500d5c0"},
	}
	for _, p := range pins {
		if got := core.BuildKey(src, p.mode, p.opts); got != p.want {
			t.Errorf("BuildKey(%s, %+v) = %s, want %s", p.mode, p.opts, got, p.want)
		}
		run := p.opts
		run.StepLimit, run.WithoutCallGate, run.ElectricFence, run.StepOnly, run.Oracle = 1000, true, true, true, true
		if got := core.BuildKey(src, p.mode, run); got != p.want {
			t.Errorf("%s: the run options change the key to %s", p.mode, got)
		}
	}
}
