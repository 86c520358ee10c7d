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
		if got, want := buildKey(src, c.a, core.Options{}), buildKey(src, c.b, core.Options{}); got != want {
			t.Errorf("buildKey(%v) = %s, buildKey(%q) = %s: aliases must share a cache entry",
				c.a, got, string(c.b), want)
		}
	}
	// Distinct strategies must not collide.
	if buildKey(src, core.ModeCash, core.Options{}) == buildKey(src, core.ModeMPX, core.Options{}) {
		t.Error("cash and mpx share a cache key")
	}
}

// TestBuildKeyStrategySeparation: the name is length-delimited in the
// hash, so a strategy name must never alias into the option block or
// source of a different request.
func TestBuildKeyStrategySeparation(t *testing.T) {
	if buildKey("x", core.Mode("ab"), core.Options{}) == buildKey("x", core.Mode("a"), core.Options{}) {
		t.Error("different names collide")
	}
}

// TestBuildKeyPinned pins the digest of default keys: a new build option
// must key in bytes the option block leaves zero when it is off, so
// every existing key — and every entry of an existing store — stays
// valid. The oracle flag is such an option.
func TestBuildKeyPinned(t *testing.T) {
	src := "void main() { printi(1); }"
	pins := []struct {
		mode core.Mode
		opts core.Options
		want string
	}{
		{core.ModeGCC, core.Options{}, "67df0aa259cd8115b96127165347535dcbe3d1a5863453e191e399df4b460064"},
		{core.ModeCash, core.Options{Passes: []string{"rce", "hoist"}, StepLimit: 1000},
			"d9795e33b78a97bde4417c48f0d782923a73206e7c4755e5171f2e5d71a71eed"},
	}
	for _, p := range pins {
		if got := buildKey(src, p.mode, p.opts); got != p.want {
			t.Errorf("buildKey(%s, %+v) = %s, want %s", p.mode, p.opts, got, p.want)
		}
		oracle := p.opts
		oracle.Oracle = true
		if buildKey(src, p.mode, oracle) == p.want {
			t.Errorf("%s: the oracle flag does not change the key", p.mode)
		}
	}
}
