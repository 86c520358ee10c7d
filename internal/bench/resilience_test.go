package bench

import (
	"context"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestResilienceGolden pins the chaos-soak output byte-for-byte at the
// CI reference point (200 requests, seed 1, rate 5%). Determinism is
// the whole point of the seeded chaos plane, so any drift here is a
// behaviour change, not noise. Regenerate only for intentional changes:
//
//	go run ./cmd/cashbench -table resilience -requests 200 -chaos-seed 1 -chaos-rate 0.05 > internal/bench/testdata/golden_resilience_s1_r5_200.txt
func TestResilienceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full network-application chaos soak")
	}
	want, err := os.ReadFile("testdata/golden_resilience_s1_r5_200.txt")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := testSuite.ResilienceTable(context.Background(), 200, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got := tab.Format()
	if got != string(want) {
		t.Fatalf("resilience output drifted from golden file\ngot %d bytes, want %d bytes\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
	// Acceptance floor: every application/mode row survived injection.
	for _, row := range tab.Rows {
		avail := strings.TrimSuffix(row[2], "%")
		v, err := strconv.ParseFloat(avail, 64)
		if err != nil {
			t.Fatalf("unparsable availability %q in row %v", row[2], row)
		}
		if v <= 0 {
			t.Errorf("%s/%s: availability %s — server did not survive", row[0], row[1], row[2])
		}
	}
}

func TestPctFormatsNaNAsNA(t *testing.T) {
	if got := pct(math.NaN()); got != "n/a" {
		t.Fatalf("pct(NaN) = %q, want n/a", got)
	}
	if got := pct(12.34); got != "12.3%" {
		t.Fatalf("pct(12.34) = %q", got)
	}
}
