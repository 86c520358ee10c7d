package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestBoundInstrTableShape(t *testing.T) {
	tab, err := testTable("bound", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		seq, err := strconv.ParseUint(row[3], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		bnd, err := strconv.ParseUint(row[4], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		// §2: the bound instruction (7 cycles) loses to the 6-cycle
		// sequence on every kernel.
		if bnd <= seq {
			t.Errorf("%s: bound (%d) must cost more than the sequence (%d)", row[0], bnd, seq)
		}
	}
}

func TestDetectorTableShape(t *testing.T) {
	tab, err := testTable("detectors", 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]string, len(tab.Rows))
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}
	caught := func(name string, col int) bool { return rows[name][col] == "caught" }

	// GCC catches nothing.
	for col := 4; col <= 6; col++ {
		if caught("GCC (unchecked)", col) {
			t.Error("unchecked baseline must miss every overflow")
		}
	}
	// Electric Fence: heap only.
	if !caught("Electric Fence", 4) || caught("Electric Fence", 5) || caught("Electric Fence", 6) {
		t.Errorf("electric fence must catch heap only: %v", rows["Electric Fence"])
	}
	// BCC and Cash catch all three regions.
	for _, name := range []string{"BCC (6-instr seq)", "Cash"} {
		for col := 4; col <= 6; col++ {
			if !caught(name, col) {
				t.Errorf("%s must catch all regions: %v", name, rows[name])
			}
		}
	}
	// Electric Fence burns vastly more heap address space.
	parseSpan := func(name string) int {
		v, err := strconv.Atoi(strings.TrimSuffix(rows[name][3], "K"))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if parseSpan("Electric Fence") < 20*parseSpan("Cash") {
		t.Errorf("fence heap span %dK must dwarf cash %dK",
			parseSpan("Electric Fence"), parseSpan("Cash"))
	}
	// Cash is the cheapest checker on the churn workload.
	parseOvh := func(name string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(rows[name][2], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if parseOvh("Cash") >= parseOvh("BCC (6-instr seq)") {
		t.Errorf("cash overhead %.1f%% must undercut bcc %.1f%%",
			parseOvh("Cash"), parseOvh("BCC (6-instr seq)"))
	}
}

func TestCharacteristicsDynamicColumn(t *testing.T) {
	tab, err := testTable("table7", 0)
	if err != nil {
		t.Fatal(err)
	}
	var sendmailDyn float64
	for _, row := range tab.Rows {
		dyn, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] == "Sendmail" {
			sendmailDyn = dyn
		}
	}
	if sendmailDyn <= 0 {
		t.Fatal("sendmail must execute spilled-loop iterations")
	}
}
