package bench

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/workload"
)

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", s, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab, err := testTable("table1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 kernels", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// With 4 segment registers all checks are in hardware.
		if !strings.HasSuffix(row[1], "/0") {
			t.Errorf("%s: HW/SW = %s, want zero software checks", row[0], row[1])
		}
		cash := parsePct(t, row[3])
		bcc := parsePct(t, row[4])
		if cash >= bcc {
			t.Errorf("%s: cash %.1f%% must beat bcc %.1f%%", row[0], cash, bcc)
		}
		if cash > 12 {
			t.Errorf("%s: cash overhead %.1f%% too large", row[0], cash)
		}
		if bcc < 20 {
			t.Errorf("%s: bcc overhead %.1f%% too small", row[0], bcc)
		}
	}
	if out := tab.Format(); !strings.Contains(out, "TABLE1") {
		t.Error("Format must include the table id")
	}
}

func TestTable2Shape(t *testing.T) {
	tab, err := testTable("table2", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		cash := parsePct(t, row[2])
		bcc := parsePct(t, row[3])
		if cash <= 0 || bcc <= 0 {
			t.Errorf("%s: both overheads must be positive (%s, %s)", row[0], row[2], row[3])
		}
		if cash >= bcc {
			t.Errorf("%s: cash size overhead %.1f%% must be below bcc %.1f%%", row[0], cash, bcc)
		}
	}
}

func TestTable3Decreasing(t *testing.T) {
	tab, err := testTable("table3", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		first := parsePct(t, row[1])
		last := parsePct(t, row[len(row)-1])
		if last >= first && last > 1.0 {
			t.Errorf("%s: overhead must fall with size: %s -> %s", row[0], row[1], row[len(row)-1])
		}
	}
}

func TestTable5Shape(t *testing.T) {
	tab, err := testTable("table5", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		cash := parsePct(t, row[2])
		bcc := parsePct(t, row[3])
		if cash >= bcc {
			t.Errorf("%s: cash %.1f%% must beat bcc %.1f%%", row[0], cash, bcc)
		}
	}
}

func TestTable7Sendmail(t *testing.T) {
	tab, err := testTable("table7", 0)
	if err != nil {
		t.Fatal(err)
	}
	var sendmailFrac float64
	fracs := make(map[string]float64)
	for _, row := range tab.Rows {
		// "> 3 Arrays" cell looks like "2 (11.1%)".
		open := strings.Index(row[3], "(")
		f := parsePct(t, strings.TrimSuffix(row[3][open+1:], ")"))
		fracs[row[0]] = f
		if row[0] == "Sendmail" {
			sendmailFrac = f
		}
	}
	if sendmailFrac == 0 {
		t.Fatal("sendmail must have spilled loops")
	}
	for name, f := range fracs {
		if f > sendmailFrac {
			t.Errorf("%s spilled fraction %.1f%% exceeds Sendmail's %.1f%%", name, f, sendmailFrac)
		}
	}
}

func TestTable8Shape(t *testing.T) {
	tab, err := testTable("table8", 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		lat := parsePct(t, row[1])
		thr := parsePct(t, row[2])
		space := parsePct(t, row[3])
		if lat <= 0 || lat > 40 {
			t.Errorf("%s: latency penalty %.1f%% outside plausible band", row[0], lat)
		}
		if thr <= 0 || thr > lat {
			t.Errorf("%s: throughput penalty %.1f%% must be positive and not above latency %.1f%%", row[0], thr, lat)
		}
		if space <= 0 {
			t.Errorf("%s: space overhead must be positive", row[0])
		}
	}
}

func TestAblationMonotone(t *testing.T) {
	tab, err := testTable("ablation-segregs", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		sw2, sw3, sw4 := parsePct(t, row[1]), parsePct(t, row[3]), parsePct(t, row[5])
		if sw2 < sw3 || sw3 < sw4 {
			t.Errorf("%s: software share must not grow with more registers: %v %v %v",
				row[0], sw2, sw3, sw4)
		}
		if sw4 != 0 {
			t.Errorf("%s: 4 registers must eliminate software checks, got %.1f%%", row[0], sw4)
		}
	}
}

// TestAblationSegRegsRunCount guards the work of the §4.2 sweep: only
// cash reads the segment-register budget, so on a fresh Engine the
// sweep simulates each kernel once under gcc and once under bcc, and
// under cash once per distinct program its three budgets compile to.
func TestAblationSegRegsRunCount(t *testing.T) {
	kernels := workload.Kernels()
	cash := map[string]bool{}
	for _, w := range kernels {
		for _, regs := range []int{2, 3, 4} {
			art, err := core.Build(w.Source, core.ModeCash, core.Options{SegRegs: regs})
			if err != nil {
				t.Fatal(err)
			}
			cash[art.RunKey()] = true
		}
	}
	want := uint64(2*len(kernels) + len(cash))
	runs := obs.Default().Counter("vm.runs")
	before := runs.Value()
	suite := Suite{Engine: serve.NewEngine(serve.EngineConfig{})}
	if _, err := suite.Table(context.Background(), "ablation-segregs", 0); err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - before; got != want {
		t.Fatalf("ablation-segregs: vm.runs delta %d, want %d (%d gcc, %d bcc, %d cash)",
			got, want, len(kernels), len(kernels), len(cash))
	}
}

func TestConstantsTable(t *testing.T) {
	tab, err := ConstantsTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] != row[2] {
			t.Errorf("constant %s: measured %s != paper %s", row[0], row[1], row[2])
		}
	}
}

func TestLDTCostTable(t *testing.T) {
	tab, err := LDTCostTable()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][1] != "781" || tab.Rows[1][1] != "253" {
		t.Fatalf("LDT costs = %v, want 781 / 253", tab.Rows)
	}
}

func TestCacheTable(t *testing.T) {
	tab, err := testTable("cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]string, len(tab.Rows))
	for _, row := range tab.Rows {
		cells[row[0]] = row[1]
	}
	hit := parsePct(t, cells["cache hit ratio"])
	if hit < 30 {
		t.Errorf("toast cache hit ratio %.1f%%, want substantial (paper: 53.8%%)", hit)
	}
	share := parsePct(t, cells["LDT modification share of run time"])
	if share > 10 {
		t.Errorf("LDT share %.1f%% must be small (paper: ~1%%)", share)
	}
}

func TestSegmentsBudget(t *testing.T) {
	tab, err := testTable("segments", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		peak, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if peak <= 0 || peak > 8191 {
			t.Errorf("%s: peak live segments %d outside budget", row[0], peak)
		}
	}
}

func TestFigure2Table(t *testing.T) {
	tab, err := Figure2Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		slack, err := strconv.Atoi(row[4])
		if err != nil {
			t.Fatal(err)
		}
		if slack < 0 || slack >= 4096 {
			t.Errorf("size %s: lower slack %d must be within one page", row[0], slack)
		}
		if row[1] == "off" && slack != 0 {
			t.Errorf("byte-granular segment must have zero slack")
		}
	}
}

func TestFigure1Trace(t *testing.T) {
	trace, err := testSuite.Figure1Trace(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace, "linear=") || !strings.Contains(trace, "physical=") {
		t.Fatalf("trace missing pipeline stages:\n%s", trace)
	}
	if !strings.Contains(trace, "LDT[") {
		t.Fatalf("trace must show an array segment selector:\n%s", trace)
	}
}
