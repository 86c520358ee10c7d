// Matmul: the paper's Table 1 experiment on one kernel — compare GCC
// (unchecked), BCC (software checks) and Cash (segment-hardware checks)
// on matrix multiplication, then sweep the segment-register budget (§4.2)
// and the input size (Table 3).
package main

import (
	"context"
	"fmt"
	"log"

	"cash"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, ok := cash.WorkloadByName("matmul40")
	if !ok {
		return fmt.Errorf("matmul40 workload missing")
	}
	fmt.Println("== three compilers on 40x40 matrix multiplication ==")
	cmp, err := cash.CompareStrategies(w.Name, w.Source, cash.CompareConfig{Options: cash.Options{SegRegs: 4}})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %12d cycles\n", "gcc", cmp.GCC.Cycles)
	fmt.Printf("%-6s %12d cycles  +%5.1f%%   %d hardware checks, %d software\n",
		"cash", cmp.Cash.Cycles, cmp.CashOverheadPct(),
		cmp.Cash.Stats.HWChecks, cmp.Cash.Stats.SWChecks)
	fmt.Printf("%-6s %12d cycles  +%5.1f%%   %d software checks\n\n",
		"bcc", cmp.BCC.Cycles, cmp.BCCOverheadPct(), cmp.BCC.Stats.SWChecks)

	fmt.Println("== segment-register budget sweep (3 arrays in the loop) ==")
	for _, regs := range []int{2, 3, 4} {
		cmp, err := cash.CompareStrategies(w.Name, w.Source, cash.CompareConfig{Options: cash.Options{SegRegs: regs}})
		if err != nil {
			return err
		}
		fmt.Printf("%d registers: cash +%5.2f%%  (hw=%d sw=%d)\n",
			regs, cmp.CashOverheadPct(),
			cmp.Cash.Stats.HWChecks, cmp.Cash.Stats.SWChecks)
	}
	fmt.Println()

	fmt.Println("== input-size sweep (Table 3 shape: overhead falls with size) ==")
	eng := cash.NewEngine(cash.EngineConfig{})
	defer eng.Close()
	tab, err := cash.Suite{Engine: eng}.Table(context.Background(), "table3", 0)
	if err != nil {
		return err
	}
	fmt.Print(tab.Format())
	return nil
}
