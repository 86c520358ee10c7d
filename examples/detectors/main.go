// Detectors: the full comparison the paper's related-work section (§2)
// sketches — no checking, Electric Fence guard pages, BCC's software
// checks (both the 6-instruction sequence and the IA-32 bound
// instruction), and Cash — on one heap-churning workload plus three
// overflow probes (heap, global, stack).
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
	eng := cash.NewEngine(cash.EngineConfig{})
	defer eng.Close()
	tab, err := cash.Suite{Engine: eng}.Table(context.Background(), "detectors", 0)
	if err != nil {
		return err
	}
	fmt.Print(tab.Format())
	fmt.Println()

	// The same trade-off demonstrated directly: Electric Fence catches a
	// heap overrun with zero check instructions...
	heapBug := `
void main() {
	char *b = malloc(30);
	for (int i = 0; i < 40; i++) b[i] = 'x';
}`
	art, err := cash.Build(heapBug, cash.ModeGCC, cash.Options{ElectricFence: true})
	if err != nil {
		return err
	}
	res, err := art.Run()
	if err != nil {
		return err
	}
	fmt.Printf("electric fence on a heap overrun: %v\n", res.Violation)
	fmt.Printf("address space for one 30-byte object: %d bytes (two pages)\n\n", res.HeapSpan)

	// ...but is blind to a global-array overflow that Cash stops cold.
	globalBug := `
int table[8];
void main() { for (int i = 0; i <= 8; i++) table[i] = i; }`
	art, err = cash.Build(globalBug, cash.ModeGCC, cash.Options{ElectricFence: true})
	if err != nil {
		return err
	}
	res, err = art.Run()
	if err != nil {
		return err
	}
	fmt.Printf("electric fence on a global overflow: violation=%v (missed)\n", res.Violation != nil)

	art, err = cash.Build(globalBug, cash.ModeCash, cash.Options{})
	if err != nil {
		return err
	}
	res, err = art.Run()
	if err != nil {
		return err
	}
	fmt.Printf("cash on the same overflow:          %v\n", res.Violation)
	return nil
}
