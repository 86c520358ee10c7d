// Command cashc compiles a mini-C source file under one of the
// registered checking strategies (gcc, bcc, cash, mpx) and prints the
// generated assembly listing plus static statistics — the tool to
// inspect how each strategy instruments array references.
//
// Usage:
//
//	cashc [-strategy gcc|bcc|cash|mpx] [-segregs 2|3|4] [-size] file.c
//	cashc -workload matmul40 -strategy cash
//	cashc -list-strategies
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"cash"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cashc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		strategy = flag.String("strategy", "", "checking strategy (see -list-strategies); default cash")
		segRegs  = flag.Int("segregs", 3, "segment register budget for cash mode (2, 3 or 4); gcc, bcc and mpx ignore it")
		sizeOnly = flag.Bool("size", false, "print only the code-size estimate")
		wlName   = flag.String("workload", "", "compile a built-in workload instead of a file")
		listStra = flag.Bool("list-strategies", false, "list the registered checking strategies and exit")
	)
	flag.Parse()

	if *listStra {
		for _, s := range cash.Strategies() {
			fmt.Printf("%-6s %-16s %s\n", s.Name, "["+s.Kind+"]", s.Description)
		}
		return nil
	}
	mode, err := cash.ParseMode(*strategy)
	if err != nil {
		return err
	}
	source, name, err := loadSource(*wlName, flag.Args())
	if err != nil {
		return err
	}
	art, err := cash.Build(source, mode, cash.Options{SegRegs: *segRegs})
	if err != nil {
		return err
	}
	if *sizeOnly {
		fmt.Printf("%s [%s]: %d bytes of text\n", name, mode, art.CodeSize())
		return nil
	}
	fmt.Print(art.Disassemble())
	fmt.Printf("\n# text size estimate: %d bytes\n", art.CodeSize())
	stats := art.StaticStats()
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %d\n", k, stats[k])
	}
	return nil
}

func loadSource(wlName string, args []string) (source, name string, err error) {
	if wlName != "" {
		w, ok := cash.WorkloadByName(wlName)
		if !ok {
			return "", "", fmt.Errorf("unknown workload %q", wlName)
		}
		return w.Source, w.Name, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("exactly one source file (or -workload) required")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(data), args[0], nil
}
