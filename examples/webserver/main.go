// Webserver: the paper's §4.4 network experiment — run the Apache- and
// Qpopper-style request handlers under a process-per-request server and
// measure the latency, throughput and space penalties of turning Cash on,
// as Table 8 reports for the real servers.
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
	const requests = 2000
	fmt.Printf("process-per-request server, %d requests per application\n\n", requests)
	eng := cash.NewEngine(cash.EngineConfig{})
	defer eng.Close()
	for _, name := range []string{"apache", "qpopper", "bind"} {
		w, ok := cash.WorkloadByName(name)
		if !ok {
			return fmt.Errorf("workload %s missing", name)
		}
		rep, err := eng.MeasureNetworkApp(context.Background(), w, requests, cash.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("== %s (%s) ==\n", rep.Paper, w.Description)
		fmt.Printf("handler CPU:        gcc %d cycles, cash %d cycles\n",
			rep.GCC.HandlerCycles, rep.Cash.HandlerCycles)
		fmt.Printf("latency penalty:    %.1f%%\n", rep.LatencyPenaltyPct)
		fmt.Printf("throughput penalty: %.1f%%\n", rep.ThroughputPenaltyPct)
		fmt.Printf("space overhead:     %.1f%% (statically linked)\n\n", rep.SpaceOverheadPct)
	}
	fmt.Println("paper's Table 8 bands: latency 2.5-9.8%, throughput 2.4-8.9%, space 44.8-68.3%")
	return nil
}
