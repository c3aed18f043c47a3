package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runSmoke is the benchmark's self-test: every workload once on the
// tiny corpus, untraced and traced, with the correctness gates on. It
// fails unless every run passes its gates and reports every metric the
// spec names, with the spec's unit.
func runSmoke(cfg config, specPath string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		return 1
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", specPath, err)
		return 1
	}
	cfg.smoke = true
	cfg.seconds = 1
	bad := 0
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = w.Name, traced
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(cfg)
			if err != nil {
				fmt.Printf("smoke FAIL %s trace=%v: %v\n", w.Name, traced, err)
				bad++
				continue
			}
			if !res.Correct || res.Attempted < 1 {
				fmt.Printf("smoke FAIL %s trace=%v: correct=%v attempted=%d\n", w.Name, traced, res.Correct, res.Attempted)
				bad++
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					fmt.Printf("smoke FAIL %s trace=%v: metric %s missing or unit %q, want %q\n", w.Name, traced, m.Name, got.Unit, m.Unit)
					bad++
				}
			}
			if len(res.Metrics) != len(want) {
				fmt.Printf("smoke FAIL %s trace=%v: %d metrics reported, spec names %d\n", w.Name, traced, len(res.Metrics), len(want))
				bad++
			}
			fmt.Printf("smoke ok %s trace=%v: gates passed, %d metrics\n", w.Name, traced, len(res.Metrics))
		}
	}
	if bad > 0 {
		fmt.Printf("smoke: %d failures\n", bad)
		return 1
	}
	fmt.Println("smoke: all workloads passed")
	return 0
}
