package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runAgree is the benchmark's check on itself: two interleaved sets
// of n runs per workload, set A at seeds 1..n and set B at n+1..2n,
// then per workload and end-to-end metric both medians, how much
// worse B's is than A's, each set's spread (interquartile distance
// over median, as the acceptance driver computes it) and the bound.
// A difference or a spread beyond the bound is a breach; setup_s is
// held to the difference only.
func runAgree(n int, o options, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type set map[string][]float64 // metric → one value per run
	sets := map[string][2]set{}
	for _, wl := range workloads {
		sets[wl.name] = [2]set{{}, {}}
	}
	for i := 1; i <= n; i++ {
		for _, wl := range workloads {
			for s, seed := range []int{i, n + i} {
				res, err := runChild(self, o, wl.name, seed)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d steps failed", wl.name, seed, res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					sets[wl.name][s][name] = append(sets[wl.name][s][name], v.Value)
				}
			}
		}
	}

	fmt.Fprintf(w, "# Agreement of two interleaved sets of %d runs (size %s, %g s per run)\n\n", n, o.size, o.seconds)
	fmt.Fprintf(w, "%s, %d CPUs, GOMAXPROCS %d in every run. Set A ran at seeds 1..%d, set B at %d..%d, alternating run by run.\n\n",
		runtime.Version(), runtime.NumCPU(), min(2, runtime.NumCPU()), n, n+1, 2*n)
	fmt.Fprintln(w, "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	breaches := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := sets[wl.name][0][d.Name], sets[wl.name][1][d.Name]
			diff := worseBy(median(a), median(b), d.Better)
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if diff > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "| %s | %s | %.6g %s | %.6g %s | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				wl.name, d.Name, median(a), d.Unit, median(b), d.Unit, 100*diff, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d workload × metric pairs outside their bound", breaches)
	}
	return nil
}

// runChild runs one workload in a process of its own and parses the
// result from the last line of its output.
func runChild(self string, o options, workload string, seed int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-size", o.size, "-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result on the last line of output: %w", err)
	}
	return &res, nil
}
