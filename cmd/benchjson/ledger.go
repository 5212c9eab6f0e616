package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"macro3d/internal/par"
)

// The flow ledger's committed trajectory (BENCH_flow.json): one row per
// PR with the seven gated end-to-end metrics of each workload of
// bench/, so the numbers CHANGES.md quotes can be read back as data.
// `make bench-flow` appends a row with
//
//	benchjson -ledger BENCH_flow.json -commit <id> table2 baselines-j1 … < BENCH_flow.jsonl
//
// where stdin carries the one JSON line bench/run.sh printed per
// workload, in the order the workloads are named.

type ledger struct {
	Rows []ledgerRow `json:"rows"`
}

type ledgerRow struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Workloads maps workload → metric → value, units as BENCHMARK.json
	// declares them.
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// flowLine is the part of a bench/run.sh output line the ledger keeps.
type flowLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// ledgerRowFrom reads one run.sh line per named workload.
func ledgerRowFrom(in io.Reader, commit string, workloads []string) (ledgerRow, error) {
	row := ledgerRow{
		Commit: commit, Go: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: par.Workers(0), // GOMAXPROCS
		Workloads: map[string]map[string]float64{},
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for _, w := range workloads {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return row, err
			}
			return row, fmt.Errorf("no result line for workload %s", w)
		}
		var l flowLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return row, fmt.Errorf("workload %s: %w", w, err)
		}
		if !l.Correct || l.Failed != 0 || len(l.Metrics) == 0 {
			return row, fmt.Errorf("workload %s: run not correct (correct=%v failed=%d, %d metrics)",
				w, l.Correct, l.Failed, len(l.Metrics))
		}
		m := make(map[string]float64, len(l.Metrics))
		for k, v := range l.Metrics {
			m[k] = v.Value
		}
		row.Workloads[w] = m
	}
	return row, nil
}

// readIfExists decodes the JSON file at path into v, and leaves v as it
// is when there is no such file.
func readIfExists(path string, v any) error {
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// appendLedger adds the row to the ledger file (created when absent),
// replacing an earlier row of the same commit so a re-run does not
// stack duplicates.
func appendLedger(path string, row ledgerRow) error {
	var l ledger
	if err := readIfExists(path, &l); err != nil {
		return err
	}
	for i := range l.Rows {
		if l.Rows[i].Commit == row.Commit {
			l.Rows[i] = row
			return write(path, &l)
		}
	}
	l.Rows = append(l.Rows, row)
	return write(path, &l)
}
