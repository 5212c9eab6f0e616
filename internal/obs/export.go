package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): # HELP / # TYPE headers, then
// one sample line. Metrics appear sorted by name. Nil-safe: a nil
// registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
				return err
			}
		}
		value := promFloat(m.Value)
		if m.Kind == "counter" {
			value = strconv.FormatUint(uint64(m.Value), 10)
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", m.Name, m.Kind, m.Name, value); err != nil {
			return err
		}
	}
	return nil
}

// promFloat formats a float the way Prometheus expects (shortest
// round-trip representation; NaN and ±Inf spelled out).
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonFloat prepares a gauge value for a JSONL sample event. JSON has
// no literal for NaN or ±Inf (encoding/json rejects them), and a ratio
// gauge can be NaN before its first update, so those values marshal as
// the strings Prometheus uses.
func jsonFloat(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return promFloat(v)
	}
	return v
}
