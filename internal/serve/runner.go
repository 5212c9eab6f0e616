package serve

import (
	"context"
	"fmt"
	"strings"

	"macro3d/internal/faults"
	"macro3d/internal/flows"
	"macro3d/internal/obs/trace"
	"macro3d/internal/piton"
	"macro3d/internal/report"
)

// runSpec is the production Runner: it maps a validated JobSpec onto
// the flow and sweep entry points, wiring in the shared stage cache,
// the per-job recorder (whose JSONL stream backs /jobs/{id}/events)
// and — on fault-permitting servers — the injected daemon-path faults.
func (s *Server) runSpec(ctx context.Context, job *Job) (string, error) {
	spec := job.Spec()
	var tr *trace.Tracer
	if s.cfg.TraceDir != "" {
		tr = trace.New()
		defer s.writeJobTrace(job.ID(), tr)
	}
	fc := flows.Config{
		Piton:          tileConfig(spec.Config),
		Seed:           spec.Seed,
		MacroDieMetals: spec.MacroDieMetals,
		Workers:        spec.Workers,
		Obs:            job.rec,
		Trace:          tr,
		Cache:          s.cfg.Cache,
		CacheVerify:    s.cfg.CacheVerify,
		Verify:         spec.Verify,
	}
	switch spec.Fault {
	case "panic":
		// Note: setting AfterStage disables the stage cache for this
		// job (cacheEnabled), so a faulted job never publishes partial
		// state into the shared store.
		fc.AfterStage = faults.PanicHook(flows.StagePlace)
	case "hang":
		fc.AfterStage = faults.HangHook(flows.StagePlace, s.cfg.HangDuration)
	}

	if spec.Flow != "" {
		ppa, _, _, err := flows.Run(ctx, spec.Flow, fc)
		if err != nil {
			return "", err
		}
		return renderPPA(ppa), nil
	}

	switch spec.Sweep {
	case "pitch":
		sw, err := report.RunPitchSweepWith(ctx, fc, spec.Pitches, spec.KeepGoing)
		if err != nil {
			return "", err
		}
		return sw.Format(), nil
	case "blockage":
		sw, err := report.RunBlockageSweepWith(ctx, fc, spec.Resolutions, spec.KeepGoing)
		if err != nil {
			return "", err
		}
		return sw.Format(), nil
	case "heterotech":
		sw, err := report.RunHeteroTechSweepWith(ctx, fc, spec.KeepGoing)
		if err != nil {
			return "", err
		}
		return sw.Format(), nil
	}
	return "", fmt.Errorf("serve: empty spec") // unreachable after validate
}

// tileConfig maps the validated spec config name to a tile generator
// configuration.
func tileConfig(name string) piton.Config {
	switch name {
	case "tiny":
		return piton.Tiny()
	case "large":
		return piton.LargeCache()
	default:
		return piton.SmallCache()
	}
}

// renderPPA is the flow-result text body: the one-line summary plus
// the detail block the CLI prints.
func renderPPA(p *flows.PPA) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", p)
	fmt.Fprintf(&b, "  min period     %10.1f ps\n", p.MinPeriodPs)
	fmt.Fprintf(&b, "  power          %10.1f µW\n", p.PowerUW)
	fmt.Fprintf(&b, "  crit path      %10.1f ps over %.2f mm\n", p.CritPathPs, p.CritPathWLmm)
	fmt.Fprintf(&b, "  route overflow %10d gcell-layers\n", p.RouteOverflow)
	return b.String()
}
