package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"macro3d"
)

// command is one mode's command line. A flag several modes share is
// declared once, in this file (tile, runOn, array, timeout, cache,
// checked), with its check attached; parse runs every check first.
type command struct {
	*flag.FlagSet
	checks []func() error
}

func newCommand(name string) *command {
	return &command{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
}

// check adds a rule the parsed command line must satisfy.
func (c *command) check(rule func() error) { c.checks = append(c.checks, rule) }

// parse parses args and holds them to every check. When the run must not
// start, ok is false and code is the exit status: 0 after -h, 2 for a
// usage error — a bad flag or value, a failed check, or a stray word
// among the flags (flag parsing stops at the first non-flag, so every
// flag after it would otherwise be silently dropped).
func (c *command) parse(args []string) (code int, ok bool) {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if c.NArg() > 0 {
		fmt.Fprintf(c.Output(), "%s: unexpected argument %q (flags after it would be ignored)\n", c.Name(), c.Arg(0))
		c.Usage()
		return 2, false
	}
	for _, rule := range c.checks {
		if err := rule(); err != nil {
			fmt.Fprintf(c.Output(), "%s: %v\n", c.Name(), err)
			return 2, false
		}
	}
	return 0, true
}

// atLeast checks that the flag name's value *p is min or more.
func atLeast[T int | int64 | time.Duration](c *command, name string, p *T, min T) {
	c.check(func() error {
		if *p < min {
			return fmt.Errorf("-%s %v: want %v or more", name, *p, min)
		}
		return nil
	})
}

func (c *command) timeout(p *time.Duration) {
	c.DurationVar(p, "timeout", 0, "cancel the run after this duration (0 = no limit)")
	atLeast(c, "timeout", p, 0)
}

// checked declares -check, flows.Config.Check.
func (c *command) checked(p *bool) {
	c.BoolVar(p, "check", false, "check the run without changing its results: verify sign-off independently, hold the optimizer's incremental state to a recompute, and re-run each cache hit, failing unless it matches bit-for-bit")
}

func (c *command) array(p *int, def int, usage string) {
	c.IntVar(p, "array", def, usage)
	atLeast(c, "array", p, 0)
}

// tileFlag is -config: a tile name, which Set parses, and the
// configuration it names.
type tileFlag struct {
	name string
	cfg  macro3d.TileConfig
}

func (t *tileFlag) String() string { return t.name }

func (t *tileFlag) Set(name string) error {
	tile, ok := map[string]func() macro3d.TileConfig{"small": macro3d.SmallCache, "large": macro3d.LargeCache, "tiny": macro3d.TinyTile}[name]
	if !ok {
		return fmt.Errorf("unknown config %q (want small, large or tiny)", name)
	}
	t.name, t.cfg = name, tile()
	return nil
}

func (c *command) tile(t *tileFlag, def string) {
	_ = t.Set(def) // def is one of the names Set knows
	c.Var(t, "config", "tile configuration `name`: small, large or tiny")
}

// runFlags pick what a flow runs on and with how many workers.
type runFlags struct {
	tile         tileFlag
	seed         uint64
	jobs, metals int
}

// runOn declares -config (defaulting to tile), -seed, -j and
// -macrodiemetals.
func (c *command) runOn(r *runFlags, tile, jobsUsage string) {
	c.tile(&r.tile, tile)
	c.Uint64Var(&r.seed, "seed", 1, "deterministic seed")
	c.IntVar(&r.jobs, "j", 0, jobsUsage)
	atLeast(c, "j", &r.jobs, 0)
	c.IntVar(&r.metals, "macrodiemetals", 6, "macro-die metal layers (3D flows)")
	atLeast(c, "macrodiemetals", &r.metals, 1)
}

func (r *runFlags) flowConfig() macro3d.FlowConfig {
	return macro3d.FlowConfig{Piton: r.tile.cfg, Seed: r.seed, MacroDieMetals: r.metals, Workers: r.jobs}
}

// cacheFlags name the stage cache.
type cacheFlags struct {
	dir string
	max int64
}

func (c *command) cache(cf *cacheFlags) {
	c.StringVar(&cf.dir, "cache-dir", "", "content-addressed stage cache directory: snapshots of completed stages and hardened abstracts skip recomputation on later runs")
	c.Int64Var(&cf.max, "cache-max-bytes", 0, "stage cache byte budget: evict least-recently-used snapshots to stay under this size (0 = unlimited)")
	atLeast(c, "cache-max-bytes", &cf.max, 0)
	c.check(func() error {
		if cf.max != 0 && cf.dir == "" {
			return errors.New("-cache-max-bytes needs -cache-dir")
		}
		return nil
	})
}

// open opens the cache, nil when there is none.
func (cf *cacheFlags) open() (*macro3d.StageCache, error) {
	if cf.dir == "" {
		return nil, nil
	}
	return macro3d.OpenStageCacheLimited(cf.dir, cf.max)
}

// mode is the entry point of a mode: it parses the command line, runs
// the mode under a context that Ctrl-C or SIGTERM cancels — and the
// mode's -timeout, when it declares one — and exits 1 after printing a
// failure.
func mode[O any](newFlags func(*O) *command, run func(context.Context, *O) error) func(args []string) int {
	return func(args []string) int {
		var o O
		c := newFlags(&o)
		if code, ok := c.parse(args); !ok {
			return code
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if f := c.Lookup("timeout"); f != nil {
			if d := f.Value.(flag.Getter).Get().(time.Duration); d > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, d)
				defer cancel()
			}
		}
		if err := run(ctx, &o); err != nil {
			printFailure(c.Name(), err)
			return 1
		}
		return 0
	}
}

// atomicFile writes to a temporary file next to the destination that
// finish renames into place, so readers never observe a partial file and
// a failed run never clobbers a previous good output.
type atomicFile struct {
	*os.File
	path string
}

func createAtomic(path string) (*atomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	// A temporary file is private (0600); the output is not.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &atomicFile{File: f, path: path}, nil
}

// finish commits the file — sync, close, rename onto the destination —
// when err is nil, and discards it otherwise. It returns err, or the
// commit's own failure.
func (a *atomicFile) finish(err error) error {
	if err == nil {
		err = a.Sync()
	}
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(a.Name(), a.path)
	}
	if err != nil {
		os.Remove(a.Name())
	}
	return err
}

// writeAtomic writes path through an atomicFile that write fills.
func writeAtomic(path string, write func(w io.Writer) error) error {
	f, err := createAtomic(path)
	if err != nil {
		return err
	}
	return f.finish(write(f))
}

// writeOutput writes an output file of layoutviz or pitongen and says so
// on stdout.
func writeOutput(path string, write func(w io.Writer) error) error {
	if err := writeAtomic(path, write); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// printCacheSummary renders one run's cache traffic, duplicate puts and
// the snapshots refused as larger than -cache-max-bytes included.
func printCacheSummary(cache *macro3d.StageCache) {
	s := cache.Stats()
	fmt.Fprintf(os.Stderr, "macro3d: stage cache %s: %d hits, %d misses, %d stored (%d dup), %d evicted, %d errors, %d refused over the cap, %d B read, %d B written\n",
		cache.Dir(), s.Hits, s.Misses, s.Puts, s.DupPuts, s.Evictions, s.Errors, s.CapSkips, s.BytesRead, s.BytesWritten)
}

// printFailure renders the failed run of the mode name: StageError
// diagnostics when the error chain carries one, a plain message
// otherwise.
func printFailure(name string, err error) {
	var se *macro3d.StageError
	if !errors.As(err, &se) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: flow failed\n", name)
	fmt.Fprintf(os.Stderr, "  flow    %s\n", se.Flow)
	fmt.Fprintf(os.Stderr, "  stage   %s\n", se.Stage)
	fmt.Fprintf(os.Stderr, "  seed    %d\n", se.Seed)
	if se.Config != "" {
		fmt.Fprintf(os.Stderr, "  config  %s\n", se.Config)
	}
	fmt.Fprintf(os.Stderr, "  cause   %v\n", se.Cause)
	var pe *macro3d.PanicError
	if errors.As(se.Cause, &pe) && len(pe.Stack) > 0 {
		fmt.Fprintf(os.Stderr, "  stack:\n%s\n", pe.Stack)
	}
	fmt.Fprintf(os.Stderr, "  (full error: %v)\n", err)
}
