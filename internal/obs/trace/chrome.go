// Chrome trace-event export. The on-disk shape is the JSON object
// form of the trace-event format — {"traceEvents":[...]} — which
// loads directly in Perfetto and chrome://tracing:
//
//   - one ph:"M" process_name record, then one ph:"M" thread_name
//     record per track (tid = track registration index), so the UI
//     shows one named row per worker plus the flow-stage row;
//   - one ph:"X" complete event per slice with ts/dur in microseconds
//     and the slice attributes (plus the fork-join step id) in args.
//
// Events are written in track-registration order, then append order
// within each track — never sorted by timestamp — so two identical
// runs differ only in ts/dur values. NormalizeChrome exists for
// exactly that comparison.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"time"
)

const chromePID = 1

// chromeEvent is the wire shape of one trace event. Field order is
// fixed by the struct, keeping the output byte-deterministic.
type chromeEvent struct {
	Ph   string           `json:"ph"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ts   *float64         `json:"ts,omitempty"`
	Dur  *float64         `json:"dur,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeMeta struct {
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Name string            `json:"name"`
	Args map[string]string `json:"args"`
}

// WriteChrome writes the trace as Chrome trace-event JSON. The writer
// is buffered internally; the first error is returned.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := func(v any, last bool) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		sep := ",\n"
		if last {
			sep = "\n"
		}
		_, err = bw.WriteString(sep)
		return err
	}
	tracks := t.Tracks()
	total := 1 + len(tracks) // metadata events
	type flat struct {
		tid int
		sl  Slice
	}
	var all []flat
	for tid, k := range tracks {
		for _, sl := range k.Slices() {
			all = append(all, flat{tid, sl})
		}
	}
	total += len(all)
	n := 0
	emit := func(v any) error {
		n++
		return enc(v, n == total)
	}
	if err := emit(chromeMeta{Ph: "M", Pid: chromePID, Tid: 0,
		Name: "process_name", Args: map[string]string{"name": "macro3d"}}); err != nil {
		return err
	}
	for tid, k := range tracks {
		if err := emit(chromeMeta{Ph: "M", Pid: chromePID, Tid: tid,
			Name: "thread_name", Args: map[string]string{"name": k.Name()}}); err != nil {
			return err
		}
	}
	for _, f := range all {
		ts := float64(f.sl.Start) / 1e3
		dur := float64(f.sl.Dur) / 1e3
		ev := chromeEvent{Ph: "X", Pid: chromePID, Tid: f.tid,
			Name: f.sl.Name, Cat: f.sl.Cat, Ts: &ts, Dur: &dur}
		if f.sl.Step != 0 || len(f.sl.Args) > 0 {
			ev.Args = map[string]int64{}
			if f.sl.Step != 0 {
				ev.Args["step"] = f.sl.Step
			}
			for _, a := range f.sl.Args {
				ev.Args[a.Key] = a.Val
			}
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

var chromeTimeRe = regexp.MustCompile(`"(ts|dur)":[0-9][0-9.e+-]*`)

// NormalizeChrome replaces every ts/dur value with a placeholder so
// two traces of identical runs can be compared byte-for-byte. The
// structure — track order, event order, names, categories, step ids
// and counts — is untouched.
func NormalizeChrome(b []byte) []byte {
	return chromeTimeRe.ReplaceAll(b, []byte(`"$1":0`))
}

// maxNS bounds every time ReadChrome accepts, 2^50 ns (13 days): up to
// it the microseconds WriteChrome writes parse back to the same
// nanosecond, so a re-export is a fixed point.
const maxNS = 1 << 50

// ReadChrome parses a trace written by WriteChrome back into a Tracer,
// for `macro3d trace-report -in`. It accepts only this package's
// dialect: {"traceEvents":[...]} of thread_name metadata, registering
// tracks in order, and complete events, each on a thread named before
// it, with ts and dur in [0, maxNS] summing within int64 — so no
// analysis of what it returns goes negative. Events decode one at a
// time and each slice is held once before its track is sized, so it
// allocates a small multiple of the input.
func ReadChrome(r io.Reader) (*Tracer, error) {
	cr := chromeReader{dec: json.NewDecoder(r), t: NewAt(time.Unix(0, 0)), tracks: map[int]*Track{}}
	err := cr.expect(json.Delim('{'), "traceEvents", json.Delim('['))
	for err == nil && cr.dec.More() {
		err = cr.event()
	}
	if err == nil {
		err = cr.expect(json.Delim(']'), json.Delim('}'))
	}
	if err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	n := map[*Track]int{}
	for _, b := range cr.blocks {
		for _, h := range b {
			n[h.k]++
		}
	}
	for k, c := range n {
		k.slices = make([]Slice, 0, c)
	}
	for _, b := range cr.blocks {
		for _, h := range b {
			h.k.slices = append(h.k.slices, h.sl)
		}
	}
	return cr.t, nil
}

// chromeReader is ReadChrome's state: the tracks by tid and the
// complete events' slices, held in fixed-size blocks that never move.
type chromeReader struct {
	dec    *json.Decoder
	t      *Tracer
	tracks map[int]*Track
	blocks [][]heldSlice
	busy   int64 // Σ dur so far

	ev   chromeIn // reused, with the args buffers
	args map[string]int64
	keys []string
}

type heldSlice struct {
	k  *Track
	sl Slice
}

// chromeIn is the wire shape of any event; a missing ts or dur stays NaN.
type chromeIn struct {
	Ph   string          `json:"ph"`
	Tid  int             `json:"tid"`
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Args json.RawMessage `json:"args"`
}

func (cr *chromeReader) expect(want ...json.Token) error {
	for _, w := range want {
		if tok, err := cr.dec.Token(); err != nil {
			return err
		} else if tok != w {
			return fmt.Errorf("want %v, got %v", w, tok)
		}
	}
	return nil
}

// event decodes one event: a thread_name registers its tid's track, a
// complete event is validated and its slice held for its track.
func (cr *chromeReader) event() error {
	ev := &cr.ev
	*ev = chromeIn{Ts: math.NaN(), Dur: math.NaN(), Args: ev.Args[:0]}
	if err := cr.dec.Decode(ev); err != nil {
		return err
	}
	if ev.Ph == "M" && ev.Name == "thread_name" {
		var a struct{ Name string }
		err := json.Unmarshal(ev.Args, &a)
		cr.tracks[ev.Tid] = cr.t.Track(a.Name)
		return err
	}
	if ev.Ph != "X" {
		return nil
	}
	k := cr.tracks[ev.Tid]
	start, dur := math.Round(ev.Ts*1e3), math.Round(ev.Dur*1e3)
	switch {
	case k == nil:
		return fmt.Errorf("event %q: no thread_name for tid %d before it", ev.Name, ev.Tid)
	case !(start >= 0 && start <= maxNS && dur >= 0 && dur <= maxNS) || int64(dur) > math.MaxInt64-cr.busy:
		return fmt.Errorf("event %q: ts %v µs, dur %v µs: missing or out of range", ev.Name, ev.Ts, ev.Dur)
	}
	cr.busy += int64(dur)
	clear(cr.args)
	if len(ev.Args) > 0 {
		if err := json.Unmarshal(ev.Args, &cr.args); err != nil {
			return err
		}
	}
	sl := Slice{Name: ev.Name, Cat: ev.Cat, Start: int64(start), Dur: int64(dur), Step: cr.args["step"]}
	delete(cr.args, "step")
	cr.keys = cr.keys[:0]
	for key := range cr.args {
		cr.keys = append(cr.keys, key)
	}
	slices.Sort(cr.keys)
	if len(cr.keys) > 0 {
		sl.Args = make([]Arg, len(cr.keys))
	}
	for i, key := range cr.keys {
		sl.Args[i] = Arg{Key: key, Val: cr.args[key]}
	}
	if n := len(cr.blocks); n == 0 || len(cr.blocks[n-1]) == cap(cr.blocks[n-1]) {
		cr.blocks = append(cr.blocks, make([]heldSlice, 0, 256))
	}
	b := &cr.blocks[len(cr.blocks)-1]
	*b = append(*b, heldSlice{k, sl})
	return nil
}
