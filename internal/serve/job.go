package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"macro3d/internal/flows"
	"macro3d/internal/obs"
)

// JobState is the lifecycle position of a job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the JSON body of POST /jobs: one flow run or one sweep.
type JobSpec struct {
	// Flow selects a single flow run: 2d, macro3d, s2d, bfs2d, c2d.
	// Mutually exclusive with Sweep.
	Flow string `json:"flow,omitempty"`

	// Sweep selects a multi-point experiment: pitch, blockage,
	// heterotech. Sweep points share stage-cache prefixes with each
	// other and with every other tenant's jobs.
	Sweep string `json:"sweep,omitempty"`

	// Config is the tile configuration: tiny, small (default), large.
	Config string `json:"config,omitempty"`

	Seed           uint64 `json:"seed,omitempty"`
	MacroDieMetals int    `json:"macro_die_metals,omitempty"`

	// Pitches / Resolutions override the swept points of the pitch and
	// blockage sweeps (empty = the experiment defaults).
	Pitches     []float64 `json:"pitches,omitempty"`
	Resolutions []float64 `json:"resolutions,omitempty"`

	// Workers is the per-job worker count of the engines' data-parallel
	// phases (flows.Config.Workers, the CLI's -j). Default 1: a
	// multi-tenant daemon gets its parallelism across jobs, not within
	// them. Results are bit-identical at any setting.
	Workers int `json:"workers,omitempty"`

	// TimeoutMS bounds the job's wall clock; 0 inherits the server
	// default. The server's JobTimeout is a hard ceiling either way.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	KeepGoing bool `json:"keep_going,omitempty"` // sweeps: skip failed points
	Verify    bool `json:"verify,omitempty"`     // independent sign-off verification

	// Fault injects a daemon-path fault (testing only; rejected unless
	// the server runs with AllowFaults): "panic" makes a stage panic
	// mid-job, "hang" makes a stage ignore cancellation.
	Fault string `json:"fault,omitempty"`
}

// validate normalizes and checks the spec at admission, so malformed
// submissions are rejected with 400 before consuming a queue slot.
func (sp *JobSpec) validate(allowFaults bool) error {
	if (sp.Flow == "") == (sp.Sweep == "") {
		return fmt.Errorf("spec: exactly one of flow or sweep is required")
	}
	if names := flows.Names(); sp.Flow != "" && !slices.Contains(names, sp.Flow) {
		return fmt.Errorf("spec: unknown flow %q (want %s)", sp.Flow, strings.Join(names, ", "))
	}
	switch sp.Sweep {
	case "", "pitch", "blockage", "heterotech":
	default:
		return fmt.Errorf("spec: unknown sweep %q (want pitch, blockage or heterotech)", sp.Sweep)
	}
	if sp.Config == "" {
		sp.Config = "small"
	}
	switch sp.Config {
	case "tiny", "small", "large":
	default:
		return fmt.Errorf("spec: unknown config %q (want tiny, small or large)", sp.Config)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Workers <= 0 {
		sp.Workers = 1
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("spec: negative timeout_ms")
	}
	switch sp.Fault {
	case "":
	case "panic", "hang":
		if !allowFaults {
			return fmt.Errorf("spec: fault injection is disabled on this server")
		}
	default:
		return fmt.Errorf("spec: unknown fault %q (want panic or hang)", sp.Fault)
	}
	return nil
}

// StageFailure is the JSON view of a typed *flows.StageError surfaced
// in a failed job record.
type StageFailure struct {
	Flow     string `json:"flow,omitempty"`
	Stage    string `json:"stage"`
	Seed     uint64 `json:"seed"`
	Attempt  int    `json:"attempt,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
}

// Job is one submitted unit of work. All fields behind mu; readers go
// through View/State.
type Job struct {
	id   string
	spec JobSpec

	rec    *obs.Recorder // per-job recorder; its JSONL stream feeds events
	events *tailBuffer

	mu        sync.Mutex
	state     JobState
	err       string
	stageErr  *StageFailure
	result    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancelReq bool
	cancel    func()
	abandoned bool

	done chan struct{} // closed exactly once, on reaching a terminal state
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		id:        id,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		events:    newTailBuffer(maxEventBytes),
		rec:       obs.New(),
		done:      make(chan struct{}),
	}
	j.rec.SetSink(j.events)
	return j
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the normalized submission.
func (j *Job) Spec() JobSpec { return j.spec }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Events returns the job's JSONL observability stream so far.
func (j *Job) Events() []byte { return j.events.Snapshot() }

// claimRunning moves queued → running. It reports false when the job
// was canceled while queued (the worker must skip it).
func (j *Job) claimRunning(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// requestCancel flags the job and fires its context (when running).
// Reports whether the request had any effect. A queued job transitions
// to canceled immediately — it will never start.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelReq = true
	if j.state == StateQueued {
		j.state = StateCanceled
		j.err = "canceled before start"
		j.finished = time.Now()
		j.mu.Unlock()
		close(j.done)
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// finish moves the job to a terminal state exactly once; late results
// from an abandoned runner goroutine are dropped. Returns the state
// actually reached ("" if the job was already terminal).
func (j *Job) finish(state JobState, result, errMsg string, stageErr *StageFailure, abandoned bool) JobState {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return ""
	}
	// Flush the event stream (idempotent) before the terminal state is
	// visible: a client that polls "done" and then fetches /events must
	// find the whole stream, not what had left the sink's buffer.
	j.rec.Close()
	j.state = state
	j.result = result
	j.err = errMsg
	j.stageErr = stageErr
	j.abandoned = abandoned
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
	return state
}

// times snapshots the job's lifecycle timestamps (zero when the
// corresponding transition has not happened).
func (j *Job) times() (submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted, j.started, j.finished
}

// canceledRequested reports whether Cancel was called on the job.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelReq
}

// JobView is the JSON rendering of a job record.
type JobView struct {
	ID          string        `json:"id"`
	State       JobState      `json:"state"`
	Spec        JobSpec       `json:"spec"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	DurationMS  int64         `json:"duration_ms,omitempty"`
	Error       string        `json:"error,omitempty"`
	StageError  *StageFailure `json:"stage_error,omitempty"`
	Abandoned   bool          `json:"abandoned,omitempty"`
	Result      string        `json:"result,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		SubmittedAt: j.submitted,
		Error:       j.err,
		StageError:  j.stageErr,
		Abandoned:   j.abandoned,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		if !j.started.IsZero() {
			v.DurationMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return v
}

// stageFailure extracts the typed stage diagnostics from a flow error
// chain, nil when the error carries none.
func stageFailure(err error) *StageFailure {
	var se *flows.StageError
	if !errors.As(err, &se) {
		return nil
	}
	return &StageFailure{
		Flow:     se.Flow,
		Stage:    se.Stage,
		Seed:     se.Seed,
		Attempt:  se.Attempt,
		Panicked: len(se.Stack) > 0,
	}
}

// maxEventBytes bounds one job's buffered JSONL event stream; beyond
// it the stream stops growing (the bound keeps a hostile or huge job
// from holding the daemon's memory hostage).
const maxEventBytes = 4 << 20

// tailBuffer is an append-only in-memory byte log with a hard cap.
// Writers (the job's obs sink) append; readers snapshot or poll from
// an offset. Safe for concurrent use.
type tailBuffer struct {
	mu        sync.Mutex
	buf       []byte
	max       int
	truncated bool
}

func newTailBuffer(max int) *tailBuffer { return &tailBuffer{max: max} }

// Write implements io.Writer. Past the cap, input is dropped (never an
// error — the obs sink must not poison the flow over a full buffer).
func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	if room := b.max - len(b.buf); room > 0 {
		if len(p) > room {
			b.buf = append(b.buf, p[:room]...)
			b.truncated = true
		} else {
			b.buf = append(b.buf, p...)
		}
	} else if len(p) > 0 {
		b.truncated = true
	}
	b.mu.Unlock()
	return len(p), nil
}

// Snapshot returns a copy of the buffered bytes.
func (b *tailBuffer) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, len(b.buf))
	copy(out, b.buf)
	return out
}

// From returns a copy of the bytes at and after off (for follow mode).
func (b *tailBuffer) From(off int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off >= len(b.buf) {
		return nil
	}
	out := make([]byte, len(b.buf)-off)
	copy(out, b.buf[off:])
	return out
}

// Len returns the buffered byte count.
func (b *tailBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}
