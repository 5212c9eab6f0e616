package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestRecorderCloseIdempotent closes a Recorder twice (a teardown path
// may double-close): both calls must return the same
// result, events after Close must be dropped rather than written or
// panicking, and SetSink must re-arm the stream.
func TestRecorderCloseIdempotent(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetSink(&buf)
	r.Emit("before_close")
	if err := r.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	n := buf.Len()
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r.Emit("after_close") // must be dropped, not crash or append
	r.Sample()
	if buf.Len() != n {
		t.Errorf("events written after Close: %d bytes grew to %d", n, buf.Len())
	}
	if !strings.Contains(buf.String(), "before_close") {
		t.Error("pre-Close event lost")
	}

	// Metrics and spans stay usable after Close.
	r.Registry().Counter("post_close_total", "t").Inc()
	sp := r.StartSpan("post-close")
	sp.End()

	// SetSink re-arms the event stream.
	var buf2 bytes.Buffer
	r.SetSink(&buf2)
	r.Emit("rearmed")
	if err := r.Close(); err != nil {
		t.Fatalf("Close after re-arm: %v", err)
	}
	if !strings.Contains(buf2.String(), "rearmed") {
		t.Error("re-armed sink did not receive events")
	}
}

// TestRecorderCloseConcurrent double-closes from racing goroutines
// (run with -race): no panic, no double flush.
func TestRecorderCloseConcurrent(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetSink(&buf)
	done := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_ = r.Close()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

// TestNilRecorderClose asserts the nil-safety contract extends to
// Close on the disabled Recorder.
func TestNilRecorderClose(t *testing.T) {
	var r *Recorder
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
