package obs_test

import (
	"net/http"
	"testing"

	"macro3d/internal/obs"
	"macro3d/internal/obs/obshttp"
)

// TestServerCloseIdempotent double-closes the observability HTTP
// endpoint: the second Close is a no-op returning the first result,
// and the port is actually released.
func TestServerCloseIdempotent(t *testing.T) {
	r := obs.New()
	s, err := obshttp.Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatalf("endpoint not serving: %v", err)
	}
	resp.Body.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := http.Get(s.URL() + "/metrics"); err == nil {
		t.Error("endpoint still serving after Close")
	}
}
