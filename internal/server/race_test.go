package server

import (
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentScrapeDuringJobs is the -race regression for the shell's
// lock discipline: with the local executors running core ops and applying
// their effects while scrapers hammer /metrics (whose gauges read the
// core's state under s.mu) and /healthz, any path that reaches the core
// without the lock trips the race detector.
func TestConcurrentScrapeDuringJobs(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) { cfg.Concurrency = 2 })
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/metrics", "/healthz"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					return // server shutting down
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}

	// Distinct seeds defeat the result cache so every job really executes
	// (cache hits would skip the localExecutor path under test).
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		body := `{"kind":"static","scheme":"BestEffort","rate_gbps":1,"buffer_bytes":30000,"queues":2,"rtt_us":100,"duration_s":0.05,"sample_ms":10,"seed":` +
			string(rune('0'+seed)) + `,"specs":[{"class":0,"flows":2}]}`
		st, resp := submit(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if done := waitTerminal(t, ts, id); done.State != StateDone {
			t.Fatalf("job %s state = %s (err %q), want done", id, done.State, done.Error)
		}
	}
	close(stop)
	scrapers.Wait()
}
