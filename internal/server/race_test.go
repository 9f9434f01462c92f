package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestMetricsScrapeDuringDrops is the -race regression for the drop counter:
// /metrics reads every stream's counter under s.mu while a publisher bumps it
// under the broadcaster's own lock, so dropped() must take that lock itself.
// The publisher here overflows a subscriber nobody reads, which no job in the
// other tests does while a scrape is in flight.
func TestMetricsScrapeDuringDrops(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	// A held job has a stream and publishes nothing of its own.
	held, _ := holdJobs(s)
	st, _ := submit(t, ts, testScenario)
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	s.mu.Lock()
	bc := s.streams[st.ID]
	s.mu.Unlock()
	if bc == nil {
		t.Fatal("held job has no event stream")
	}
	line := []byte(`{"kind":"x"}` + "\n")
	bc.subscribe()
	for i := 0; i < subBuffer; i++ {
		bc.publish(0, line)
	}

	const drops = 500
	var publisher sync.WaitGroup
	publisher.Add(1)
	go func() {
		defer publisher.Done()
		for i := 0; i < drops; i++ {
			bc.publish(0, line)
		}
	}()
	scrape := func() []byte {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET metrics: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	for i := 0; i < 20; i++ {
		scrape()
	}
	publisher.Wait()
	if want := fmt.Sprintf("dynaqd_events_dropped_total %d\n", drops); !bytes.Contains(scrape(), []byte(want)) {
		t.Fatalf("metrics lack %q", want)
	}
}

// TestShutdownStopsEveryGoroutine: a goroutine the server starts must end by
// the time Shutdown returns, whatever it was blocked on, so once the HTTP
// listener is closed too no goroutine is left inside a Server method. One
// parked on a timer with no way to be told to stop shows up here by name.
func TestShutdownStopsEveryGoroutine(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.Start()
	st, _ := submit(t, ts, testScenario)
	if done := waitTerminal(t, ts, st.ID); done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Error)
	}
	if err := s.Shutdown(shutdownCtx(t)); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ts.Close()

	// A goroutine that has run its last deferred call can still be listed
	// for a moment, so look again for a while before calling it a leak.
	var leaked []string
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		leaked = leaked[:0]
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, "internal/server.(*Server)") && !strings.Contains(g, "TestShutdownStopsEveryGoroutine") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return
		}
	}
	t.Fatalf("%d goroutine(s) still inside the server after Shutdown:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}
