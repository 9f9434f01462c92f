//go:build unix

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynaq/internal/fleet"
)

// Four defects of the goroutine-per-job coordinator that the state-machine
// core removes; each test fails at the commit before it.

// TestShutdownWithoutStart: a server that was never started has nothing to
// drain, so Shutdown returns at once. It used to wait for a drainer
// goroutine that only Start launches, until the caller's context expired.
func TestShutdownWithoutStart(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown of a never-started server: %v", err)
	}
}

// TestJobTimeoutOnInjectedClock: a job's deadline is on Config.Clock like
// every other deadline, so stepping a ManualClock past JobTimeout fails the
// job. It used to ride a context.WithTimeout on the wall clock.
func TestJobTimeoutOnInjectedClock(t *testing.T) {
	mc := fleet.NewManualClock(time.Unix(1_700_000_000, 0))
	s, ts := newTestServer(t, func(c *Config) {
		c.Clock = mc
		c.JobTimeout = time.Minute
		c.LeaseTTL = time.Hour // the registered worker stays live; the local pool stands down
	})
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	if g := leaseAs(t, ts, "idle"); g != nil {
		t.Fatalf("unexpected grant before any submission: %+v", g)
	}
	st, _ := submit(t, ts, testScenario)
	waitFor(t, func() bool { return getStatus(t, ts, st.ID).State == StateRunning })
	mc.Advance(2 * time.Minute)

	deadline := time.Now().Add(3 * time.Second)
	for getStatus(t, ts, st.ID).State != StateFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job is %s two minutes of injected time into a one-minute timeout", getStatus(t, ts, st.ID).State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := getStatus(t, ts, st.ID); !strings.Contains(got.Error, "cancelled") || got.Cells[0].State != StateFailed {
		t.Fatalf("timed-out job = %+v, want cancelled with its cell failed", got)
	}
}

// TestSettleRemovesOnlyItsMarker: a job remembers the name of its queue
// marker and settling removes that file. It used to list queue/ and delete
// whatever ended in the job's id.
func TestSettleRemovesOnlyItsMarker(t *testing.T) {
	s, ts := newTestServer(t, nil)
	held, release := holdJobs(s)
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, _ := submit(t, ts, testScenario)
	j := <-held
	bystander := filepath.Join(s.cfg.DataDir, "queue", "not-a-marker-"+st.ID)
	if err := os.WriteFile(bystander, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	release(j)
	if done := waitTerminal(t, ts, st.ID); done.State != StateDone {
		t.Fatalf("job = %s (err %q), want done", done.State, done.Error)
	}
	left, _ := os.ReadDir(filepath.Join(s.cfg.DataDir, "queue"))
	if len(left) != 1 || left[0].Name() != filepath.Base(bystander) {
		t.Fatalf("queue/ after settling = %v, want only the bystander file", markerNames(left))
	}
}

// TestRequeueReadsOutsideTheLock: a dead-letter requeue reads and rebuilds
// its jobs before the one locked op. It used to hold the lock across the
// reads, stalling every lease and heartbeat behind a slow disk — here a
// request.json that is a FIFO nobody has written to yet.
func TestRequeueReadsOutsideTheLock(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxAttempts = 1
		c.LeaseTTL = time.Hour
	})
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	leaseAs(t, ts, "saboteur")
	st, _ := submit(t, ts, testScenario)
	var g *fleet.LeaseGrant
	waitFor(t, func() bool { g = leaseAs(t, ts, "saboteur"); return g != nil })
	completeLease(t, ts, g.LeaseID, fleet.CompleteRequest{Worker: "saboteur", CacheKey: g.CacheKey, Error: "injected fault"})
	if done := waitTerminal(t, ts, st.ID); done.State != StateFailed {
		t.Fatalf("job = %s, want failed by quarantine", done.State)
	}

	request := filepath.Join(s.jobDir(st.ID), "request.json")
	if err := os.Remove(request); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(request, 0o644); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}

	type result struct {
		code int
		resp fleet.RequeueResponse
	}
	requeued := make(chan result, 1)
	go func() {
		var res result
		resp, err := http.Post(ts.URL+"/v1/deadletter/requeue", "application/json", strings.NewReader(`{}`))
		if err == nil {
			res.code = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&res.resp)
			resp.Body.Close()
		}
		requeued <- res
	}()
	// The requeue is now (or soon) blocked opening the FIFO. Everyone else
	// must still be served.
	client := http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 20; i++ {
		resp, err := client.Get(ts.URL + "/healthz")
		if err != nil {
			t.Errorf("healthz while a requeue waits on its disk read: %v", err)
			break
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	// Let the read finish. What it reads no longer validates, so the job is
	// dropped and nothing is written back through the FIFO.
	if err := os.WriteFile(request, []byte(`{"kind":"nonsense"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res := <-requeued
	if res.code != http.StatusOK || len(res.resp.Requeued) != 0 || len(res.resp.Dropped) != 1 || res.resp.Dropped[0] != g.CacheKey {
		t.Fatalf("requeue = %d %+v, want 200 with the cell dropped", res.code, res.resp)
	}
}

// Two ways one request used to take the daemon down for good: the marker of
// the job that killed it was on disk, so the next life recovered the job and
// died again.

// TestNegativeSampleIntervalIs400: a static document with a negative sampling
// interval is refused at submission, naming the field. It used to be accepted
// and panic in the throughput sampler on the executor.
func TestNegativeSampleIntervalIs400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := strings.Replace(testScenario, `"sample_ms":10`, `"sample_ms":-5`, 1)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || eb.Field != "sample_ms" {
		t.Fatalf("status %d field %q (%s), want 400 on sample_ms", resp.StatusCode, eb.Field, eb.Error)
	}
}

// TestPanickingCellFailsTheCellNotTheDaemon: a cell that panics on the local
// executor — here through its event tee — is charged an attempt like any
// failed cell, ends quarantined with the panic as its last error, and the
// daemon keeps answering.
func TestPanickingCellFailsTheCellNotTheDaemon(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxAttempts = 2
		c.RetryBase = time.Nanosecond
		c.RetryCap = time.Microsecond
	})
	s.testCellTee = func([]byte) { panic("tee exploded") }
	s.Start()
	defer s.Shutdown(shutdownCtx(t))

	st, _ := submit(t, ts, testScenario)
	done := waitTerminal(t, ts, st.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "quarantined") {
		t.Fatalf("job = %s (err %q), want failed by quarantine", done.State, done.Error)
	}
	if c := done.Cells[0]; c.State != StateQuarantined || c.Attempts != 2 || !strings.Contains(c.Error, "tee exploded") {
		t.Fatalf("cell = %+v, want quarantined after 2 attempts naming the panic", c)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d after a panicking cell", resp.StatusCode)
	}
}
