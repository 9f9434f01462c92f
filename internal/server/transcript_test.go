package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dynaq/internal/fleet"
	"dynaq/internal/telemetry"
)

var updateTranscript = flag.Bool("update-transcript", false, "rewrite testdata/transcript.golden from this run")

// TestTranscriptGolden pins the coordinator's whole observable surface on
// one scripted session: every response status and body, the replayed event
// streams, /metrics, every trace.jsonl, and the DataDir. The session runs
// on a ManualClock with an in-test worker, so nothing in it depends on
// scheduling; where the coordinator works asynchronously the script polls
// for the state it is about to record and never records a racy one.
//
// The golden was generated at the commit before the coordinator core was
// split out and must stay byte-identical: a refactor of the lifecycle may
// not move a response, a metric, a span or a file.
func TestTranscriptGolden(t *testing.T) {
	dataDir := t.TempDir()
	mc := fleet.NewManualClock(time.Unix(1_700_000_000, 0))
	cfg := Config{
		DataDir:       dataDir,
		QueueDepth:    2,
		TenantQuota:   1,
		TenantWeights: map[string]int{"acme": 2},
		Concurrency:   1,
		LeaseTTL:      10 * time.Second,
		MaxAttempts:   2,
		RetryBase:     time.Second,
		RetryCap:      4 * time.Second,
		Clock:         mc,
		Version:       "transcript-v1",
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tr := &transcript{t: t, s: s, dataDir: dataDir}

	sweep := func(seeds string, schemes string) string {
		return `{"scenario":` + testScenario + `,"schemes":[` + schemes + `],"seeds":[` + seeds + `]}`
	}
	one := func(seed string) string { return sweep(seed, `"BestEffort"`) }

	// --- first life ------------------------------------------------------
	tr.section("first life: registration and submissions")
	tr.call("healthz before start", "GET", "/healthz", "", "")
	tr.lease("w1 registers", "w1")
	s.Start()

	j1 := tr.submit("J1 acme 2x2 sweep", "acme", sweep("1,2", `"BestEffort","DynaQ"`))
	j2 := tr.submit("J2 zeta one cell", "zeta", one("7"))
	tr.waitDispatched(j1, "acme", 4)
	tr.waitDispatched(j2, "zeta", 1)
	tr.submit("J1 duplicate dedupes onto the running job", "acme", sweep("1,2", `"BestEffort","DynaQ"`))
	j3 := tr.submit("J3 acme waits behind J1", "acme", one("3"))
	tr.submit("J4 acme over its quota", "acme", one("4"))
	j5 := tr.submit("J5 zeta waits behind J2", "zeta", one("5"))
	tr.submit("J6 beta finds the shared queue full", "beta", one("6"))
	tr.call("invalid scenario", "POST", "/v1/jobs", "", `{"kind":"static","scheme":"BestEffort","rate_gbps":-1}`)
	tr.call("unknown job", "GET", "/v1/jobs/nope", "", "")
	tr.call("healthz with two running, two queued", "GET", "/healthz", "", "")

	tr.section("first life: lease, heartbeat, complete, error, expiry")
	mc.Advance(time.Second)
	l1 := tr.lease("L1 acme cell 0", "w1")
	mc.Advance(time.Second)
	tr.call("heartbeat L1", "POST", "/v1/leases/"+l1.LeaseID+"/heartbeat", "", "")
	mc.Advance(time.Second)
	tr.complete("complete L1", l1, "", true)
	l2 := tr.lease("L2 acme cell 1", "w1")
	mc.Advance(time.Second)
	tr.complete("L2 reports an error: cell 1 backs off", l2, "boom", false)
	l3 := tr.lease("L3 zeta cell 0 (will expire)", "w1")
	l4 := tr.lease("L4 acme cell 2", "w1")
	mc.Advance(time.Second)
	tr.complete("complete L4", l4, "", true)
	l5 := tr.lease("L5 acme cell 3 (held)", "w1")
	l6 := tr.lease("L6 acme cell 1, attempt 2", "w1")
	tr.complete("L6 fails again: quarantine at MaxAttempts", l6, "boom again", false)
	tr.call("dead-letter list", "GET", "/v1/deadletter", "", "")
	tr.lease("nothing ready", "w1")
	tr.status("J1 with a quarantined cell and a leased one", j1)

	mc.Advance(9 * time.Second) // L3 (granted 4 s in) lapses exactly now; w1, seen 9 s ago, stays live
	tr.waitCell(j2, 0, StateQueued, 1)
	tr.status("J2 after its lease expired", j2)
	tr.call("heartbeat on the expired L3", "POST", "/v1/leases/"+l3.LeaseID+"/heartbeat", "", "")
	tr.call("heartbeat L5 renews", "POST", "/v1/leases/"+l5.LeaseID+"/heartbeat", "", "")
	tr.complete("late upload on L3: 410 but absorbed", l3, "", true)
	tr.lease("zeta cell 0 still backing off", "w1")
	mc.Advance(2 * time.Second)
	l7 := tr.lease("L7 zeta cell 0, attempt 2", "w1")
	tr.complete("L7 completes empty-handed on the absorbed artifact", l7, "", false)
	tr.waitSettled(j2)
	tr.waitDispatched(j5, "zeta", 1)
	tr.complete("duplicate completion of L7", l7, "", false)
	tr.complete("complete L5: J1 settles failed", l5, "", true)
	tr.waitSettled(j1)
	tr.waitDispatched(j3, "acme", 1)
	tr.status("J1 failed by quarantine", j1)
	tr.status("J2 done", j2)
	tr.events("J1 events", j1)
	tr.events("J2 events", j2)

	tr.section("first life: dead-letter requeue and terminal resubmit")
	tr.call("requeue everything", "POST", "/v1/deadletter/requeue", "", `{}`)
	tr.call("dead-letter list after requeue", "GET", "/v1/deadletter", "", "")
	tr.call("requeue of an unknown key", "POST", "/v1/deadletter/requeue", "", `{"keys":["nope"]}`)
	mc.Advance(time.Second)
	l8 := tr.lease("L8 acme J3", "w1")
	l9 := tr.lease("L9 zeta J5", "w1")
	tr.complete("complete L8: J3 done, requeued J1 admitted", l8, "", true)
	tr.waitSettled(j3)
	tr.waitDispatched(j1, "acme", 1)
	tr.status("requeued J1: three cache hits, one cell with a fresh budget", j1)
	tr.complete("complete L9: J5 done", l9, "", true)
	tr.waitSettled(j5)
	mc.Advance(time.Second)
	l10 := tr.lease("L10 acme J1 cell 1, attempt 1", "w1")
	tr.complete("complete L10: J1 done", l10, "", true)
	tr.waitSettled(j1)
	tr.status("J1 done", j1)
	tr.events("J1 events after the requeue", j1)
	tr.submit("J2 resubmitted: every cell a cache hit", "zeta", one("7"))
	tr.waitSettled(j2)
	tr.status("J2 done from cache", j2)
	tr.call("job list", "GET", "/v1/jobs", "", "")
	tr.call("J1 trace endpoint", "GET", "/v1/jobs/"+j1+"/trace", "", "")

	tr.section("first life: drain")
	j7 := tr.submit("J7 acme two cells", "acme", sweep("8,9", `"BestEffort"`))
	tr.waitDispatched(j7, "acme", 2)
	j8 := tr.submit("J8 acme waits behind J7", "acme", one("10"))
	// J9 starts at once, and that its start is visible proves the
	// admission pass after J8's submission has run: a Shutdown racing that
	// pass could otherwise find J8 admitted the moment J7 is requeued.
	j9 := tr.submit("J9 zeta runs beside J7", "zeta", one("12"))
	tr.waitDispatched(j9, "zeta", 1)
	mc.Advance(time.Second)
	l11 := tr.lease("L11 acme J7 cell 0", "w1")
	tr.complete("L11 reports an error: attempt persisted", l11, "flaky", false)
	tr.lease("L12 zeta J9 (held across the drain, never heard from again)", "w1")
	l13 := tr.lease("L13 acme J7 cell 1 (held across the drain)", "w1")
	if err := s.Shutdown(shutdownCtx(t)); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	tr.submit("submit while draining", "acme", one("11"))
	tr.call("requeue while draining", "POST", "/v1/deadletter/requeue", "", `{}`)
	tr.complete("late upload on the dropped L13: 410 but absorbed", l13, "", true)
	tr.status("J7 requeued by the drain", j7)
	tr.status("J8 still queued", j8)
	tr.status("J9 requeued by the drain with nothing dispatched", j9)
	tr.call("healthz after drain", "GET", "/healthz", "", "")
	tr.call("metrics after drain", "GET", "/metrics", "", "")
	tr.listing("DataDir after drain")

	// --- second life -----------------------------------------------------
	tr.section("second life: recover and finish")
	mc2 := fleet.NewManualClock(mc.Now().Add(time.Minute))
	cfg.Clock = mc2
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("New (recovery): %v", err)
	}
	tr.s = s2
	tr.call("job list after recovery", "GET", "/v1/jobs", "", "")
	tr.call("dead-letter list after recovery", "GET", "/v1/deadletter", "", "")
	tr.call("healthz after recovery", "GET", "/healthz", "", "")
	tr.lease("w1 registers again", "w1")
	s2.Start()
	tr.waitDispatched(j7, "acme", 1)
	tr.waitDispatched(j9, "zeta", 1)
	tr.status("recovered J7: cell 0 keeps its attempt, cell 1 hits the absorbed upload", j7)
	mc2.Advance(time.Second)
	l14 := tr.lease("L14 acme J7 cell 0, attempt 2", "w1")
	tr.complete("complete L14: J7 done", l14, "", true)
	tr.waitSettled(j7)
	tr.waitDispatched(j8, "acme", 1)
	l15 := tr.lease("L15 acme J8", "w1")
	mc2.Advance(time.Second)
	tr.complete("complete L15: J8 done", l15, "", true)
	tr.waitSettled(j8)
	l16 := tr.lease("L16 zeta J9", "w1")
	tr.complete("complete L16: J9 done", l16, "", true)
	tr.waitSettled(j9)
	tr.status("J7 done", j7)
	tr.status("J8 done", j8)
	tr.events("J7 events", j7)
	if err := s2.Shutdown(shutdownCtx(t)); err != nil {
		t.Fatalf("Shutdown (second life): %v", err)
	}
	tr.call("metrics at the end", "GET", "/metrics", "", "")
	tr.listing("DataDir at the end")

	golden := filepath.Join("testdata", "transcript.golden")
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, tr.out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (generate with -update-transcript at the parent commit): %v", err)
	}
	if !bytes.Equal(want, tr.out.Bytes()) {
		t.Fatalf("transcript differs from %s (rerun with -update-transcript and read the git diff for all of it); first difference:\n%s",
			golden, firstDiff(want, tr.out.Bytes()))
	}
}

// firstDiff renders the first differing line of two transcripts with two
// lines of context.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			from := max(i-2, 0)
			return fmt.Sprintf("line %d\n  context: %q\n  want: %q\n  got:  %q", i+1, w[from:min(i, len(w))], wl, gl)
		}
	}
	return "(no differing line; lengths differ)"
}

// transcript drives one Server through ServeHTTP and records what comes
// back with the DataDir prefix normalised.
type transcript struct {
	t       *testing.T
	s       *Server
	dataDir string
	out     bytes.Buffer
}

func (tr *transcript) section(title string) {
	fmt.Fprintf(&tr.out, "\n######## %s\n", title)
}

// do sends one request without recording it.
func (tr *transcript) do(method, path, tenant, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Dynaq-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	tr.s.ServeHTTP(rec, req)
	return rec
}

func (tr *transcript) norm(b []byte) string {
	return strings.ReplaceAll(string(b), tr.dataDir, "$DATADIR")
}

// call sends one request and records status, the headers a client acts on,
// and the body.
func (tr *transcript) call(label, method, path, tenant, body string) *httptest.ResponseRecorder {
	tr.t.Helper()
	rec := tr.do(method, path, tenant, body)
	fmt.Fprintf(&tr.out, "\n=== %s\n%s %s", label, method, path)
	if tenant != "" {
		fmt.Fprintf(&tr.out, " [tenant %s]", tenant)
	}
	fmt.Fprintf(&tr.out, "\n-> %d", rec.Code)
	for _, h := range []string{"Location", "Retry-After", "X-Dynaq-Trace", "Content-Type"} {
		if v := rec.Header().Get(h); v != "" {
			fmt.Fprintf(&tr.out, " %s=%s", h, v)
		}
	}
	tr.out.WriteByte('\n')
	tr.out.WriteString(tr.norm(rec.Body.Bytes()))
	if n := rec.Body.Len(); n > 0 && rec.Body.Bytes()[n-1] != '\n' {
		tr.out.WriteByte('\n')
	}
	return rec
}

// submit records a POST /v1/jobs and returns the job id of a 202.
func (tr *transcript) submit(label, tenant, body string) string {
	tr.t.Helper()
	rec := tr.call(label, "POST", "/v1/jobs", tenant, body)
	var st JobStatus
	if rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			tr.t.Fatalf("%s: decoding 202 body: %v", label, err)
		}
	}
	return st.ID
}

// lease records one lease poll; the grant is nil on 204.
func (tr *transcript) lease(label, worker string) *fleet.LeaseGrant {
	tr.t.Helper()
	rec := tr.call(label, "POST", "/v1/leases", "", `{"worker":"`+worker+`"}`)
	if rec.Code != http.StatusOK {
		return nil
	}
	var g fleet.LeaseGrant
	if err := json.Unmarshal(rec.Body.Bytes(), &g); err != nil {
		tr.t.Fatalf("%s: decoding grant: %v", label, err)
	}
	return &g
}

// complete records a completion under g: an error report, an upload of a
// stub artifact that is a pure function of the cache key, or neither.
func (tr *transcript) complete(label string, g *fleet.LeaseGrant, failure string, upload bool) {
	tr.t.Helper()
	if g == nil {
		tr.t.Fatalf("%s: no grant to complete (the lease before it returned 204)", label)
	}
	req := fleet.CompleteRequest{Worker: "w1", CacheKey: g.CacheKey, Error: failure}
	if upload {
		req.Files = map[string][]byte{
			telemetry.ManifestFile: []byte(`{"tool":"transcript-stub","cache_key":"` + g.CacheKey + `"}` + "\n"),
			telemetry.EventsFile: []byte(`{"kind":"start","key":"` + g.CacheKey[:8] + `"}` + "\n" +
				`{"kind":"end","seed":` + fmt.Sprint(g.Seed) + `}` + "\n"),
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tr.t.Fatal(err)
	}
	rec := tr.do("POST", "/v1/leases/"+g.LeaseID+"/complete", "", string(body))
	fmt.Fprintf(&tr.out, "\n=== %s\nPOST /v1/leases/%s/complete error=%q upload=%v\n-> %d\n%s",
		label, g.LeaseID, failure, upload, rec.Code, tr.norm(rec.Body.Bytes()))
}

func (tr *transcript) status(label, id string) {
	tr.t.Helper()
	tr.call(label, "GET", "/v1/jobs/"+id, "", "")
}

func (tr *transcript) events(label, id string) {
	tr.t.Helper()
	tr.call(label, "GET", "/v1/jobs/"+id+"/events", "", "")
}

func (tr *transcript) peekStatus(id string) JobStatus {
	var st JobStatus
	json.Unmarshal(tr.do("GET", "/v1/jobs/"+id, "", "").Body.Bytes(), &st)
	return st
}

func (tr *transcript) waitFor(what string, cond func() bool) {
	tr.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tr.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDispatched waits until job id is running and its tenant has exactly
// queued cells awaiting a lease, i.e. dispatch of the job has finished.
func (tr *transcript) waitDispatched(id, tenant string, queued int) {
	tr.t.Helper()
	gauge := fmt.Sprintf("dynaqd_tenant_cells_queued{tenant=%q} %d\n", tenant, queued)
	tr.waitFor("job "+id+" to be dispatched", func() bool {
		return tr.peekStatus(id).State == StateRunning &&
			strings.Contains(tr.do("GET", "/metrics", "", "").Body.String(), gauge)
	})
}

// waitCell waits for one cell to show a state and an attempt count.
func (tr *transcript) waitCell(id string, cell int, state string, attempts int) {
	tr.t.Helper()
	tr.waitFor(fmt.Sprintf("job %s cell %d to be %s", id, cell, state), func() bool {
		st := tr.peekStatus(id)
		return len(st.Cells) > cell && st.Cells[cell].State == state && st.Cells[cell].Attempts == attempts
	})
}

// waitSettled waits until job id is terminal and everything written at
// settlement is on disk: status, trace, and the queue marker gone.
func (tr *transcript) waitSettled(id string) {
	tr.t.Helper()
	tr.waitFor("job "+id+" to settle", func() bool {
		if !terminal(tr.peekStatus(id).State) {
			return false
		}
		markers, _ := filepath.Glob(filepath.Join(tr.dataDir, "queue", "*-"+id))
		if len(markers) > 0 {
			return false
		}
		// A resubmission's trace replaces the earlier one; it is written
		// before the marker goes, so the marker's absence covers it.
		_, err := os.Stat(filepath.Join(tr.dataDir, "jobs", id, traceFileName))
		return err == nil
	})
}

// listing records every file under the DataDir, with the contents of the
// files the coordinator itself writes (cache artifacts are the worker's
// bytes and are listed by size).
func (tr *transcript) listing(label string) {
	tr.t.Helper()
	fmt.Fprintf(&tr.out, "\n=== %s\n", label)
	var paths []string
	err := filepath.WalkDir(tr.dataDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(tr.dataDir, p)
		if d.IsDir() {
			if entries, _ := os.ReadDir(p); len(entries) == 0 && rel != "." {
				paths = append(paths, rel+"/")
			}
			return nil
		}
		paths = append(paths, rel)
		return nil
	})
	if err != nil {
		tr.t.Fatal(err)
	}
	sort.Strings(paths)
	for _, rel := range paths {
		if strings.HasSuffix(rel, "/") {
			fmt.Fprintf(&tr.out, "--- %s (empty)\n", rel)
			continue
		}
		data, err := os.ReadFile(filepath.Join(tr.dataDir, rel))
		if err != nil {
			tr.t.Fatal(err)
		}
		if strings.HasPrefix(rel, "cache"+string(filepath.Separator)) {
			fmt.Fprintf(&tr.out, "--- %s (%d bytes)\n", rel, len(data))
			continue
		}
		fmt.Fprintf(&tr.out, "--- %s\n%s", rel, tr.norm(data))
		if len(data) > 0 && data[len(data)-1] != '\n' {
			tr.out.WriteByte('\n')
		}
	}
}
