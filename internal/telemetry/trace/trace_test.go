package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"dynaq/internal/units"
)

// stepClock is a deterministic Clock that advances 1ms per Now call.
type stepClock struct {
	t time.Time
}

func (c *stepClock) Now() time.Time {
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func newTestTracer() *Tracer {
	return New("t-1", "coordinator", &stepClock{t: time.Unix(1000, 0)})
}

func TestSpanLifecycle(t *testing.T) {
	tr := newTestTracer()
	root := tr.Start("job", "", A("job", "j1"))
	queue := root.Child("queue-wait")
	queue.Event("requeued", AInt("attempt", 2))
	queue.End()
	root.End(A("state", "done"))

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "job" || spans[1].Name != "queue-wait" {
		t.Fatalf("unexpected order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %q, want %q", spans[1].Parent, spans[0].ID)
	}
	if len(spans[1].Events) != 1 || spans[1].Events[0].Name != "requeued" {
		t.Fatalf("child events = %+v", spans[1].Events)
	}
	if err := Validate(spans); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestConcurrentTracer drives one Tracer from several goroutines, the way the
// coordinator's handlers and executors do: under -race any entry point that
// reaches seq, spans or the clock without t.mu is reported, and without it a
// lost update shows up as a missing or duplicate span id.
func TestConcurrentTracer(t *testing.T) {
	tr := newTestTracer()
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("cell", "")
				sp.Event("leased")
				sp.End()
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()

	spans := tr.Snapshot()
	if len(spans) != workers*perWorker {
		t.Fatalf("got %d spans, want %d", len(spans), workers*perWorker)
	}
	seen := make(map[string]bool)
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("span id %q issued twice", s.ID)
		}
		seen[s.ID] = true
	}
	if err := Validate(spans); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if got := tr.TraceID(); got != "" {
		t.Fatalf("nil TraceID = %q", got)
	}
	sp := tr.Start("x", "")
	sp.Event("e")
	sp.Annotate(A("k", "v"))
	sp.SimSpan("s", 0, 1)
	child := sp.Child("c")
	child.End()
	sp.End()
	if sp.ID() != "" || sp.Tracer() != nil {
		t.Fatal("nil SpanRef leaked identity")
	}
	tr.Absorb([]Span{{ID: "a"}})
	tr.EndOpen()
	if tr.Snapshot() != nil || tr.JSONL() != nil {
		t.Fatal("nil Tracer produced spans")
	}
	if tr.SimSpan("s", "", 0, 1) != "" || tr.WallSpan("w", "", time.Unix(0, 0), time.Unix(1, 0)) != "" {
		t.Fatal("nil Tracer returned span ids")
	}
}

func TestSimSpanDomain(t *testing.T) {
	tr := newTestTracer()
	root := tr.Start("run", "")
	simRoot := root.SimSpan("sim", 0, units.Time(5*units.Millisecond))
	tr.SimSpan("warmup", simRoot, 0, units.Time(units.Millisecond))
	root.End()

	spans := tr.Snapshot()
	var sim, warm *Span
	for i := range spans {
		switch spans[i].Name {
		case "sim":
			sim = &spans[i]
		case "warmup":
			warm = &spans[i]
		}
	}
	if sim == nil || warm == nil {
		t.Fatalf("missing sim spans: %+v", spans)
	}
	if sim.Domain != DomainSim || warm.Domain != DomainSim {
		t.Fatalf("domains: %q, %q", sim.Domain, warm.Domain)
	}
	if sim.End != int64(5*units.Millisecond) {
		t.Fatalf("sim end = %d", sim.End)
	}
	if warm.Parent != sim.ID {
		t.Fatalf("warmup parent = %q, want %q", warm.Parent, sim.ID)
	}
	if err := Validate(spans); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestEndOpenTruncates(t *testing.T) {
	tr := newTestTracer()
	root := tr.Start("job", "")
	cell := root.Child("cell", A("cell", "0"))
	_ = cell // never ended: simulates a worker killed mid-lease
	tr.EndOpen()

	spans := tr.Snapshot()
	if err := Validate(spans); err != nil {
		t.Fatalf("Validate after EndOpen: %v", err)
	}
	found := false
	for _, s := range spans {
		if s.Name == "cell" {
			found = true
			if len(s.Events) == 0 || s.Events[len(s.Events)-1].Name != "truncated" {
				t.Fatalf("truncated span missing truncated event: %+v", s.Events)
			}
		}
		if s.End == 0 {
			t.Fatalf("span %s still open after EndOpen", s.ID)
		}
	}
	if !found {
		t.Fatal("cell span missing")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := newTestTracer()
	root := tr.Start("job", "", A("job", "j1"))
	c := root.Child("cell", A("cell", "3"))
	c.Event("lease-expired")
	c.End()
	root.SimSpan("sim", 0, 42)
	root.End()

	raw := tr.JSONL()
	spans, err := ParseJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParseJSONL: %v", err)
	}
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, spans); err != nil {
		t.Fatalf("EncodeJSONL: %v", err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", raw, buf.Bytes())
	}
	// Two identical traces must encode byte-identically.
	tr2 := newTestTracer()
	root2 := tr2.Start("job", "", A("job", "j1"))
	c2 := root2.Child("cell", A("cell", "3"))
	c2.Event("lease-expired")
	c2.End()
	root2.SimSpan("sim", 0, 42)
	root2.End()
	if !bytes.Equal(raw, tr2.JSONL()) {
		t.Fatal("identical traces encode differently")
	}
}

func TestAbsorbRewritesTraceID(t *testing.T) {
	tr := newTestTracer()
	root := tr.Start("job", "")
	w := New("t-1", "worker-w1", &stepClock{t: time.Unix(2000, 0)})
	exec := w.Start("execute", root.ID())
	exec.End()
	spans, err := ParseJSONL(bytes.NewReader(w.JSONL()))
	if err != nil {
		t.Fatalf("parse worker spans: %v", err)
	}
	spans[0].Trace = "forged"
	tr.Absorb(spans)
	root.End()

	for _, s := range tr.Snapshot() {
		if s.Trace != "t-1" {
			t.Fatalf("span %s trace = %q", s.ID, s.Trace)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  string
	}{
		{"open span", []Span{{ID: "a:1", Name: "x", Start: 1}}, "never ended"},
		{"dup id", []Span{
			{ID: "a:1", Name: "x", Start: 1, End: 2},
			{ID: "a:1", Name: "y", Start: 1, End: 2},
		}, "duplicate"},
		{"unknown parent", []Span{
			{ID: "a:1", Parent: "a:9", Name: "x", Start: 1, End: 2},
		}, "unknown parent"},
		{"escapes parent", []Span{
			{ID: "a:1", Name: "p", Service: "s", Domain: DomainWall, Start: 5, End: 10},
			{ID: "a:2", Parent: "a:1", Name: "c", Service: "s", Domain: DomainWall, Start: 4, End: 9},
		}, "escapes parent"},
	}
	for _, tc := range cases {
		err := Validate(tc.spans)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// Cross-domain and cross-service nesting is exempt.
	ok := []Span{
		{ID: "a:1", Name: "run", Service: "w", Domain: DomainWall, Start: 5, End: 10},
		{ID: "a:2", Parent: "a:1", Name: "sim", Service: "w", Domain: DomainSim, Start: 0, End: 999},
		{ID: "b:1", Parent: "a:1", Name: "remote", Service: "x", Domain: DomainWall, Start: 1, End: 20},
	}
	if err := Validate(ok); err != nil {
		t.Errorf("exempt nesting rejected: %v", err)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := newTestTracer()
	root := tr.Start("job", "", A("job", "j1"))
	cell := root.Child("cell", A("cell", "0"))
	cell.Event("requeued")
	cell.SimSpan("sim", 0, units.Time(units.Millisecond))
	cell.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output not JSON: %v", err)
	}
	var complete, meta, instant int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		case "i":
			instant++
		}
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if meta != 2 { // coordinator + coordinator/sim
		t.Fatalf("metadata events = %d, want 2", meta)
	}
	if instant != 1 {
		t.Fatalf("instant events = %d, want 1", instant)
	}
}
