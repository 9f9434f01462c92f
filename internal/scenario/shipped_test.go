package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShippedScenariosLoad validates every JSON document in the
// repository's scenarios/ directory.
func TestShippedScenariosLoad(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scenarios directory missing: %v", err)
	}
	var jsons []os.DirEntry
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			jsons = append(jsons, e)
		}
	}
	if len(jsons) < 3 {
		t.Fatalf("only %d shipped scenarios", len(jsons))
	}
	for _, e := range jsons {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			r, err := Load(data)
			if err != nil {
				t.Fatal(err)
			}
			if r.Document().Kind != "static" && r.Document().Kind != "fct" {
				t.Fatalf("kind = %q", r.Document().Kind)
			}
		})
	}
}

// TestShippedSmokeRun executes the quickest shipped scenario and the
// request/response one end to end.
func TestShippedSmokeRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "fig3_dynaq.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	// Shorten for CI: reload with a trimmed duration.
	doc := r.doc
	doc.DurationS = 1
	trimmed, _ := Load(mustJSON(t, doc))
	res, err := trimmed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Static.Samples) == 0 {
		t.Fatal("no samples")
	}

	// The shipped closed-loop cell runs as it is: every request is answered.
	data, err = os.ReadFile(filepath.Join("..", "..", "scenarios", "fct_request_response.json"))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = rr.Run(); err != nil {
		t.Fatal(err)
	}
	if d := res.Dynamic; d.Completed != d.Generated || d.Generated != rr.doc.Flows {
		t.Fatalf("%d/%d exchanges answered, want all %d", d.Completed, d.Generated, rr.doc.Flows)
	}
}

// TestShippedPacketScenariosGuarded runs every shipped packet-engine
// scenario, trimmed for CI, with the guardrail armed on every switch port:
// no row may record a violation, and an fct row must complete every flow.
// The shipped bytes are not touched; the guard is set on the decoded
// document. fattree_flows.json runs on the flow engine, which has no ports to
// guard.
func TestShippedPacketScenariosGuarded(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Load(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if r.Engine() != "packet" {
			continue
		}
		rows++
		t.Run(filepath.Base(file), func(t *testing.T) {
			doc := r.Document()
			doc.Guard = true
			doc.Flows = min(doc.Flows, 200)
			doc.DurationS = min(doc.DurationS, 1)
			trimmed, err := Load(mustJSON(t, doc))
			if err != nil {
				t.Fatal(err)
			}
			res, err := trimmed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if s := res.Static; s != nil && s.ViolationTotal != 0 {
				t.Fatalf("%d guardrail violations, first: %v", s.ViolationTotal, s.Violations[0])
			}
			if d := res.Dynamic; d != nil && (d.Completed != doc.Flows || d.ViolationTotal != 0) {
				t.Fatalf("completed %d/%d flows with %d guardrail violations", d.Completed, doc.Flows, d.ViolationTotal)
			}
		})
	}
	if rows != 9 {
		t.Errorf("%d shipped packet scenarios, want 9", rows)
	}
}
