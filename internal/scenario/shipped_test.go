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

// TestFatTreePacketGuarded runs the shipped fat-tree scenario — the packet
// engine on a topology it gained through the shared fabric graph — trimmed
// for CI, with the guardrail armed on every edge, aggregation and core port.
func TestFatTreePacketGuarded(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "fattree_packet.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	doc := r.doc
	if doc.Engine != "packet" || doc.Topo != "fattree" || !doc.Guard {
		t.Fatalf("shipped scenario is %s on %s, guard %v", doc.Engine, doc.Topo, doc.Guard)
	}
	doc.Flows = 120
	trimmed, err := Load(mustJSON(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := trimmed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Dynamic; d.Completed != doc.Flows || d.ViolationTotal != 0 {
		t.Fatalf("completed %d/%d flows with %d guardrail violations", d.Completed, doc.Flows, d.ViolationTotal)
	}
}
