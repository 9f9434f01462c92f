package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynaq/internal/telemetry"
	"dynaq/internal/telemetry/trace"
)

// TestRunCellToRecoversPanic: a panic under the run — here the caller's tee
// on the first event line — fails the cell with an error naming it, the
// telemetry run still closes and the run span ends carrying the error. The
// executors share this path, so none of them dies with a cell.
func TestRunCellToRecoversPanic(t *testing.T) {
	const doc = `{"kind":"static","scheme":"DynaQ","rate_gbps":1,"buffer_bytes":85000,"queues":2,
		"rtt_us":100,"duration_s":0.05,"sample_ms":10,"seed":1,"specs":[{"class":0,"flows":2}]}`
	dir := filepath.Join(t.TempDir(), "run")
	tr := trace.New("t", "test", NewManualClock(t0))
	cell := tr.Start("cell", "")
	lines := 0
	reg, err := RunCellTo(dir, []byte(doc), "DynaQ", 1, CellManifest("v", "hash", "DynaQ", 1, "key"),
		func([]byte) {
			lines++
			panic("tee exploded")
		}, cell)
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "tee exploded") {
		t.Fatalf("error %v, want one naming the panic", err)
	}
	if reg != nil {
		t.Error("a failed cell returned a registry")
	}
	if lines != 1 {
		t.Errorf("tee saw %d lines, want the run to stop at the first", lines)
	}
	// Close ran: the manifest is its last write.
	if _, err := os.Stat(filepath.Join(dir, telemetry.ManifestFile)); err != nil {
		t.Errorf("telemetry run was not closed: %v", err)
	}
	var run *trace.Span
	for _, s := range tr.Snapshot() {
		if s.Name == "run" {
			run = &s
		}
	}
	if run == nil || run.End == 0 {
		t.Fatalf("run span missing or left open: %+v", run)
	}
	if len(run.Attrs) != 1 || run.Attrs[0].Key != "error" || !strings.Contains(run.Attrs[0].Value, "tee exploded") {
		t.Errorf("run span attrs %+v, want the panic as its error", run.Attrs)
	}
}
