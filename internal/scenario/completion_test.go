package scenario

import (
	"fmt"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/metrics"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// completed is one flow as the engine saw it: the id and size it started
// with and the FCT its completion callback reported.
type completed struct {
	id   packet.FlowID
	size units.ByteSize
	fct  units.Duration
}

// completionLog is a cellEngine that logs every flow's completion against
// what the flow started as, before handing the FCT to runDynamic's callback.
type completionLog struct {
	cellEngine
	done []completed
}

func (l *completionLog) start(at units.Time, f flowStart) {
	id, size, done := f.id, f.size, f.done
	f.done = func(fct units.Duration) {
		l.done = append(l.done, completed{id, size, fct})
		done(fct)
	}
	l.cellEngine.start(at, f)
}

// wantRecords is the FCT records a run whose engine logged done must hold,
// in completion order: each plain flow's size and FCT, or for an exchange
// (rr) the response's size and the request's FCT plus the response's.
func wantRecords(t *testing.T, done []completed, rr bool) []metrics.FCTRecord {
	t.Helper()
	seen := map[packet.FlowID]units.Duration{}
	var want []metrics.FCTRecord
	for _, c := range done {
		if _, twice := seen[c.id]; twice {
			t.Fatalf("flow %d completed twice", c.id)
		}
		seen[c.id] = c.fct
		switch {
		case !rr:
			want = append(want, metrics.FCTRecord{Size: c.size, FCT: c.fct})
		case c.id%2 == 0:
			req, ok := seen[c.id-1]
			if !ok {
				t.Fatalf("response %d completed before its request", c.id)
			}
			want = append(want, metrics.FCTRecord{Size: c.size, FCT: req + c.fct})
		case c.size != requestSize:
			t.Fatalf("request %d started as %v, want %v", c.id, c.size, requestSize)
		}
	}
	return want
}

// TestCompletionRecordsItsOwnFlow holds runDynamic's reusable completion
// records to the per-flow closures they replaced: a record handed to two
// flows in flight at once, or put back while its flow (or an exchange's
// response) still runs, books one flow's completion under another's size.
// A logging engine wraps the real one through the engine-factory seam and
// records, per completion, the id and size the flow started with and the FCT
// its callback reported; the cell's FCT records must equal that log, record
// for record. Plain and request/response cells run on the packet, flow and
// hybrid engines, over several seeds, at loads that keep many flows in
// flight at once.
func TestCompletionRecordsItsOwnFlow(t *testing.T) {
	star := func(seed int64) Document {
		doc := testbedFCT(seed)
		doc.Scheme, doc.Load, doc.Flows = string(experiment.DynaQ), 0.9, 120
		return doc
	}
	leafSpine := func(seed int64) Document {
		doc := smallLeafSpine()
		doc.Seed, doc.Load, doc.Flows = seed, 0.9, 80
		return doc
	}
	for _, engine := range []experiment.EngineMode{experiment.EnginePacket, experiment.EngineFlow, experiment.EngineHybrid} {
		for _, cell := range []struct {
			name string
			doc  func(seed int64) Document
		}{{"star", star}, {"leafspine", leafSpine}} {
			for _, rr := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					doc := cell.doc(seed)
					doc.Engine, doc.RequestResponse = string(engine), rr
					t.Run(fmt.Sprintf("%s/%s/rr=%v/seed=%d", cell.name, engine, rr, seed), func(t *testing.T) {
						var log *completionLog
						res, err := runDynamic(load(t, doc), func(s *sim.Simulator, r *Runner) (cellEngine, error) {
							eng, err := newCellEngine(s, r)
							log = &completionLog{cellEngine: eng}
							return log, err
						})
						if err != nil {
							t.Fatal(err)
						}
						if res.Completed != doc.Flows {
							t.Fatalf("%d of %d flows completed", res.Completed, doc.Flows)
						}
						want, got := wantRecords(t, log.done, rr), res.FCT.Records()
						if len(got) != len(want) {
							t.Fatalf("%d FCT records for %d logged completions", len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("record %d is %+v, the flow it completed started as %+v", i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}
