package scenario

import (
	"fmt"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// offered is a flow as runDynamic offers it to the engine, without its
// completion callback.
type offered struct {
	at              units.Time
	id              packet.FlowID
	src, dst, class int
	size            units.ByteSize
}

// startLog is a cellEngine that records every flow runDynamic offers it.
type startLog struct {
	cellEngine
	starts []offered
}

func (l *startLog) start(at units.Time, f flowStart) {
	l.starts = append(l.starts, offered{at, f.id, f.src, f.dst, f.class, f.size})
	l.cellEngine.start(at, f)
}

// runLogged runs doc with the offered flows recorded.
func runLogged(t testing.TB, doc Document) (*experiment.DynamicResult, []offered) {
	t.Helper()
	var log *startLog
	res, err := runDynamic(load(t, doc), func(s *sim.Simulator, r *Runner) (cellEngine, error) {
		eng, err := newCellEngine(s, r)
		log = &startLog{cellEngine: eng}
		return log, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, log.starts
}

// checkExchanges holds the offered flows to the reference client's
// exchange: ids 1..2n each used once, and each request (odd id) a
// 100-byte class-0 flow in the reverse direction of the response that
// takes the next id. The packet engine cannot see a one-segment flow's class
// (PIAS sends every flow's first 100 KB through queue 0), so the class is
// checked here, where the flows are handed to the engine.
func checkExchanges(t testing.TB, starts []offered, generated int) {
	t.Helper()
	byID := map[packet.FlowID]offered{}
	for _, f := range starts {
		if _, dup := byID[f.id]; dup {
			t.Fatalf("flow id %d offered twice", f.id)
		}
		byID[f.id] = f
	}
	if len(byID) != 2*generated {
		t.Fatalf("%d flow ids for %d requests, want two per request", len(byID), generated)
	}
	for id := packet.FlowID(1); id <= packet.FlowID(2*generated); id += 2 {
		req, okReq := byID[id]
		resp, okResp := byID[id+1]
		switch {
		case !okReq || !okResp:
			t.Fatalf("exchange %d: ids %d/%d offered %v/%v", id/2, id, id+1, okReq, okResp)
		case req.class != 0 || req.size != 100*units.Byte:
			t.Fatalf("request %d: class %d, %v; want class 0, 100B", id, req.class, req.size)
		case req.src != resp.dst || req.dst != resp.src:
			t.Fatalf("request %d runs %d→%d, its response %d→%d", id, req.src, req.dst, resp.src, resp.dst)
		case resp.class < 1:
			t.Fatalf("response %d on class %d, want a service queue", id+1, resp.class)
		}
	}
}

// TestOfferedTrafficIsSchemeIndependent pins what a per-flow comparison of
// two schemes rests on: runDynamic offers every scheme the same flows. On a
// star and a leaf-spine cell, on the packet and flow engines, open-loop and
// request/response, each flow id must start at the same time with the same
// endpoints, class and size under DynaQ, PQL, BestEffort and TCN with DCTCP.
// A response starts when its request completes, which the scheme decides, so
// responses are compared without their start. Every request/response run's
// flows must also pair into well-formed exchanges (checkExchanges).
func TestOfferedTrafficIsSchemeIndependent(t *testing.T) {
	star := requestResponseCell(experiment.DynaQ, 0.6, 7, 40)
	for _, engine := range []experiment.EngineMode{experiment.EnginePacket, experiment.EngineFlow} {
		for _, c := range []struct {
			name string
			doc  Document
		}{{"star", star}, {"leafspine", smallLeafSpine()}} {
			for _, rr := range []bool{false, true} {
				doc := c.doc
				doc.Engine, doc.RequestResponse = string(engine), rr
				t.Run(fmt.Sprintf("%s/%s/rr=%v", c.name, engine, rr), func(t *testing.T) {
					var want map[packet.FlowID]offered
					for _, scheme := range []experiment.Scheme{experiment.DynaQ, experiment.PQL, experiment.BestEffort, experiment.TCN} {
						doc.Scheme, doc.DCTCP = string(scheme), scheme.IsECNBased()
						res, starts := runLogged(t, doc)
						if rr {
							checkExchanges(t, starts, res.Generated)
						}
						got := make(map[packet.FlowID]offered, len(starts))
						for _, f := range starts {
							if rr && f.id%2 == 0 {
								f.at = 0
							}
							got[f.id] = f
						}
						if want == nil {
							want = got
							continue
						}
						if len(got) != len(want) {
							t.Fatalf("%s offered %d flows, %s %d", scheme, len(got), experiment.DynaQ, len(want))
						}
						for id, w := range want {
							if got[id] != w {
								t.Fatalf("flow %d under %s: %+v, under %s: %+v", id, scheme, got[id], experiment.DynaQ, w)
							}
						}
					}
				})
			}
		}
	}
}
