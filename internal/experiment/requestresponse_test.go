package experiment

import (
	"fmt"
	"testing"

	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/packet"
	"dynaq/internal/pias"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// requestResponseCfg is ext-closedloop's cell: the testbed rack under
// request/response traffic.
func requestResponseCfg(scheme Scheme, load float64, seed int64, requests int) DynamicConfig {
	cfg := testbedFCT(seed)
	cfg.RequestResponse = true
	cfg.Scheme, cfg.Load, cfg.Flows = scheme, load, requests
	cfg.MaxRuntime = 60 * units.Second
	return cfg
}

// referenceRun drives the reference client on the rack requestResponseCfg
// describes, stopping where RunDynamic's loop stops.
func referenceRun(t testing.TB, cfg DynamicConfig) *refClient {
	t.Helper()
	s := sim.New()
	g, err := fabric.NewStar(5, testbedRate)
	if err != nil {
		t.Fatal(err)
	}
	star, err := topology.Build(s, g, topology.Config{
		Delay: testbedDelay, Buffer: testbedBuffer, Queues: 5,
		Factories: Factories(cfg.Scheme, SchedSPQDRR, SchemeParams{Rate: testbedRate,
			BaseRTT: fabric.Star.BaseRTT(testbedDelay), Weights: equalWeights(5)}, testbedMTU),
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := newRefClient(s, refConfig{
		Client:        star.Endpoints[4],
		Servers:       star.Endpoints[:4],
		CDF:           workload.WebSearch(),
		Load:          cfg.Load,
		Capacity:      testbedRate,
		Requests:      cfg.Flows,
		ServiceQueues: 4,
		ClassOf:       pias.ClassOf,
		MinRTO:        testbedMinRTO,
		Seed:          cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Start()
	for client.Done() < cfg.Flows && s.Pending() > 0 && s.Now() < units.Time(cfg.MaxRuntime) {
		s.Step()
	}
	return client
}

// offered is a flow as RunDynamic offers it to the engine, without its
// completion callback.
type offered struct {
	at              units.Time
	id              packet.FlowID
	src, dst, class int
	size            units.ByteSize
}

// startLog is a cellEngine that records every flow RunDynamic offers it.
type startLog struct {
	cellEngine
	starts []offered
}

func (l *startLog) start(at units.Time, f flowStart) {
	l.starts = append(l.starts, offered{at, f.id, f.src, f.dst, f.class, f.size})
	l.cellEngine.start(at, f)
}

// runLogged is RunDynamic with the offered flows recorded.
func runLogged(t testing.TB, cfg DynamicConfig) (*DynamicResult, []offered) {
	t.Helper()
	var log *startLog
	res, err := runDynamic(cfg, func(s *sim.Simulator, g *fabric.Graph, c *DynamicConfig) (cellEngine, error) {
		eng, err := newCellEngine(s, g, c)
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
// refRequestSize class-0 flow in the reverse direction of the response that
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
		case req.class != 0 || req.size != refRequestSize:
			t.Fatalf("request %d: class %d, %v; want class 0, %v", id, req.class, req.size, refRequestSize)
		case req.src != resp.dst || req.dst != resp.src:
			t.Fatalf("request %d runs %d→%d, its response %d→%d", id, req.src, req.dst, resp.src, resp.dst)
		case resp.class < 1:
			t.Fatalf("response %d on class %d, want a service queue", id+1, resp.class)
		}
	}
}

// compareWithReference runs cfg through RunDynamic and through the
// reference client and fails on the first difference: every FCT record in
// order, completions, requests issued, and the shape of every exchange.
func compareWithReference(t testing.TB, cfg DynamicConfig) {
	t.Helper()
	ref := referenceRun(t, cfg)
	res, starts := runLogged(t, cfg)
	if res.Completed != ref.Done() || res.Generated != ref.Issued() {
		t.Fatalf("completed/generated %d/%d, reference done/issued %d/%d",
			res.Completed, res.Generated, ref.Done(), ref.Issued())
	}
	got, want := res.FCT.Records(), ref.FCT.Records()
	if len(got) != len(want) {
		t.Fatalf("%d FCT records, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FCT record %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
	checkExchanges(t, starts, res.Generated)
}

// TestRequestResponseMatchesReference pins RunDynamic's request/response
// mode to the reference client record by record across the Fig. 8 schemes,
// three loads and five seeds.
func TestRequestResponseMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, scheme := range NonECNSchemes() {
		for _, load := range []float64{0.3, 0.6, 0.9} {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%.1f/%d", scheme, load, seed), func(t *testing.T) {
					compareWithReference(t, requestResponseCfg(scheme, load, seed, 30))
				})
			}
		}
	}
}

// FuzzRequestResponseMatchesReference draws the scheme, load, seed and
// request count.
func FuzzRequestResponseMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(60), uint8(20))
	f.Add(int64(7), uint8(1), uint8(90), uint8(40))
	f.Add(int64(-3), uint8(2), uint8(10), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, scheme, loadPct, requests uint8) {
		schemes := NonECNSchemes()
		load := float64(5+int(loadPct)%91) / 100
		compareWithReference(t, requestResponseCfg(schemes[int(scheme)%len(schemes)], load, seed, 1+int(requests)%40))
	})
}

// rrCell is one named request/response configuration.
type rrCell struct {
	name string
	cfg  DynamicConfig
}

// smallLeafSpine is a 2×2 leaf-spine cell with two hosts per leaf, running
// Fig. 13's fabric parameters and workloads.
func smallLeafSpine() DynamicConfig {
	return DynamicConfig{
		Cell: Cell{
			Scheme: DynaQ,
			Params: SchemeParams{Weights: equalWeights(8)},
			Rate:   10 * units.Gbps,
			Delay:  10650 * units.Nanosecond,
			Buffer: 192 * units.KB,
			Queues: 8,
			MTU:    1500,
			MinRTO: 5 * units.Millisecond,
			Seed:   3,
		},
		Topo:         TopoLeafSpine,
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		Load:         0.6,
		Flows:        40,
		Workloads:    workload.All(),
	}
}

// requestResponseCells are the request/response cells the ported tests run:
// the testbed star and a small leaf-spine on every engine.
func requestResponseCells() []rrCell {
	leafSpine := smallLeafSpine()
	var cells []rrCell
	for _, engine := range []EngineMode{EnginePacket, EngineFlow, EngineHybrid} {
		star := requestResponseCfg(DynaQ, 0.6, 7, 40)
		star.Engine = engine
		leafSpine.Engine = engine
		leafSpine.RequestResponse = true
		cells = append(cells, rrCell{"star/" + string(engine), star}, rrCell{"leafspine/" + string(engine), leafSpine})
	}
	return cells
}

// TestOfferedTrafficIsSchemeIndependent pins what a per-flow comparison of
// two schemes rests on: RunDynamic offers every scheme the same flows. On a
// star and a leaf-spine cell, on the packet and flow engines, open-loop and
// request/response, each flow id must start at the same time with the same
// endpoints, class and size under DynaQ, PQL, BestEffort and TCN with DCTCP.
// A response starts when its request completes, which the scheme decides, so
// responses are compared without their start.
func TestOfferedTrafficIsSchemeIndependent(t *testing.T) {
	star := requestResponseCfg(DynaQ, 0.6, 7, 40)
	for _, engine := range []EngineMode{EnginePacket, EngineFlow} {
		for _, c := range []rrCell{{"star", star}, {"leafspine", smallLeafSpine()}} {
			for _, rr := range []bool{false, true} {
				cfg := c.cfg
				cfg.Engine, cfg.RequestResponse = engine, rr
				t.Run(fmt.Sprintf("%s/%s/rr=%v", c.name, engine, rr), func(t *testing.T) {
					var want map[packet.FlowID]offered
					for _, scheme := range []Scheme{DynaQ, PQL, BestEffort, TCN} {
						cfg.Scheme, cfg.DCTCP = scheme, scheme.IsECNBased()
						_, starts := runLogged(t, cfg)
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
							t.Fatalf("%s offered %d flows, %s %d", scheme, len(got), DynaQ, len(want))
						}
						for id, w := range want {
							if got[id] != w {
								t.Fatalf("flow %d under %s: %+v, under %s: %+v", id, scheme, got[id], DynaQ, w)
							}
						}
					}
				})
			}
		}
	}
}

// TestRequestResponseCompletes checks that every request is answered on
// every topology and engine, and that every FCT counts the request's round:
// an exchange is two flows, neither faster than a round trip of the
// shortest path (4 link delays), so no record may be under two of those.
func TestRequestResponseCompletes(t *testing.T) {
	for _, c := range requestResponseCells() {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			res, err := RunDynamic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != cfg.Flows || res.Generated != cfg.Flows {
				t.Fatalf("completed/generated %d/%d, want %d/%d", res.Completed, res.Generated, cfg.Flows, cfg.Flows)
			}
			floor := 2 * 4 * cfg.Delay
			for _, rec := range res.FCT.Records() {
				if rec.FCT < floor {
					t.Fatalf("FCT %v below two shortest round trips (%v): request round not counted", rec.FCT, floor)
				}
			}
		})
	}
}

// TestRequestResponseDeterministic runs every request/response cell twice
// and requires identical FCT records.
func TestRequestResponseDeterministic(t *testing.T) {
	run := func(cfg DynamicConfig) []metrics.FCTRecord {
		res, err := RunDynamic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FCT.Records()
	}
	for _, c := range requestResponseCells() {
		t.Run(c.name, func(t *testing.T) {
			a, b := run(c.cfg), run(c.cfg)
			if len(a) != len(b) {
				t.Fatalf("runs differ in count: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("record %d differs: %+v vs %+v (determinism broken)", i, a[i], b[i])
				}
			}
		})
	}
}
