package experiment_test

import (
	"fmt"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/metrics"
	"dynaq/internal/pias"
	"dynaq/internal/scenario"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/topology"
	"dynaq/internal/units"
	"dynaq/internal/workload"
)

// requestResponseCell is ext-closedloop's cell: the testbed rack under
// request/response traffic.
func requestResponseCell(scheme experiment.Scheme, load float64, seed int64, requests int) scenario.Document {
	doc := fctCell(experiment.EnginePacket, requests, load, seed)
	doc.Scheme, doc.RequestResponse, doc.MaxRuntimeS = string(scheme), true, 60
	return doc
}

// referenceRun drives the reference client on the rack requestResponseCell
// describes, stopping where an fct run's loop stops.
func referenceRun(t testing.TB, doc scenario.Document) *refClient {
	t.Helper()
	const (
		rate  = units.Gbps
		delay = 125 * units.Microsecond // a quarter of the 500µs base RTT
	)
	s := sim.New()
	g, err := fabric.NewStar(5, rate)
	if err != nil {
		t.Fatal(err)
	}
	spqDRR, err := sched.LookupKind("spq+drr")
	if err != nil {
		t.Fatal(err)
	}
	params := experiment.SchemeParams{Rate: rate, BaseRTT: fabric.Star.BaseRTT(delay), Weights: []int64{1, 1, 1, 1, 1}}
	star, err := topology.Build(s, g, topology.Config{
		Delay: delay, Buffer: 85 * units.KB, Queues: 5,
		Factories: topology.Factories{
			NewScheduler: func(n int) (sched.Scheduler, error) {
				return spqDRR.New(params.Weights, 1500, n)
			},
			NewAdmission: func(b units.ByteSize, n int, mem *buffer.SharedPool) (buffer.Admission, error) {
				return buffer.NewScheme(doc.Scheme, params, b, n, mem)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := newRefClient(s, refConfig{
		Client:        star.Endpoints[4],
		Servers:       star.Endpoints[:4],
		CDF:           workload.WebSearch(),
		Load:          doc.Load,
		Capacity:      rate,
		Requests:      doc.Flows,
		ServiceQueues: 4,
		ClassOf:       pias.ClassOf,
		MinRTO:        10 * units.Millisecond,
		Seed:          doc.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	client.Start()
	for client.Done() < doc.Flows && s.Pending() > 0 && s.Now() < units.Time(units.Seconds(doc.MaxRuntimeS)) {
		s.Step()
	}
	return client
}

// compareWithReference runs doc and drives the reference client on the same
// rack, and fails on the first difference: every FCT record in order,
// completions and requests issued. The shape of each exchange is checked
// where the flows reach the engine (scenario's
// TestOfferedTrafficIsSchemeIndependent).
func compareWithReference(t testing.TB, doc scenario.Document) {
	t.Helper()
	ref := referenceRun(t, doc)
	res := runCell(t, doc).Dynamic
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
}

// TestRequestResponseMatchesReference pins the fct run's request_response
// mode to the reference client record by record across the Fig. 8 schemes,
// three loads and five seeds.
func TestRequestResponseMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, scheme := range experiment.NonECNSchemes() {
		for _, load := range []float64{0.3, 0.6, 0.9} {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%.1f/%d", scheme, load, seed), func(t *testing.T) {
					compareWithReference(t, requestResponseCell(scheme, load, seed, 30))
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
		schemes := experiment.NonECNSchemes()
		load := float64(5+int(loadPct)%91) / 100
		compareWithReference(t, requestResponseCell(schemes[int(scheme)%len(schemes)], load, seed, 1+int(requests)%40))
	})
}

// rrCell is one named request/response cell.
type rrCell struct {
	name string
	doc  scenario.Document
}

// smallLeafSpine is a 2×2 leaf-spine cell with two hosts per leaf, running
// Fig. 13's fabric parameters and workloads.
func smallLeafSpine() scenario.Document {
	return scenario.Document{
		Kind:         "fct",
		Scheme:       string(experiment.DynaQ),
		Topo:         string(fabric.LeafSpine),
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		RateGbps:     10,
		BufferB:      192000,
		Queues:       8,
		RTTUs:        42.6,
		MTU:          1500,
		MinRTOMs:     5,
		Seed:         3,
		Load:         0.6,
		Flows:        40,
		Workloads:    []string{"websearch", "datamining", "cache", "hadoop"},
	}
}

// requestResponseCells are the request/response cells the ported tests run:
// the testbed star and a small leaf-spine on every engine.
func requestResponseCells() []rrCell {
	leafSpine := smallLeafSpine()
	var cells []rrCell
	for _, engine := range []experiment.EngineMode{experiment.EnginePacket, experiment.EngineFlow, experiment.EngineHybrid} {
		star := requestResponseCell(experiment.DynaQ, 0.6, 7, 40)
		star.Engine = string(engine)
		leafSpine.Engine = string(engine)
		leafSpine.RequestResponse = true
		cells = append(cells, rrCell{"star/" + string(engine), star}, rrCell{"leafspine/" + string(engine), leafSpine})
	}
	return cells
}

// TestRequestResponseCompletes checks that every request is answered on
// every topology and engine, and that every FCT counts the request's round:
// an exchange is two flows, neither faster than a round trip of the
// shortest path (one base RTT), so no record may be under two of those.
func TestRequestResponseCompletes(t *testing.T) {
	for _, c := range requestResponseCells() {
		doc := c.doc
		t.Run(c.name, func(t *testing.T) {
			res := runCell(t, doc).Dynamic
			if res.Completed != doc.Flows || res.Generated != doc.Flows {
				t.Fatalf("completed/generated %d/%d, want %d/%d", res.Completed, res.Generated, doc.Flows, doc.Flows)
			}
			floor := 2 * units.Seconds(doc.RTTUs*1e-6)
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
	run := func(doc scenario.Document) []metrics.FCTRecord {
		return runCell(t, doc).Dynamic.FCT.Records()
	}
	for _, c := range requestResponseCells() {
		t.Run(c.name, func(t *testing.T) {
			a, b := run(c.doc), run(c.doc)
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
