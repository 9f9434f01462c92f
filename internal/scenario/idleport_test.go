package scenario

import (
	"reflect"
	"testing"

	"dynaq/internal/experiment"
	"dynaq/internal/fabric"
	"dynaq/internal/netsim"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// noopObserver watches a port and does nothing: a watched port queues every
// packet, an unwatched idle one serves an arrival at once.
type noopObserver struct{}

func (noopObserver) ObservePort(units.Time, *netsim.Port) {}

// portRecord is what one port ended a run with.
type portRecord struct {
	Stats       netsim.PortStats
	Drops       []int64
	TxBytes     []units.ByteSize
	Occupancy   units.ByteSize
	QueueLens   []units.ByteSize
	PoolUsedEnd units.ByteSize
}

// runPorts runs doc on the packet engine, with a no-op observer on every
// port (switch ports and host NICs) when watched, and returns the result and
// every port's record, switch ports in graph order and then the NICs.
func runPorts(t *testing.T, doc Document, watched bool) (*experiment.DynamicResult, []portRecord) {
	t.Helper()
	var eng *packetEngine
	res, err := runDynamic(load(t, doc), func(s *sim.Simulator, r *Runner) (cellEngine, error) {
		var err error
		if eng, err = newPacketEngine(s, r); err == nil && watched {
			eachPort(eng, func(p *netsim.Port) { p.Observe(noopObserver{}) })
		}
		return eng, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, portRecords(eng)
}

// eachPort calls fn for every switch port of e's network, then every NIC.
func eachPort(e *packetEngine, fn func(p *netsim.Port)) {
	e.net.EachPort(func(_ string, p *netsim.Port) { fn(p) })
	for _, h := range e.net.Hosts {
		fn(h.Egress())
	}
}

func portRecords(e *packetEngine) []portRecord {
	var recs []portRecord
	eachPort(e, func(p *netsim.Port) {
		r := portRecord{Stats: p.Stats(), Occupancy: p.TotalLen()}
		for i := 0; i < p.NumQueues(); i++ {
			r.Drops = append(r.Drops, p.QueueDrops(i))
			r.TxBytes = append(r.TxBytes, p.QueueTxBytes(i))
			r.QueueLens = append(r.QueueLens, p.QueueLen(i))
		}
		if pool := p.Pool(); pool != nil {
			r.PoolUsedEnd = pool.Used()
		}
		recs = append(recs, r)
	})
	return recs
}

// TestIdlePortPathMatchesQueuedPath runs seeded star and leaf-spine cells
// under every scheme family twice: plain, where an arrival at an idle port
// is served at once, and with a no-op observer on every port, where it is
// queued and picked as at a busy port. The two must be one simulation: the
// same flow completion records, the same event count, the same counters on
// every port.
func TestIdlePortPathMatchesQueuedPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 32 packet cells")
	}
	star := testbedFCT(3)
	star.Load, star.Flows, star.MaxRuntimeS = 0.7, 120, 20
	star.Workloads = []string{"websearch", "cache"}
	leafspine := Document{
		Kind: "fct", RateGbps: 10, RTTUs: 8, BufferB: 64000, Queues: 4, MTU: 1500, MinRTOMs: 5, Seed: 5,
		Topo: string(fabric.LeafSpine), Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		Load: 0.7, Flows: 60, Workloads: []string{"websearch", "hadoop"}, MaxRuntimeS: 20,
	}
	schemes := []experiment.Scheme{experiment.DynaQ, experiment.BestEffort, experiment.PQL, experiment.TCN,
		experiment.TCNDrop, experiment.PMSB, experiment.BarberQ, experiment.DT}
	for _, base := range []Document{star, leafspine} {
		for _, scheme := range schemes {
			doc := base
			doc.Scheme = string(scheme)
			doc.DCTCP = scheme == experiment.TCN || scheme == experiment.PMSB
			t.Run(base.Topo+"/"+string(scheme), func(t *testing.T) {
				plain, plainPorts := runPorts(t, doc, false)
				watched, watchedPorts := runPorts(t, doc, true)
				if plain.Completed == 0 {
					t.Fatal("no flow completed")
				}
				// Each scheme's own counter must move, or the cell does
				// not cover its hook on the dequeue half.
				var sum netsim.PortStats
				for _, r := range plainPorts {
					sum.Dropped += r.Stats.Dropped
					sum.Marked += r.Stats.Marked
					sum.DequeueDrops += r.Stats.DequeueDrops
					sum.Evicted += r.Stats.Evicted
				}
				if sum.Dropped == 0 || (doc.DCTCP && sum.Marked == 0) ||
					(scheme == experiment.TCNDrop && sum.DequeueDrops == 0) || (scheme == experiment.BarberQ && sum.Evicted == 0) {
					t.Fatalf("%+v: the cell misses the scheme's case", sum)
				}
				if plain.Events != watched.Events || plain.Completed != watched.Completed {
					t.Fatalf("plain: %d events, %d flows; watched: %d events, %d flows",
						plain.Events, plain.Completed, watched.Events, watched.Completed)
				}
				if !reflect.DeepEqual(plain.FCT.Records(), watched.FCT.Records()) {
					t.Fatal("flow completion records differ")
				}
				if !reflect.DeepEqual(plainPorts, watchedPorts) {
					for i := range plainPorts {
						if !reflect.DeepEqual(plainPorts[i], watchedPorts[i]) {
							t.Fatalf("port %d: plain %+v, watched %+v", i, plainPorts[i], watchedPorts[i])
						}
					}
				}
			})
		}
	}
}
