package experiment

import (
	"reflect"
	"testing"

	"dynaq/internal/fabric"
	"dynaq/internal/netsim"
	"dynaq/internal/sim"
	"dynaq/internal/units"
	"dynaq/internal/workload"
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

// runPorts runs cfg on the packet engine, with a no-op observer on every
// port (switch ports and host NICs) when watched, and returns the result and
// every port's record, switch ports in graph order and then the NICs.
func runPorts(t *testing.T, cfg DynamicConfig, watched bool) (*DynamicResult, []portRecord) {
	t.Helper()
	var eng *packetEngine
	res, err := runDynamic(cfg, func(s *sim.Simulator, g *fabric.Graph, c *DynamicConfig) (cellEngine, error) {
		var err error
		if eng, err = newPacketEngine(s, g, c); err == nil && watched {
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
	star := DynamicConfig{
		Cell: Cell{Rate: testbedRate, Delay: testbedDelay, Buffer: testbedBuffer, Queues: 5, MTU: testbedMTU,
			MinRTO: testbedMinRTO, Seed: 3},
		Topo: TopoStar, Servers: 4, Load: 0.7, Flows: 120,
		Workloads:  []*workload.CDF{workload.WebSearch(), workload.Cache()},
		MaxRuntime: 20 * units.Second,
	}
	leafspine := DynamicConfig{
		Cell: Cell{Rate: 10 * units.Gbps, Delay: 2 * units.Microsecond, Buffer: 64 * units.KB, Queues: 4,
			MTU: testbedMTU, MinRTO: 5 * units.Millisecond, Seed: 5},
		Topo: TopoLeafSpine, Leaves: 2, Spines: 2, HostsPerLeaf: 3,
		Load: 0.7, Flows: 60, Workloads: []*workload.CDF{workload.WebSearch(), workload.Hadoop()},
		MaxRuntime: 20 * units.Second,
	}
	schemes := []Scheme{DynaQ, BestEffort, PQL, TCN, TCNDrop, PMSB, BarberQ, DT}
	for _, base := range []DynamicConfig{star, leafspine} {
		for _, scheme := range schemes {
			cfg := base
			cfg.Scheme = scheme
			cfg.DCTCP = scheme == TCN || scheme == PMSB
			t.Run(string(base.Topo)+"/"+string(scheme), func(t *testing.T) {
				plain, plainPorts := runPorts(t, cfg, false)
				watched, watchedPorts := runPorts(t, cfg, true)
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
				if sum.Dropped == 0 || (cfg.DCTCP && sum.Marked == 0) ||
					(scheme == TCNDrop && sum.DequeueDrops == 0) || (scheme == BarberQ && sum.Evicted == 0) {
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
