// Package figures is the paper's evaluation harness: a figure is a list of
// cells, each a scenario document, and a reader that turns their results into
// a Figure. One grid runs every cell through scenario.LoadWith.
package figures

import (
	"encoding/json"

	"dynaq/internal/experiment"
	"dynaq/internal/scenario"
)

// Entry is one figure of the harness: its id, what it shows, and its run.
type Entry struct {
	ID, Desc string
	Run      func(experiment.Options) (*Figure, error)
}

// Figures lists every figure in print order. Figures 3 and 4 are two views
// of the same three runs: they share one result, simulated once per list
// (the options are the first run's) and printed under both ids.
func Figures() []Entry {
	var fig3 *Figure
	var fig3Err error
	convergence := func(o experiment.Options) (*Figure, error) {
		if fig3 == nil && fig3Err == nil {
			fig3, fig3Err = Fig3(o)
		}
		return fig3, fig3Err
	}
	return []Entry{
		{"1", "violated fair sharing under BestEffort (motivation)", Fig1},
		{"3", "throughput convergence, 2 active DRR queues", convergence},
		{"4", "queue length evolution (same runs as fig 3)", convergence},
		{"5", "bandwidth sharing, 4 DRR queues with departures", Fig5},
		{"6", "weighted fair sharing, weights 4:3:2:1", Fig6},
		{"7", "mixed transports: NewReno + CUBIC under DynaQ", Fig7},
		{"8", "FCT vs non-ECN schemes, SPQ+DRR, web search", Fig8},
		{"9", "FCT vs ECN schemes (DCTCP), SPQ+DRR, web search", Fig9},
		{"10", "bandwidth sharing on 10Gbps links", Fig10},
		{"11", "bandwidth sharing on 100Gbps links (jumbo)", Fig11},
		{"12", "100Gbps with extreme flow counts", Fig12},
		{"13", "leaf-spine FCT, 4 workloads, ECMP", Fig13},
		{"cycles", "§IV-A ASIC cycle budget of Algorithm 1", Cycles},
		{"ablation-victim", "victim selection: max-extra vs naive max-threshold (§III-B)", AblationVictim},
		{"ablation-wbdp", "satisfaction threshold: Eq.3 buffer share vs WBDP", AblationSatisfaction},
		{"ablation-tcndrop", "TCN-drop strawman: dequeue dropping idles the link (§II-C)", AblationDequeueDrop},
		{"ext-microburst", "microburst absorption: DynaQ vs BarberQ eviction vs BestEffort", ExtMicroburst},
		{"ext-sharedmem", "shared-memory DT vs dedicated per-port buffers (§II-C)", ExtSharedMemory},
		{"ext-protocol", "mixed DCTCP + CUBIC tenants: ECN schemes break, DynaQ holds (§II-B)", ExtProtocolDependence},
		{"ext-tofino", "programmable-switch model: DynaQ on stale deq_qdepth (§IV-A)", ExtTofino},
		{"ext-zoo", "transport zoo: reno/cubic/dctcp/timely queues under one scheme", ExtTransportZoo},
		{"ext-closedloop", "Fig 8 with the §V-A2 request/response application (closed loop)", ExtClosedLoop},
		{"ext-dynaq-ecn", "DynaQ drop mode (TCP) vs ECN mode (PMSB marking, DCTCP) (§III-B3)", ExtDynaQECN},
		{"ext-faults", "scripted faults: flapping NIC/spine + lossy optics, guardrail armed", ExtFaults},
		{"2", "workload flow-size distributions (Figure 2)", Fig2},
	}
}

// pick returns the value for the chosen scale.
func pick[T any](o experiment.Options, quick, standard, full T) T {
	switch o.Scale {
	case experiment.Quick:
		return quick
	case experiment.Full:
		return full
	default:
		return standard
	}
}

// run is the one grid: it encodes each cell as a document's bytes, runs them
// through scenario.LoadWith on o.Parallel workers into outcome bytes, keeps
// both in f, and hands readers the results decoded from the outcomes, in
// cell order, identical at any worker count.
func (f *Figure) run(o experiment.Options, cells []scenario.Document) ([]*scenario.Result, error) {
	f.docs = make([][]byte, len(cells))
	for i, doc := range cells {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		f.docs[i] = append(data, '\n')
	}
	var err error
	if f.outcomes, err = experiment.RunTrials(len(cells), o.Parallel, func(i int) ([]byte, error) { return runCell(f.docs[i]) }); err != nil {
		return nil, err
	}
	return experiment.RunTrials(len(cells), o.Parallel, func(i int) (*scenario.Result, error) { return scenario.DecodeOutcome(f.outcomes[i]) })
}

// runCell runs a cell's bytes as dynaqsim -config does and returns its
// outcome file's bytes; a test wraps it or replays stored outcomes.
var runCell = func(data []byte) ([]byte, error) {
	r, err := scenario.LoadWith(data, scenario.Overrides{})
	if err != nil {
		return nil, err
	}
	res, err := r.Run()
	if err != nil {
		return nil, err
	}
	return scenario.EncodeOutcome(res)
}
