package flowsim

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dynaq/internal/buffer"
	"dynaq/internal/packet"
	"dynaq/internal/sim"
	"dynaq/internal/units"
)

var updateEngineRuns = flag.Bool("update-engine-runs", false, "rewrite testdata/engine_runs.golden")

// program is one seeded engine run: a fabric, an engine config and the
// flows offered to it, in arrival order.
type program struct {
	name  string
	cfg   Config
	at    []units.Time
	flows []FlowSpec
}

// Program kinds, chosen by seed modulo their count: a fluid k=4 fat tree
// whose heavy tails overflow the fluid buffers, a hybrid star under
// repeated incast, and a hybrid leaf-spine with incasts over background
// traffic. The hybrid ones demote and promote with residual backlog.
const (
	kindFatTree = iota
	kindIncast
	kindLeafSpine
	numKinds
)

// genProgram draws a program of the given kind from seed.
func genProgram(tb testing.TB, kind int, seed int64) program {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		topo *Topology
		err  error
		p    = program{name: fmt.Sprintf("kind%d/seed%d", kind, seed)}
	)
	addFlow := func(at units.Time, src, dst, class int, size units.ByteSize) {
		p.at = append(p.at, at)
		p.flows = append(p.flows, FlowSpec{
			ID: packet.FlowID(len(p.flows) + 1), Src: src, Dst: dst, Class: class, Size: size,
		})
	}
	randPair := func(hosts int) (int, int) {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		return src, dst
	}
	queues := 3
	switch kind {
	case kindFatTree:
		topo, err = NewFatTree(4, 10*units.Gbps)
		queues = 2 + rng.Intn(6)
		p.cfg = Config{Buffer: units.ByteSize(32+rng.Intn(160)) * units.KB, RTT: units.Duration(20+rng.Intn(100)) * units.Microsecond}
		at := units.Time(0)
		for i, n := 0, 80+rng.Intn(120); i < n; i++ {
			at = at.Add(units.Duration(rng.Int63n(int64(20 * units.Microsecond))))
			size := units.ByteSize(1000 + rng.Int63n(100_000))
			if rng.Intn(12) == 0 {
				size = units.ByteSize(1_000_000 + rng.Int63n(4_000_000))
			}
			src, dst := randPair(topo.Hosts())
			addFlow(at, src, dst, 1+rng.Intn(queues-1), size)
		}
	case kindIncast:
		hosts := 5 + rng.Intn(8)
		topo, err = NewStar(hosts, units.Gbps)
		p.cfg = Config{Hybrid: true, Buffer: units.ByteSize(60+rng.Intn(80)) * units.KB, RTT: units.Duration(50+rng.Intn(450)) * units.Microsecond}
		at := units.Time(0)
		for w, waves := 0, 2+rng.Intn(4); w < waves; w++ {
			dst := rng.Intn(hosts)
			for src := 0; src < hosts; src++ {
				if src != dst && rng.Intn(4) != 0 {
					addFlow(at.Add(units.Duration(rng.Intn(3))*units.Microsecond), src, dst, 1+rng.Intn(queues-1), units.ByteSize(20_000+rng.Int63n(300_000)))
				}
			}
			at = at.Add(units.Duration(rng.Int63n(int64(3 * units.Millisecond))))
		}
	case kindLeafSpine:
		leaves := 2 + rng.Intn(3)
		topo, err = NewLeafSpine(leaves, 1+rng.Intn(3), 2+rng.Intn(3), 10*units.Gbps)
		p.cfg = Config{Hybrid: true, Buffer: units.ByteSize(50+rng.Intn(150)) * units.KB, RTT: units.Duration(20+rng.Intn(60)) * units.Microsecond}
		hosts := topo.Hosts()
		at := units.Time(0)
		if rng.Intn(2) == 0 {
			// On a quiet fabric, an incast onto one host from every host
			// of another leaf. Under one spine every link on the way
			// carries the same offered rate, so they cross the demote
			// threshold together and one advance demotes them in link
			// order.
			per := hosts / leaves
			dst := rng.Intn(hosts)
			from := (dst/per + 1 + rng.Intn(leaves-1)) % leaves
			for s := from * per; s < (from+1)*per; s++ {
				addFlow(0, s, dst, 1+rng.Intn(queues-1), units.ByteSize(200_000+rng.Int63n(300_000)))
			}
			at = at.Add(2 * units.Millisecond)
		}
		for i, n := 0, 60+rng.Intn(60); i < n; i++ {
			at = at.Add(units.Duration(rng.Int63n(int64(30 * units.Microsecond))))
			src, dst := randPair(hosts)
			addFlow(at, src, dst, 1+rng.Intn(queues-1), units.ByteSize(2000+rng.Int63n(400_000)))
			if rng.Intn(15) == 0 {
				// An incast onto dst from every other host at once.
				for s := 0; s < hosts; s++ {
					if s != dst {
						addFlow(at, s, dst, 1+rng.Intn(queues-1), units.ByteSize(30_000+rng.Int63n(200_000)))
					}
				}
			}
		}
	default:
		tb.Fatalf("unknown program kind %d", kind)
	}
	if err != nil {
		tb.Fatal(err)
	}
	p.cfg.Topo = topo
	p.cfg.Queues = queues
	p.cfg.Weights = make([]int64, queues)
	for q := range p.cfg.Weights {
		p.cfg.Weights[q] = 1 + int64(rng.Intn(3))
	}
	p.cfg.MTU, p.cfg.MSS = 1500, 1460
	if p.cfg.Hybrid {
		b, w := p.cfg.Buffer, p.cfg.Weights
		p.cfg.NewAdmission = func() (buffer.Admission, error) { return buffer.NewDynaQ(b, w) }
	}
	return p
}

// runProgram plays p to completion, calling check (when non-nil) after
// every simulator Step, and returns every flow's FCT and the final stats.
func runProgram(tb testing.TB, p program, check func(*Engine)) ([]units.Duration, Stats) {
	tb.Helper()
	s := sim.New()
	e, err := New(s, p.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer e.Close()
	fcts := make([]units.Duration, len(p.flows))
	for i, spec := range p.flows {
		i := i
		spec.OnComplete = func(d units.Duration) { fcts[i] = d }
		e.ScheduleArrival(p.at[i], spec)
	}
	want := int64(len(p.flows))
	deadline := units.Time(10 * units.Second)
	for e.stats.Completed < want && s.Pending() > 0 && s.Now() < deadline {
		s.Step()
		if check != nil {
			check(e)
		}
	}
	if e.stats.Completed < want {
		tb.Fatalf("%s: completed %d of %d flows by %v", p.name, e.stats.Completed, want, s.Now())
	}
	return fcts, e.Stats()
}

// goldenPrograms are the runs pinned in testdata/engine_runs.golden.
func goldenPrograms(tb testing.TB) []program {
	var ps []program
	for kind := 0; kind < numKinds; kind++ {
		for seed := int64(1); seed <= 2; seed++ {
			ps = append(ps, genProgram(tb, kind, seed))
		}
	}
	return ps
}

// TestEngineRunsGolden pins every flow's FCT and the run counters of the
// golden programs, on both engine modes they exercise. A change to how the
// engine walks its links or divides must leave the file byte-identical;
// -update-engine-runs rewrites it.
func TestEngineRunsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, p := range goldenPrograms(t) {
		fcts, st := runProgram(t, p, nil)
		fmt.Fprintf(&out, "%s flows=%d links=%d hybrid=%v\n", p.name, len(p.flows), p.cfg.Topo.NumLinks(), p.cfg.Hybrid)
		fmt.Fprintf(&out, "  stats %+v\n", st)
		for i, d := range fcts {
			if i%8 == 0 {
				out.WriteString("  fct")
			}
			fmt.Fprintf(&out, " %d", int64(d))
			if i%8 == 7 || i == len(fcts)-1 {
				out.WriteByte('\n')
			}
		}
	}
	path := filepath.Join("testdata", "engine_runs.golden")
	if *updateEngineRuns {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-engine-runs to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("engine runs differ from %s at line %d:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("engine runs differ from %s in length: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
