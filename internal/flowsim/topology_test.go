package flowsim

import (
	"testing"

	"dynaq/internal/units"
)

func TestFatTreeShape(t *testing.T) {
	const k = 8
	topo, err := NewFatTree(k, 10*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := topo.Hosts(), k*k*k/4; got != want {
		t.Fatalf("hosts = %d, want %d", got, want)
	}
	// hosts up/down + edge<->agg both ways + agg<->core both ways
	wantLinks := 2*topo.Hosts() + 2*k*(k/2)*(k/2) + 2*k*(k/2)*(k/2)
	if got := topo.NumLinks(); got != wantLinks {
		t.Fatalf("links = %d, want %d", got, wantLinks)
	}
}

func TestFatTreePaths(t *testing.T) {
	const k = 4
	topo, err := NewFatTree(k, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()
	for src := 0; src < hosts; src++ {
		for dst := 0; dst < hosts; dst++ {
			if src == dst {
				continue
			}
			for key := uint64(0); key < 8; key++ {
				p := topo.Path(src, dst, key, nil)
				switch ln := len(p); ln {
				case 2, 4, 6:
				default:
					t.Fatalf("path %d->%d has %d hops", src, dst, ln)
				}
				for _, l := range p {
					if l < 0 || int(l) >= topo.NumLinks() {
						t.Fatalf("path %d->%d uses bad link %d", src, dst, l)
					}
				}
				if int(p[0]) != src {
					t.Fatalf("path %d->%d does not start at the source uplink", src, dst)
				}
				if int(p[len(p)-1]) != topo.Downlink(dst) {
					t.Fatalf("path %d->%d does not end at the destination downlink", src, dst)
				}
				// Same key must give the same path (determinism).
				q := topo.Path(src, dst, key, nil)
				for i := range p {
					if p[i] != q[i] {
						t.Fatalf("path %d->%d key %d not deterministic", src, dst, key)
					}
				}
			}
		}
	}
}

func TestFatTreeCrossPodHopCount(t *testing.T) {
	topo, err := NewFatTree(4, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	// host 0 (pod 0) to the last host (pod 3) always crosses the core.
	p := topo.Path(0, topo.Hosts()-1, 3, nil)
	if len(p) != 6 {
		t.Fatalf("cross-pod path has %d hops, want 6", len(p))
	}
}

func TestStarAndLeafSpinePaths(t *testing.T) {
	star, err := NewStar(5, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if p := star.Path(0, 4, 7, nil); len(p) != 2 {
		t.Fatalf("star path has %d hops, want 2", len(p))
	}
	ls, err := NewLeafSpine(4, 4, 4, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if p := ls.Path(0, 1, 0, nil); len(p) != 2 {
		t.Fatalf("same-leaf path has %d hops, want 2", len(p))
	}
	if p := ls.Path(0, 15, 0, nil); len(p) != 4 {
		t.Fatalf("cross-leaf path has %d hops, want 4", len(p))
	}
}

func TestFatTreeRejectsOddArity(t *testing.T) {
	if _, err := NewFatTree(5, units.Gbps); err == nil {
		t.Fatal("odd arity accepted")
	}
}
