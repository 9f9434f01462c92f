package fabric

import (
	"errors"
	"fmt"
	"testing"

	"dynaq/internal/units"
)

func graphs(t *testing.T) map[string]*Graph {
	t.Helper()
	star, err := NewStar(5, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLeafSpine(3, 2, 4, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFatTree(4, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"star": star, "leafspine": ls, "fattree": ft}
}

// TestGraphIsConsistent checks what both engines rely on, for every kind:
// each link is owned by exactly one port (or is a host uplink), uplinks and
// downlinks sit where Uplink/Downlink say, names are unique, and walking
// NextHop from any host reaches any other within the kind's hop count over
// exactly the links Path returns.
func TestGraphIsConsistent(t *testing.T) {
	for name, g := range graphs(t) {
		owner := make([]int, g.NumLinks())
		names := map[string]bool{}
		for li := 0; li < g.NumLinks(); li++ {
			l := g.Link(li)
			if names[l.Name] {
				t.Errorf("%s: duplicate link name %q", name, l.Name)
			}
			names[l.Name] = true
			if l.Cap != g.Capacity(li) || l.Name != g.LinkName(li) {
				t.Errorf("%s: link %d accessors disagree", name, li)
			}
		}
		for h := 0; h < g.Hosts(); h++ {
			owner[g.Uplink(h)]++
			up, down := g.Link(g.Uplink(h)), g.Link(g.Downlink(h))
			if up.ToHost || up.Cap != HostNICSpeedup*units.Gbps || up.Name != fmt.Sprintf("host%d:nic", h) {
				t.Errorf("%s: host %d uplink is %+v", name, h, up)
			}
			if !down.ToHost || down.To != h || down.Cap != units.Gbps {
				t.Errorf("%s: host %d downlink is %+v", name, h, down)
			}
		}
		for sw := 0; sw < g.NumSwitches(); sw++ {
			for p := 0; p < g.NumPorts(sw); p++ {
				owner[g.PortLink(sw, p)]++
			}
		}
		for li, n := range owner {
			if n != 1 {
				t.Errorf("%s: link %d (%s) has %d owners", name, li, g.LinkName(li), n)
			}
		}
		for src := 0; src < g.Hosts(); src++ {
			for dst := 0; dst < g.Hosts(); dst++ {
				if src == dst {
					continue
				}
				for key := uint64(0); key < 8; key++ {
					path := g.Path(src, dst, key, nil)
					if len(path) > g.Kind().Hops() {
						t.Fatalf("%s: path %d->%d has %d links, kind allows %d", name, src, dst, len(path), g.Kind().Hops())
					}
					li := g.Uplink(src)
					for i, want := range path {
						if li != int(want) {
							t.Fatalf("%s: %d->%d key %d hop %d: NextHop walks link %d, Path says %d", name, src, dst, key, i, li, want)
						}
						if l := g.Link(li); !l.ToHost {
							li = g.PortLink(l.To, g.NextHop(l.To, dst, key))
						} else if l.To != dst || i != len(path)-1 {
							t.Fatalf("%s: %d->%d key %d ends at host %d after %d links", name, src, dst, key, l.To, i+1)
						}
					}
				}
			}
		}
	}
}

// TestPublishedNames pins the names scenarios and telemetry depend on: switch
// names and order, per-switch port order, and fault-group membership.
func TestPublishedNames(t *testing.T) {
	gs := graphs(t)
	portNames := func(g *Graph, sw int) []string {
		var out []string
		for p := 0; p < g.NumPorts(sw); p++ {
			out = append(out, g.LinkName(g.PortLink(sw, p)))
		}
		return out
	}
	groupNames := func(g *Graph, i int) []string {
		var out []string
		for _, li := range g.Groups()[i].Links {
			out = append(out, g.LinkName(li))
		}
		return out
	}
	eq := func(what string, got, want []string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}

	star := gs["star"]
	eq("tor ports", portNames(star, 0), []string{"tor:0", "tor:1", "tor:2", "tor:3", "tor:4"})
	eq("group tor", groupNames(star, 0), []string{"tor:0", "tor:1", "tor:2", "tor:3", "tor:4"})
	if len(star.Groups()) != 1 || star.Groups()[0].Name != "tor" {
		t.Errorf("star groups = %+v", star.Groups())
	}

	ls := gs["leafspine"] // 3 leaves, 2 spines, 4 hosts per leaf
	if ls.SwitchName(1) != "leaf1" || ls.SwitchName(3) != "spine0" || ls.NumSwitches() != 5 {
		t.Errorf("leaf-spine switch order: %q %q of %d", ls.SwitchName(1), ls.SwitchName(3), ls.NumSwitches())
	}
	eq("leaf1 ports", portNames(ls, 1), []string{
		"leaf1:host4", "leaf1:host5", "leaf1:host6", "leaf1:host7", "leaf1:spine0", "leaf1:spine1"})
	eq("spine1 ports", portNames(ls, 4), []string{"spine1:leaf0", "spine1:leaf1", "spine1:leaf2"})
	eq("group leaf1", groupNames(ls, 1), []string{
		"leaf1:host4", "host4:nic", "leaf1:host5", "host5:nic", "leaf1:host6", "host6:nic", "leaf1:host7", "host7:nic",
		"leaf1:spine0", "leaf1:spine1", "spine0:leaf1", "spine1:leaf1"})
	eq("group spine1", groupNames(ls, 4), []string{
		"leaf0:spine1", "leaf1:spine1", "leaf2:spine1", "spine1:leaf0", "spine1:leaf1", "spine1:leaf2"})

	ft := gs["fattree"] // k=4: 8 edges, 8 aggregations, 4 cores
	if ft.NumSwitches() != 20 || ft.SwitchName(3) != "edge1.1" || ft.SwitchName(8) != "agg0.0" || ft.SwitchName(19) != "core1.1" {
		t.Errorf("fat-tree switch order: %q %q %q of %d", ft.SwitchName(3), ft.SwitchName(8), ft.SwitchName(19), ft.NumSwitches())
	}
	eq("edge1.1 ports", portNames(ft, 3), []string{"edge1.1:host6", "edge1.1:host7", "edge1.1:agg1.0", "edge1.1:agg1.1"})
	eq("agg1.0 ports", portNames(ft, 10), []string{"agg1.0:edge1.0", "agg1.0:edge1.1", "agg1.0:core0.0", "agg1.0:core0.1"})
	eq("core1.0 ports", portNames(ft, 18), []string{"core1.0:agg0.1", "core1.0:agg1.1", "core1.0:agg2.1", "core1.0:agg3.1"})
}

func TestShapeErrorsNameTheParameter(t *testing.T) {
	cases := []struct {
		param string
		build func() (*Graph, error)
	}{
		{"hosts", func() (*Graph, error) { return NewStar(1, units.Gbps) }},
		{"rate_gbps", func() (*Graph, error) { return NewStar(4, 0) }},
		{"rate_gbps", func() (*Graph, error) { return NewStar(4, 1<<62) }},
		{"leaves", func() (*Graph, error) { return NewLeafSpine(1, 2, 2, units.Gbps) }},
		{"spines", func() (*Graph, error) { return NewLeafSpine(2, 0, 2, units.Gbps) }},
		{"hosts_per_leaf", func() (*Graph, error) { return NewLeafSpine(2, 2, 0, units.Gbps) }},
		{"k", func() (*Graph, error) { return NewFatTree(5, units.Gbps) }},
		{"k", func() (*Graph, error) { return NewFatTree(0, units.Gbps) }},
		// Shapes too large to allocate are refused before they are.
		{"hosts", func() (*Graph, error) { return NewStar(1<<40, units.Gbps) }},
		{"leaves", func() (*Graph, error) { return NewLeafSpine(1<<40, 2, 2, units.Gbps) }},
		{"leaves", func() (*Graph, error) { return NewLeafSpine(2, 1<<19, 2, units.Gbps) }},
		{"leaves", func() (*Graph, error) { return NewLeafSpine(2, 2, 1<<62, units.Gbps) }},
		{"k", func() (*Graph, error) { return NewFatTree(200, units.Gbps) }},
		{"k", func() (*Graph, error) { return NewFatTree(1<<40, units.Gbps) }},
	}
	for _, tc := range cases {
		_, err := tc.build()
		var shape *ShapeError
		if !errors.As(err, &shape) || shape.Param != tc.param {
			t.Errorf("want a ShapeError on %q, got %v", tc.param, err)
		}
	}
}

func TestRoutingAllocatesNothing(t *testing.T) {
	g := graphs(t)["fattree"]
	buf := make([]int32, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		buf = g.Path(0, g.Hosts()-1, 7, buf[:0])
		_ = g.NextHop(0, g.Hosts()-1, 7)
	}); n != 0 {
		t.Fatalf("Path+NextHop allocate %v times per call", n)
	}
}
