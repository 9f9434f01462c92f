// Package fabric describes the networks the simulator runs on — a star
// (one switch emulating a compute rack), the non-blocking leaf-spine fabric
// of §V-B2 and a k-ary fat tree — as one pure graph: hosts, switches with
// ordered output ports, directed capacitated links, and an arithmetic ECMP
// routing oracle. The packet engine wires netsim switches and ports from it
// (internal/topology) and the fluid engines solve rates over it
// (internal/flowsim), so both see the same nodes, the same link order, the
// same names and the same paths.
//
// The package imports only units and does integer arithmetic on simulated
// quantities: nothing here may depend on the wall clock or on map order.
package fabric

import (
	"fmt"
	"math"

	"dynaq/internal/units"
)

// Kind names a fabric shape.
type Kind string

// Fabric kinds.
const (
	Star      Kind = "star"
	LeafSpine Kind = "leafspine"
	FatTree   Kind = "fattree"
)

// Hops returns the number of links on the kind's longest host-to-host path.
func (k Kind) Hops() int {
	switch k {
	case Star:
		return 2
	case LeafSpine:
		return 4
	case FatTree:
		return 6
	default:
		return 0
	}
}

// BaseRTT returns the round-trip propagation time of the kind's longest
// path for a one-way per-link delay: a data packet and its ACK each cross
// Hops links (4, 8 and 12 link delays).
func (k Kind) BaseRTT(delay units.Duration) units.Duration {
	return units.Duration(2*k.Hops()) * delay
}

// HostNICSpeedup makes host NICs serialize faster than switch ports so the
// standing queue always forms inside the managed switch buffer, never in
// the dumb NIC FIFO. This mirrors both reference substrates: in ns-2 the
// sender's access-link queue *is* the managed queue (there is no separate
// NIC stage), and the paper's qdisc prototype shapes its egress to 99.5% of
// NIC capacity for exactly this reason — "to avoid excessive buffering in
// NIC drivers and NIC hardware" (§IV-B).
const HostNICSpeedup = 4

// Hash is a SplitMix64-style mixer, the deterministic multipath choice for
// a flow. Hashing the flow id (not a shared RNG) spreads flows uniformly
// regardless of id assignment order and keeps path selection independent of
// arrival interleaving, which the parallel-parity guarantee needs.
func Hash(key uint64) uint64 {
	key += 0x9e3779b97f4a7c15
	key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9
	key = (key ^ (key >> 27)) * 0x94d049bb133111eb
	return key ^ (key >> 31)
}

// maxLinks bounds a graph's directed links, so that a hostile shape is
// refused before any of it is allocated. The largest shipped fabric, a k=8
// fat tree, has 768.
const maxLinks = 1 << 20

// ShapeError rejects a constructor argument. Param is the shape parameter's
// scenario-document name, so a loader can point at the offending field.
type ShapeError struct {
	Param string
	Msg   string
}

// Error implements error.
func (e *ShapeError) Error() string { return "fabric: " + e.Msg }

func shapeErr(param, format string, args ...any) error {
	return &ShapeError{Param: param, Msg: fmt.Sprintf(format, args...)}
}

// Link is one directed link. Links are flat indices so the water-filler,
// the fluid engine and the packet wiring can keep per-link state in
// parallel slices.
type Link struct {
	// Name is the link's fault-registry name: "<switch>:<peer>" for switch
	// ports ("tor:<i>" on the star), "host<h>:nic" for host uplinks.
	Name string
	Cap  units.Rate
	// To is the receiving node: a host id when ToHost, else a switch index.
	To     int
	ToHost bool
}

// Group is a named set of links a fault can target as one.
type Group struct {
	Name  string
	Links []int
}

// node is one switch. Its output ports are ordered: ports [0, nDown) lead
// down toward hosts [lo, hi), span hosts behind each, and are links
// [down, down+nDown); ports [nDown, nDown+nUp) lead up, are links
// [up, up+nUp), and are equal-cost toward every host outside [lo, hi).
// shift selects the bits of the flow hash that pick among the uplinks, so
// successive tiers choose independently. below[dst−lo] is the down port
// toward host dst, (dst−lo)/span, worked out once so a hop divides nothing.
type node struct {
	name         string
	nDown, nUp   int
	down, up     int
	lo, hi, span int
	shift        uint
	below        []int32
}

// Graph is a fabric. Link indices follow one layout for every kind: links
// [0, H) are the H host uplinks (NICs), [H, 2H) the downlinks into each
// host, then each tier's uplinks followed by the next tier's downlinks.
type Graph struct {
	kind     Kind
	hosts    int
	access   int // hosts per access switch; the access switches come first
	links    []Link
	switches []node
}

// newGraph starts a graph and lays its host uplinks.
func newGraph(kind Kind, hosts, access int, rate units.Rate) (*Graph, error) {
	switch {
	case rate <= 0:
		return nil, shapeErr("rate_gbps", "link rate must be positive, got %v", rate)
	case rate > math.MaxInt64/HostNICSpeedup:
		return nil, shapeErr("rate_gbps", "link rate %v past 64 bits at the host NICs' %d× speed-up", rate, HostNICSpeedup)
	}
	g := &Graph{kind: kind, hosts: hosts, access: access}
	for h := 0; h < hosts; h++ {
		g.links = append(g.links, Link{Name: fmt.Sprintf("host%d:nic", h), Cap: HostNICSpeedup * rate, To: h / access})
	}
	return g, nil
}

// addSwitch appends n with its down-port table. The switches of one tier
// come one after another and share one shape, so they share one table.
func (g *Graph) addSwitch(n node) {
	if k := len(g.switches); k > 0 && g.switches[k-1].hi-g.switches[k-1].lo == n.hi-n.lo && g.switches[k-1].span == n.span {
		n.below = g.switches[k-1].below
	} else {
		n.below = make([]int32, n.hi-n.lo)
		for d := range n.below {
			n.below[d] = int32(d / n.span)
		}
	}
	g.switches = append(g.switches, n)
}

// lay appends one block of links: for every switch in [first, first+count),
// its downlinks (or uplinks) in port order. to reports the node a port
// reaches: a host id on an access switch's downlinks, else a switch index.
func (g *Graph) lay(first, count int, up bool, rate units.Rate, to func(sw, port int) int) {
	for sw := first; sw < first+count; sw++ {
		s := &g.switches[sw]
		n := s.nDown
		if up {
			s.up, n = len(g.links), s.nUp
		} else {
			s.down = len(g.links)
		}
		toHost := !up && sw < g.hosts/g.access
		for p := 0; p < n; p++ {
			node := to(sw, p)
			var peer string
			switch {
			case !toHost:
				peer = g.switches[node].name
			case g.kind == Star:
				peer = fmt.Sprint(node) // "tor:<i>", the published star names
			default:
				peer = fmt.Sprintf("host%d", node)
			}
			g.links = append(g.links, Link{Name: s.name + ":" + peer, Cap: rate, To: node, ToHost: toHost})
		}
	}
}

// NewStar builds the paper's testbed rack: hosts hosts around one switch
// "tor" whose port i faces host i.
func NewStar(hosts int, rate units.Rate) (*Graph, error) {
	switch {
	case hosts < 2:
		return nil, shapeErr("hosts", "star needs at least 2 hosts, got %d", hosts)
	case hosts > maxLinks/2:
		return nil, shapeErr("hosts", "more than the %d links a fabric may have", maxLinks)
	}
	g, err := newGraph(Star, hosts, hosts, rate)
	if err != nil {
		return nil, err
	}
	g.addSwitch(node{name: "tor", nDown: hosts, hi: hosts, span: 1})
	g.lay(0, 1, false, rate, func(_, h int) int { return h })
	return g, nil
}

// NewLeafSpine builds the non-blocking two-tier fabric of §V-B2: every leaf
// has hostsPerLeaf downlinks and one uplink to each spine, all at the same
// rate (12 leaves × 12 spines × 12 hosts in the paper). Host ids are
// global: host h sits on leaf h / hostsPerLeaf. Leaf ports [0, H) face its
// hosts and [H, H+S) the spines; spine port l faces leaf l; leaves come
// before spines.
func NewLeafSpine(leaves, spines, hostsPerLeaf int, rate units.Rate) (*Graph, error) {
	switch {
	case leaves < 2:
		return nil, shapeErr("leaves", "leaf-spine needs ≥2 leaves, got %d", leaves)
	case spines < 1:
		return nil, shapeErr("spines", "leaf-spine needs ≥1 spine, got %d", spines)
	case hostsPerLeaf < 1:
		return nil, shapeErr("hosts_per_leaf", "leaf-spine needs ≥1 host per leaf, got %d", hostsPerLeaf)
	// Each leaf has a link to and from each of its hosts and each spine.
	case leaves > maxLinks || spines > maxLinks || hostsPerLeaf > maxLinks ||
		2*leaves*(hostsPerLeaf+spines) > maxLinks:
		return nil, shapeErr("leaves", "more than the %d links a fabric may have", maxLinks)
	}
	hosts := leaves * hostsPerLeaf
	g, err := newGraph(LeafSpine, hosts, hostsPerLeaf, rate)
	if err != nil {
		return nil, err
	}
	for l := 0; l < leaves; l++ {
		g.addSwitch(node{name: fmt.Sprintf("leaf%d", l), nDown: hostsPerLeaf, nUp: spines,
			lo: l * hostsPerLeaf, hi: (l + 1) * hostsPerLeaf, span: 1})
	}
	for sp := 0; sp < spines; sp++ {
		g.addSwitch(node{name: fmt.Sprintf("spine%d", sp), nDown: leaves, hi: hosts, span: hostsPerLeaf})
	}
	g.lay(0, leaves, false, rate, func(l, j int) int { return l*hostsPerLeaf + j })
	g.lay(0, leaves, true, rate, func(_, sp int) int { return leaves + sp })
	g.lay(leaves, spines, false, rate, func(_, l int) int { return l })
	return g, nil
}

// NewFatTree builds a k-ary fat tree (Al-Fares et al.): k pods of k/2 edge
// and k/2 aggregation switches, (k/2)² cores, k³/4 hosts. All switch links
// run at the port rate (the fabric is rearrangeably non-blocking). Switches
// are ordered edges, aggregations, cores: "edge<pod>.<e>" ports [0, k/2)
// face its hosts and [k/2, k) the pod's aggregations; "agg<pod>.<a>" ports
// [0, k/2) face the pod's edges and [k/2, k) cores a.0 … a.(k/2-1);
// "core<a>.<j>" port p faces aggregation a of pod p.
func NewFatTree(k int, rate units.Rate) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, shapeErr("k", "fat-tree arity must be even and ≥2, got %d", k)
	}
	// k³/4 hosts, each with a link each way, and k³/4 links in each
	// direction of each of the two switch tiers.
	if k > 128 || 3*k*k*k/2 > maxLinks {
		return nil, shapeErr("k", "more than the %d links a fabric may have", maxLinks)
	}
	half := k / 2
	pod := half * half // hosts per pod
	hosts := k * pod
	g, err := newGraph(FatTree, hosts, half, rate)
	if err != nil {
		return nil, err
	}
	tier := k * half // edge (and aggregation) switches
	for i := 0; i < tier; i++ {
		g.addSwitch(node{name: fmt.Sprintf("edge%d.%d", i/half, i%half), nDown: half, nUp: half,
			lo: i * half, hi: (i + 1) * half, span: 1})
	}
	for i := 0; i < tier; i++ {
		p := i / half
		g.addSwitch(node{name: fmt.Sprintf("agg%d.%d", p, i%half), nDown: half, nUp: half,
			lo: p * pod, hi: (p + 1) * pod, span: half, shift: 32})
	}
	for i := 0; i < pod; i++ {
		g.addSwitch(node{name: fmt.Sprintf("core%d.%d", i/half, i%half), nDown: k, hi: hosts, span: pod})
	}
	// Edge e of pod p is switch p·half+e, aggregation a of pod p is switch
	// tier+p·half+a, core a.j is switch 2·tier+a·half+j.
	g.lay(0, tier, false, rate, func(e, j int) int { return e*half + j })
	g.lay(0, tier, true, rate, func(e, a int) int { return tier + e/half*half + a })
	g.lay(tier, tier, false, rate, func(agg, e int) int { return (agg-tier)/half*half + e })
	g.lay(tier, tier, true, rate, func(agg, j int) int { return 2*tier + (agg-tier)%half*half + j })
	g.lay(2*tier, pod, false, rate, func(core, p int) int { return tier + p*half + (core-2*tier)/half })
	return g, nil
}

// Kind returns the fabric kind.
func (g *Graph) Kind() Kind { return g.kind }

// Hosts returns the number of end hosts.
func (g *Graph) Hosts() int { return g.hosts }

// NumLinks returns the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Link returns link i.
func (g *Graph) Link(i int) Link { return g.links[i] }

// Capacity returns link i's rate.
func (g *Graph) Capacity(i int) units.Rate { return g.links[i].Cap }

// LinkName returns link i's name.
func (g *Graph) LinkName(i int) string { return g.links[i].Name }

// Uplink returns the index of host h's NIC link toward its access switch.
func (g *Graph) Uplink(h int) int { return h }

// Downlink returns the index of the switch link into host h — where
// receiver-side congestion forms.
func (g *Graph) Downlink(h int) int { return g.hosts + h }

// Groups returns the fault groups, one per switch and named after it. On
// the star, "tor" is every switch downlink. Elsewhere a switch's group is
// every link incident to it, both directions, host NICs included — taking
// the group down blackholes traffic into and out of the switch, exactly what
// a powered-off chassis does. Members are in port order of the switch that
// owns each link, switches in index order.
func (g *Graph) Groups() []Group {
	groups := make([]Group, len(g.switches))
	for sw := range g.switches {
		groups[sw].Name = g.switches[sw].name
	}
	for sw := range g.switches {
		for p := 0; p < g.NumPorts(sw); p++ {
			li := g.PortLink(sw, p)
			groups[sw].Links = append(groups[sw].Links, li)
			switch l := g.links[li]; {
			case g.kind == Star:
			case l.ToHost:
				groups[sw].Links = append(groups[sw].Links, g.Uplink(l.To))
			default:
				groups[l.To].Links = append(groups[l.To].Links, li)
			}
		}
	}
	return groups
}

// NumSwitches returns the switch count.
func (g *Graph) NumSwitches() int { return len(g.switches) }

// SwitchName returns switch sw's name.
func (g *Graph) SwitchName(sw int) string { return g.switches[sw].name }

// NumPorts returns the number of output ports of switch sw.
func (g *Graph) NumPorts(sw int) int { return g.switches[sw].nDown + g.switches[sw].nUp }

// PortLink returns the link leaving switch sw through port.
func (g *Graph) PortLink(sw, port int) int {
	s := &g.switches[sw]
	if port < s.nDown {
		return s.down + port
	}
	return s.up + port - s.nDown
}

// Choices returns the equal-cost output ports of switch sw toward host dst,
// [first, first+n), and the selector that picks among them: static ECMP
// takes port first + sel%n. Every downward hop has exactly one choice.
// The flow key is hashed only when there is a choice to make.
func (g *Graph) Choices(sw, dst int, key uint64) (first, n int, sel uint64) {
	s := &g.switches[sw]
	if d := dst - s.lo; d >= 0 && d < len(s.below) {
		return int(s.below[d]), 1, 0
	}
	return s.nDown, s.nUp, Hash(key) >> s.shift
}

// NextHop returns the static-ECMP output port of switch sw toward host dst
// for a flow key. It allocates nothing, and a hop with one choice divides
// nothing.
func (g *Graph) NextHop(sw, dst int, key uint64) int {
	first, n, sel := g.Choices(sw, dst, key)
	if n == 1 {
		return first
	}
	return first + int(sel%uint64(n))
}

// Path appends the directed link indices from host src to host dst into buf
// and returns it: the source's uplink, then the hops NextHop takes.
func (g *Graph) Path(src, dst int, key uint64, buf []int32) []int32 {
	if src == dst || src < 0 || dst < 0 || src >= g.hosts || dst >= g.hosts {
		panic(fmt.Sprintf("fabric: bad path %d->%d over %d hosts", src, dst, g.hosts))
	}
	li := g.Uplink(src)
	for {
		buf = append(buf, int32(li))
		l := &g.links[li]
		if l.ToHost {
			return buf
		}
		li = g.PortLink(l.To, g.NextHop(l.To, dst, key))
	}
}
