// Package topology wires the packet-level network — netsim switches, ports,
// links, hosts and transport endpoints — from a fabric graph. One builder
// serves every shape the graph package describes: the star (a compute
// rack, used by the testbed and the static-flow simulations), the
// non-blocking leaf-spine fabric of the dynamic-flow simulations (§V-B2)
// and the k-ary fat tree.
package topology

import (
	"fmt"

	"dynaq/internal/buffer"
	"dynaq/internal/fabric"
	"dynaq/internal/faults"
	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/sched"
	"dynaq/internal/sim"
	"dynaq/internal/transport"
	"dynaq/internal/units"
)

// hostNICBuffer is the deep host egress buffer: hosts are window-limited,
// so the NIC queue only ever holds in-flight windows; it must never drop.
const hostNICBuffer = units.GB

// Factories build per-port scheduler and buffer-management instances; every
// port needs its own state.
type Factories struct {
	// NewScheduler returns a scheduler for a port with n service queues.
	NewScheduler func(n int) (sched.Scheduler, error)
	// NewAdmission returns the buffer-management scheme for a port with
	// buffer b and n service queues on a switch with memory mem.
	NewAdmission func(b units.ByteSize, n int, mem *buffer.SharedPool) (buffer.Admission, error)
}

// Config is what the graph does not say about a packet network.
type Config struct {
	// Delay is the one-way propagation delay of each link; the base RTT is
	// Graph.BaseRTT(Delay) plus serialization.
	Delay units.Duration
	// Buffer is the per-port buffer size B on every switch port, and each
	// switch's memory, all of which one port may hold under a shared scheme.
	Buffer units.ByteSize
	// Queues is the number of service queues per switch port.
	Queues int

	// FailureAware enables failure-aware ECMP: a switch re-hashes flows
	// away from next hops whose path (its own uplink, or the next switch's
	// link toward the destination) has been down longer than
	// DetectionDelay. On a clean network the routing is bit-identical to
	// static ECMP.
	FailureAware bool
	// DetectionDelay is how long an outage must last before failure-aware
	// routing avoids the path — the convergence time of a real fabric's
	// liveness probes. Zero with FailureAware set defaults to 1ms.
	DetectionDelay units.Duration

	Factories
}

// Network is an assembled packet network. Switches and Hosts are indexed
// like the graph's.
type Network struct {
	Sim       *sim.Simulator
	Graph     *fabric.Graph
	Switches  []*netsim.Switch
	Hosts     []*netsim.Host
	Endpoints []*transport.Endpoint
	// Packets is the one free list every endpoint takes its packets from
	// and every discard site returns them to.
	Packets *packet.Pool
	// Flows is the one flow table every endpoint keeps its senders and
	// receivers in, so a flow's two ends share a slot.
	Flows *transport.FlowTable

	ports []*netsim.Port // by graph link index
}

// Build wires g: one netsim.Switch per switch node with one netsim.Port per
// out-link in the graph's port order, one host with a NIC and a transport
// endpoint per host node, routed by the graph's next-hop oracle. Every
// endpoint takes its packets from the network's one pool, Packets, and keeps
// its flows in the network's one table, Flows.
func Build(s *sim.Simulator, g *fabric.Graph, cfg Config) (*Network, error) {
	if cfg.NewScheduler == nil || cfg.NewAdmission == nil {
		return nil, fmt.Errorf("topology: %s needs scheduler and admission factories", g.Kind())
	}
	if cfg.FailureAware && cfg.DetectionDelay == 0 {
		cfg.DetectionDelay = units.Millisecond
	}
	n := &Network{Sim: s, Graph: g, Packets: new(packet.Pool), Flows: new(transport.FlowTable), ports: make([]*netsim.Port, g.NumLinks())}
	for h := 0; h < g.Hosts(); h++ {
		n.Hosts = append(n.Hosts, netsim.NewHost(h, nil))
	}

	for sw := 0; sw < g.NumSwitches(); sw++ {
		sw := sw
		mem, err := buffer.NewSharedPool(cfg.Buffer)
		if err != nil {
			return nil, fmt.Errorf("topology: %s: %w", g.SwitchName(sw), err)
		}
		ports := make([]*netsim.Port, g.NumPorts(sw))
		for i := range ports {
			li := g.PortLink(sw, i)
			l := g.Link(li)
			schd, err := cfg.NewScheduler(cfg.Queues)
			if err != nil {
				return nil, fmt.Errorf("topology: %s:%d scheduler: %w", g.SwitchName(sw), i, err)
			}
			adm, err := cfg.NewAdmission(cfg.Buffer, cfg.Queues, mem)
			if err != nil {
				return nil, fmt.Errorf("topology: %s:%d admission: %w", g.SwitchName(sw), i, err)
			}
			ports[i], err = netsim.NewPort(s, netsim.PortConfig{
				Rate:      l.Cap,
				Buffer:    cfg.Buffer,
				Queues:    cfg.Queues,
				Scheduler: schd,
				Admission: adm,
				Link:      netsim.NewLink(s, cfg.Delay, nil),
			})
			if err != nil {
				return nil, err
			}
			n.ports[li] = ports[i]
		}
		route := func(p *packet.Packet) int { return g.NextHop(sw, p.Dst, uint64(p.Flow)) }
		if cfg.FailureAware {
			route = n.failureAwareRoute(sw, cfg.DetectionDelay)
		}
		nsw, err := netsim.NewSwitch(g.SwitchName(sw), ports, route)
		if err != nil {
			return nil, err
		}
		n.Switches = append(n.Switches, nsw)
	}

	for h, host := range n.Hosts {
		l := g.Link(g.Uplink(h))
		nic, err := netsim.NewPort(s, netsim.PortConfig{
			Rate:      l.Cap,
			Buffer:    hostNICBuffer,
			Queues:    1,
			Scheduler: sched.NewSPQ(),
			Admission: buffer.NewBestEffort(),
			Link:      netsim.NewLink(s, cfg.Delay, nil),
		})
		if err != nil {
			return nil, err
		}
		host.SetEgress(nic)
		n.ports[g.Uplink(h)] = nic
		n.Endpoints = append(n.Endpoints, transport.NewPooledEndpoint(s, host, n.Packets, n.Flows))
	}
	// Switches point at each other, so wiring is two-phase: every link was
	// built without a destination and gets it now that both ends exist.
	for li, p := range n.ports {
		if l := g.Link(li); l.ToHost {
			p.Link().SetDst(n.Hosts[l.To])
		} else {
			p.Link().SetDst(n.Switches[l.To])
		}
	}
	return n, nil
}

// failureAwareRoute is switch sw's routing function under failure-aware
// ECMP. Among the equal-cost next hops it keeps those whose own link and
// whose next switch's link toward the destination have not been detected
// dead. With every next hop live this reduces exactly to static ECMP; with
// none (detection not yet converged, or total fabric loss) it falls back to
// the static choice rather than blackhole locally.
func (n *Network) failureAwareRoute(sw int, detect units.Duration) netsim.RouteFunc {
	g := n.Graph
	// Scratch reused per packet so the hot path stays allocation-free.
	live := make([]int, 0, g.NumPorts(sw))
	return func(p *packet.Packet) int {
		key := uint64(p.Flow)
		first, count, sel := g.Choices(sw, p.Dst, key)
		if count == 1 {
			return first
		}
		live = live[:0]
		for port := first; port < first+count; port++ {
			li := g.PortLink(sw, port)
			next := g.Link(li).To
			onward := g.PortLink(next, g.NextHop(next, p.Dst, key))
			if n.ports[li].Link().Usable(detect) && n.ports[onward].Link().Usable(detect) {
				live = append(live, port)
			}
		}
		if len(live) == 0 {
			return first + int(sel%uint64(count))
		}
		return live[sel%uint64(len(live))]
	}
}

// HostPort returns the switch port facing host h — where receiver-side
// congestion forms, and the port whose buffer-management behaviour the
// experiments measure.
func (n *Network) HostPort(h int) *netsim.Port { return n.ports[n.Graph.Downlink(h)] }

// EachPort calls fn for every switch output port, switches and ports in
// graph order, with the port's telemetry label "<switch>:<port>".
func (n *Network) EachPort(fn func(label string, p *netsim.Port)) {
	for sw, nsw := range n.Switches {
		for i := 0; i < nsw.NumPorts(); i++ {
			fn(fmt.Sprintf("%s:%d", n.Graph.SwitchName(sw), i), nsw.Port(i))
		}
	}
}

// FaultRegistry publishes the network's links and link groups under the
// graph's names for the fault-injection engine (host ids are global, as
// everywhere else):
//
//	star:        tor:<i>, host<i>:nic; group tor (every switch downlink)
//	leaf-spine:  leaf<l>:host<h>, leaf<l>:spine<s>, spine<s>:leaf<l>,
//	             host<h>:nic; groups leaf<l>, spine<s>
//	fat tree:    edge<p>.<e>:host<h>, edge<p>.<e>:agg<p>.<a>,
//	             agg<p>.<a>:edge<p>.<e>, agg<p>.<a>:core<a>.<j>,
//	             core<a>.<j>:agg<p>.<a>, host<h>:nic; one group per switch
//
// Outside the star a switch's group is every link incident to it, both
// directions — whole-switch failure.
func (n *Network) FaultRegistry() *faults.Registry {
	return FaultRegistry(n.Graph, func(li int) *netsim.Link { return n.ports[li].Link() })
}

// FaultRegistry publishes g's links and link groups under the names
// Network.FaultRegistry gives them, link li being link(li): a fault schedule
// can be resolved against a graph before it is wired.
func FaultRegistry(g *fabric.Graph, link func(li int) *netsim.Link) *faults.Registry {
	reg := faults.NewRegistry()
	for li := 0; li < g.NumLinks(); li++ {
		reg.AddLink(g.LinkName(li), link(li))
	}
	for _, grp := range g.Groups() {
		names := make([]string, len(grp.Links))
		for i, li := range grp.Links {
			names[i] = g.LinkName(li)
		}
		reg.AddGroup(grp.Name, names...)
	}
	return reg
}
