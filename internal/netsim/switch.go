package netsim

import (
	"fmt"

	"dynaq/internal/packet"
)

// RouteFunc maps an arriving packet to the index of the output port it
// leaves through.
type RouteFunc func(p *packet.Packet) int

// Switch is an output-queued switch: packets arriving on any input are
// routed to an output port and enqueued there. Output queueing matches the
// shared-memory ASICs the paper models (buffer contention happens at the
// egress port).
type Switch struct {
	name  string
	ports []*Port
	route RouteFunc
}

// NewSwitch builds a switch from its output ports and routing function.
func NewSwitch(name string, ports []*Port, route RouteFunc) (*Switch, error) {
	if len(ports) == 0 {
		return nil, fmt.Errorf("netsim: switch %q needs at least one port", name)
	}
	if route == nil {
		return nil, fmt.Errorf("netsim: switch %q needs a routing function", name)
	}
	return &Switch{name: name, ports: ports, route: route}, nil
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// Port returns output port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Receive implements Node: route and enqueue.
func (s *Switch) Receive(p *packet.Packet) {
	i := s.route(p)
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("netsim: switch %q routed %v to invalid port %d", s.name, p, i))
	}
	s.ports[i].Enqueue(p)
}

// Host is an end host: an egress NIC port toward its access link and a
// handler (installed by the transport layer) for arriving packets.
type Host struct {
	id      int
	egress  *Port
	handler Node
}

// NewHost builds host id with the given egress port. The egress may be nil
// at construction (hosts and switches reference each other, so wiring is
// two-phase); install it with SetEgress before the host sends. The
// transport layer must install a handler before any packet arrives.
func NewHost(id int, egress *Port) *Host {
	return &Host{id: id, egress: egress}
}

// ID returns the host id.
func (h *Host) ID() int { return h.id }

// Egress returns the NIC port.
func (h *Host) Egress() *Port { return h.egress }

// SetEgress installs the NIC port (second phase of topology wiring).
func (h *Host) SetEgress(p *Port) { h.egress = p }

// SetHandler installs the node every arriving packet is handed to.
func (h *Host) SetHandler(n Node) { h.handler = n }

// Send pushes a locally generated packet onto the NIC.
func (h *Host) Send(p *packet.Packet) { h.egress.Enqueue(p) }

// Receive implements Node.
func (h *Host) Receive(p *packet.Packet) {
	if h.handler == nil {
		panic(fmt.Sprintf("netsim: host %d received %v with no handler installed", h.id, p))
	}
	h.handler.Receive(p)
}
