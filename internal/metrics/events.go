package metrics

import (
	"fmt"
	"io"

	"dynaq/internal/netsim"
	"dynaq/internal/packet"
	"dynaq/internal/units"
)

// EventRecorder records per-packet port events for debugging and analysis:
// a bounded ring of events with kind filters, per-kind counters, and a
// human-readable dump. Attach installs it on any port.
type EventRecorder struct {
	cap    int
	events []entry
	start  int // oldest slot once the ring is full; 0 until then
	counts map[netsim.PortEventKind]int64
	filter map[netsim.PortEventKind]bool // nil = record all kinds
}

// entry is one ring slot. The event's packet is copied into the slot:
// PortEvent.Pkt is valid only during the hook call, and the packet behind it
// is recycled for another flow while the event still sits in the ring.
type entry struct {
	at     units.Time
	kind   netsim.PortEventKind
	queue  int
	pkt    packet.Packet
	hasPkt bool // events synthesized without a packet have none to copy
}

// NewEventRecorder builds a recorder keeping the most recent capacity events.
func NewEventRecorder(capacity int) (*EventRecorder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("metrics: event recorder capacity %d must be positive", capacity)
	}
	return &EventRecorder{
		cap:    capacity,
		counts: make(map[netsim.PortEventKind]int64),
	}, nil
}

// Only restricts recording (not counting) to the given kinds.
func (r *EventRecorder) Only(kinds ...netsim.PortEventKind) *EventRecorder {
	r.filter = make(map[netsim.PortEventKind]bool, len(kinds))
	for _, k := range kinds {
		r.filter[k] = true
	}
	return r
}

// Attach installs the recorder on a port, after any hook already there. One
// recorder may serve several ports.
func (r *EventRecorder) Attach(p *netsim.Port) { p.AddEventHook(r.record) }

func (r *EventRecorder) record(ev netsim.PortEvent) {
	r.counts[ev.Kind]++
	if r.filter != nil && !r.filter[ev.Kind] {
		return
	}
	var e *entry
	if len(r.events) < r.cap {
		r.events = append(r.events, entry{})
		e = &r.events[len(r.events)-1]
	} else {
		e = &r.events[r.start]
		r.start = (r.start + 1) % r.cap
	}
	e.at, e.kind, e.queue = ev.At, ev.Kind, ev.Queue
	e.hasPkt = ev.Pkt != nil
	if e.hasPkt {
		e.pkt = ev.Pkt.Detached()
	}
}

// Count returns how many events of the kind were seen (including ones the
// ring has since discarded or the filter skipped).
func (r *EventRecorder) Count(k netsim.PortEventKind) int64 { return r.counts[k] }

// Len returns the number of retained events.
func (r *EventRecorder) Len() int { return len(r.events) }

// Events returns the retained events, oldest first. Each Pkt points at a
// copy made for this call, detached from the ring and from the simulation.
func (r *EventRecorder) Events() []netsim.PortEvent {
	out := make([]netsim.PortEvent, len(r.events))
	pkts := make([]packet.Packet, len(r.events))
	for i := range out {
		e := &r.events[(r.start+i)%len(r.events)]
		var pkt *packet.Packet
		if e.hasPkt {
			pkts[i] = e.pkt
			pkt = &pkts[i]
		}
		out[i] = netsim.PortEvent{At: e.at, Kind: e.kind, Queue: e.queue, Pkt: pkt}
	}
	return out
}

// Dump writes the retained events to w, one line each.
func (r *EventRecorder) Dump(w io.Writer) error {
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintf(w, "%-12s t=%-14v q=%d %v\n",
			ev.Kind, ev.At, ev.Queue, ev.Pkt); err != nil {
			return err
		}
	}
	return nil
}

// allKinds lists every port event kind in the order Summary prints them.
var allKinds = []netsim.PortEventKind{
	netsim.EvEnqueue, netsim.EvTransmit, netsim.EvDrop,
	netsim.EvMark, netsim.EvEvict, netsim.EvDequeueDrop,
	netsim.EvMisclass, netsim.EvLinkDrop, netsim.EvLinkCorrupt,
}

// Summary renders the per-kind counters.
func (r *EventRecorder) Summary() string {
	out := ""
	for _, k := range allKinds {
		if c := r.counts[k]; c > 0 {
			out += fmt.Sprintf("%s=%d ", k, c)
		}
	}
	if out == "" {
		return "(no events)"
	}
	return out[:len(out)-1]
}
