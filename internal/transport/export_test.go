package transport

import (
	"dynaq/internal/packet"
	"dynaq/internal/sim"
)

// sendFunc is a nic that hands each packet to a test's function.
type sendFunc func(*packet.Packet)

func (f sendFunc) Send(p *packet.Packet) { f(p) }

// newSender builds a bare sender, outside any flow table: its packets go to
// emit, and no endpoint retires it.
func newSender(s *sim.Simulator, pkts *packet.Pool, src int, emit func(*packet.Packet), cfg FlowConfig) (*Sender, error) {
	snd := new(Sender)
	if err := snd.init(s, pkts, src, sendFunc(emit), cfg); err != nil {
		return nil, err
	}
	return snd, nil
}
