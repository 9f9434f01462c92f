package transport

import (
	"dynaq/internal/packet"
	"dynaq/internal/sim"
)

// newSender builds a bare sender, outside any flow table: its packets go to
// emit, and no endpoint retires it.
func newSender(s *sim.Simulator, pkts *packet.Pool, src int, emit func(*packet.Packet), cfg FlowConfig) (*Sender, error) {
	snd := new(Sender)
	if err := snd.init(s, pkts, src, emit, cfg); err != nil {
		return nil, err
	}
	return snd, nil
}
