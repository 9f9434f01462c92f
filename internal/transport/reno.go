package transport

import "dynaq/internal/units"

// Reno implements NewReno congestion control (RFC 5681/6582): slow start,
// AIMD congestion avoidance, and halving on loss. This is the paper's
// "TCP" — the generic non-ECN transport the testbed servers run.
//
// It is the one implementation of these rules: every other controller
// embeds Reno and overrides only what it does differently.
type Reno struct{}

// NewReno returns a NewReno controller. The zero value is also valid; the
// constructor exists for symmetry with the stateful controllers.
func NewReno() *Reno { return &Reno{} }

// OnAck implements Controller: byte-counting slow start below ssthresh,
// one-MSS-per-window congestion avoidance above it.
func (*Reno) OnAck(s *Sender, acked units.ByteSize, _ bool) {
	mss := float64(s.MSS())
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + float64(acked))
		return
	}
	s.SetCwnd(s.Cwnd() + mss*float64(acked)/s.Cwnd())
}

// OnLoss implements Controller: halve into recovery.
func (*Reno) OnLoss(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(s.Ssthresh())
}

// OnTimeout implements Controller: collapse to one segment.
func (*Reno) OnTimeout(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(float64(s.MSS()))
}
