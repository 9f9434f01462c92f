package transport

import "dynaq/internal/units"

// ECNReno is classic RFC 3168 ECN on top of NewReno: a congestion echo is
// treated like a loss signal — one multiplicative decrease per window —
// but without retransmission. It models the "ECN-enabled generic TCP"
// middle ground between plain Reno and DCTCP: coarse-grained (the paper's
// §II-B criticism of ECN as a signal) yet loss-free under marking schemes.
// Flows using it must set FlowConfig.ECN.
type ECNReno struct {
	Reno

	inCWR  bool
	cwrEnd int64
}

// NewECNReno returns a classic-ECN NewReno controller.
func NewECNReno() *ECNReno { return &ECNReno{} }

// OnAck implements Controller.
func (e *ECNReno) OnAck(s *Sender, acked units.ByteSize, echo bool) {
	if e.inCWR && s.Una() >= e.cwrEnd {
		e.inCWR = false
	}
	if echo && !e.inCWR {
		// RFC 3168: react at most once per window of data.
		e.inCWR = true
		e.cwrEnd = s.Nxt()
		s.SetSsthresh(s.Cwnd() / 2)
		s.SetCwnd(s.Ssthresh())
		return
	}
	e.Reno.OnAck(s, acked, echo)
}

// OnLoss implements Controller: Reno's halving, ending any echo reduction
// in progress.
func (e *ECNReno) OnLoss(s *Sender) {
	e.Reno.OnLoss(s)
	e.inCWR = false
}

// OnTimeout implements Controller: Reno's collapse, ending any echo
// reduction in progress.
func (e *ECNReno) OnTimeout(s *Sender) {
	e.Reno.OnTimeout(s)
	e.inCWR = false
}
