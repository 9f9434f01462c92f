package transport

import (
	"math"

	"dynaq/internal/units"
)

// Cubic implements CUBIC congestion control (RFC 8312): the window grows as
// a cubic function of the time since the last decrease, anchored at the
// window size W_max where the last loss occurred. It is the second generic
// transport in the paper's mixed-protocol experiment (Fig. 7).
type Cubic struct {
	Reno // slow start

	// c is the CUBIC scaling constant in segments/s³ (RFC 8312: 0.4).
	c float64
	// beta is the multiplicative decrease factor (RFC 8312: 0.7).
	beta float64

	wmax     float64 // bytes: window just before the last reduction
	k        float64 // seconds to grow back to wmax
	epoch    units.Time
	hasEpoch bool
}

// NewCubic returns a CUBIC controller with RFC 8312 constants.
func NewCubic() *Cubic {
	return &Cubic{c: 0.4, beta: 0.7}
}

// OnAck implements Controller.
func (cb *Cubic) OnAck(s *Sender, acked units.ByteSize, _ bool) {
	if s.Cwnd() < s.Ssthresh() {
		cb.Reno.OnAck(s, acked, false) // slow start
		return
	}
	mss := float64(s.MSS())
	now := s.Now()
	if !cb.hasEpoch {
		cb.hasEpoch = true
		cb.epoch = now
		if cb.wmax < s.Cwnd() {
			// Start of a fresh epoch above the old anchor: grow from
			// here (the "convex region" entry point).
			cb.wmax = s.Cwnd()
		}
		cb.k = math.Cbrt((cb.wmax - s.Cwnd()) / mss / cb.c)
	}
	t := now.Sub(cb.epoch).Seconds()
	d := t - cb.k
	target := (cb.c*d*d*d + cb.wmax/mss) * mss
	if target > s.Cwnd() {
		// Spread the growth over the window's worth of ACKs.
		s.SetCwnd(s.Cwnd() + (target-s.Cwnd())*float64(acked)/s.Cwnd())
	} else {
		// Below the cubic curve (TCP-friendly region simplified to a
		// gentle Reno-like probe).
		s.SetCwnd(s.Cwnd() + mss*float64(acked)/(100*s.Cwnd())*mss)
	}
}

// OnLoss implements Controller: β-scaled decrease and a new cubic epoch.
func (cb *Cubic) OnLoss(s *Sender) {
	cb.wmax = s.Cwnd()
	cb.hasEpoch = false
	s.SetSsthresh(s.Cwnd() * cb.beta)
	s.SetCwnd(s.Ssthresh())
}

// OnTimeout implements Controller.
func (cb *Cubic) OnTimeout(s *Sender) {
	cb.wmax = s.Cwnd()
	cb.hasEpoch = false
	s.SetSsthresh(s.Cwnd() * cb.beta)
	s.SetCwnd(float64(s.MSS()))
}
