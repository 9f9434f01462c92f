package transport

import "dynaq/internal/units"

// Timely is a delay-based controller in the spirit of TIMELY (SIGCOMM'15),
// one of the non-ECN transports the paper cites as motivation (§II-B):
// congestion is inferred from the RTT and its gradient, no switch support
// needed. This is a window-based simplification of the original's
// rate-based engine: below T_low the window grows additively, above
// T_high it shrinks multiplicatively, and in between the RTT gradient
// steers the direction. Loss and timeouts take Reno's halving and collapse
// (TIMELY assumes a lossless fabric; under drop-based isolation the standard
// reaction applies).
type Timely struct {
	Reno // OnLoss, OnTimeout

	// beta is the multiplicative decrease factor (TIMELY's β = 0.8 region
	// scaled for window mode).
	beta float64
	// addSteps scales additive increase (TIMELY's δ·N HAI mode).
	addSteps float64

	minRTT  units.Duration
	prevRTT units.Duration
}

// NewTimely returns a delay-based controller with TIMELY-like constants.
func NewTimely() *Timely {
	return &Timely{beta: 0.5, addSteps: 3}
}

// OnAck implements Controller.
func (tm *Timely) OnAck(s *Sender, acked units.ByteSize, _ bool) {
	rtt := s.SRTT()
	mss := float64(s.MSS())
	if rtt == 0 {
		// No RTT estimate yet: slow-start ramp.
		s.SetCwnd(s.Cwnd() + float64(acked))
		return
	}
	if tm.minRTT == 0 || rtt < tm.minRTT {
		tm.minRTT = rtt
	}
	tLow := tm.minRTT + tm.minRTT/10 // 1.1·minRTT
	tHigh := 2 * tm.minRTT
	grad := float64(rtt-tm.prevRTT) / float64(tm.minRTT)
	tm.prevRTT = rtt
	frac := float64(acked) / s.Cwnd() // fraction of a window this ACK covers
	switch {
	case rtt < tLow:
		// Far from congestion: additive increase, HAI-style.
		s.SetCwnd(s.Cwnd() + tm.addSteps*mss*frac)
	case rtt > tHigh:
		// Deep queueing: multiplicative decrease toward T_high.
		scale := 1 - tm.beta*(1-float64(tHigh)/float64(rtt))*frac
		s.SetCwnd(s.Cwnd() * scale)
	case grad <= 0:
		// Queue draining: probe up.
		s.SetCwnd(s.Cwnd() + mss*frac)
	default:
		// Queue building: back off proportionally to the gradient.
		scale := 1 - tm.beta*grad*frac
		if scale < 0.5 {
			scale = 0.5
		}
		s.SetCwnd(s.Cwnd() * scale)
	}
	s.SetSsthresh(s.Cwnd())
}
