package transport

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dynaq/internal/sim"
	"dynaq/internal/units"
)

// The controllers as they stood before they shared Reno, kept verbatim as
// the oracle for the ones that now embed it: each type and constructor is
// renamed with a parent prefix, and each still has the Name method the
// controller table replaced.

// Reno implements NewReno congestion control (RFC 5681/6582): slow start,
// AIMD congestion avoidance, and halving on loss. This is the paper's
// "TCP" — the generic non-ECN transport the testbed servers run.
type parentReno struct{}

// NewReno returns a NewReno controller. The zero value is also valid; the
// constructor exists for symmetry with the stateful controllers.
func newParentReno() *parentReno { return &parentReno{} }

// Name implements Controller.
func (*parentReno) Name() string { return "reno" }

// OnAck implements Controller: byte-counting slow start below ssthresh,
// one-MSS-per-window congestion avoidance above it.
func (*parentReno) OnAck(s *Sender, acked units.ByteSize, _ bool) {
	mss := float64(s.MSS())
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + float64(acked))
		return
	}
	s.SetCwnd(s.Cwnd() + mss*float64(acked)/s.Cwnd())
}

// OnLoss implements Controller: halve into recovery.
func (*parentReno) OnLoss(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(s.Ssthresh())
}

// OnTimeout implements Controller: collapse to one segment.
func (*parentReno) OnTimeout(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(float64(s.MSS()))
}

// Cubic implements CUBIC congestion control (RFC 8312): the window grows as
// a cubic function of the time since the last decrease, anchored at the
// window size W_max where the last loss occurred. It is the second generic
// transport in the paper's mixed-protocol experiment (Fig. 7).
type parentCubic struct {
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
func newParentCubic() *parentCubic {
	return &parentCubic{c: 0.4, beta: 0.7}
}

// Name implements Controller.
func (*parentCubic) Name() string { return "cubic" }

// OnAck implements Controller.
func (cb *parentCubic) OnAck(s *Sender, acked units.ByteSize, _ bool) {
	mss := float64(s.MSS())
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + float64(acked))
		return
	}
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
func (cb *parentCubic) OnLoss(s *Sender) {
	cb.wmax = s.Cwnd()
	cb.hasEpoch = false
	s.SetSsthresh(s.Cwnd() * cb.beta)
	s.SetCwnd(s.Ssthresh())
}

// OnTimeout implements Controller.
func (cb *parentCubic) OnTimeout(s *Sender) {
	cb.wmax = s.Cwnd()
	cb.hasEpoch = false
	s.SetSsthresh(s.Cwnd() * cb.beta)
	s.SetCwnd(float64(s.MSS()))
}

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM'10): the
// sender maintains an EWMA estimate α of the fraction of ECN-marked bytes
// per window and, once per window in which marks were observed, reduces
// cwnd by a factor α/2. Loss handling falls back to Reno. Flows using DCTCP
// must set FlowConfig.ECN so data packets carry ECT.
type parentDCTCP struct {
	// g is the EWMA gain (the paper and RFC 8257 use 1/16).
	g float64

	alpha      float64
	ackedBytes units.ByteSize
	markedByte units.ByteSize
	windowEnd  int64 // α update boundary (one RTT's worth of data)
	inCWR      bool
	cwrEnd     int64 // reduction applies once until una passes this
}

// NewDCTCP returns a DCTCP controller with RFC 8257 defaults (g = 1/16,
// initial α = 1, conservative until the first estimate completes).
func newParentDCTCP() *parentDCTCP {
	return &parentDCTCP{g: 1.0 / 16.0, alpha: 1}
}

// Name implements Controller.
func (*parentDCTCP) Name() string { return "dctcp" }

// Alpha returns the current marked-fraction estimate.
func (d *parentDCTCP) Alpha() float64 { return d.alpha }

// OnAck implements Controller.
func (d *parentDCTCP) OnAck(s *Sender, acked units.ByteSize, echo bool) {
	d.ackedBytes += acked
	if echo {
		d.markedByte += acked
	}
	// Window rollover: refresh α from the observed mark fraction.
	if s.Una() >= d.windowEnd {
		if d.ackedBytes > 0 {
			f := float64(d.markedByte) / float64(d.ackedBytes)
			d.alpha = (1-d.g)*d.alpha + d.g*f
		}
		d.ackedBytes, d.markedByte = 0, 0
		d.windowEnd = s.Nxt()
	}
	if echo {
		if !d.inCWR {
			// One reduction per window of marked feedback.
			d.inCWR = true
			d.cwrEnd = s.Nxt()
			s.SetCwnd(s.Cwnd() * (1 - d.alpha/2))
			s.SetSsthresh(s.Cwnd())
		}
	}
	if d.inCWR && s.Una() >= d.cwrEnd {
		d.inCWR = false
	}
	// Growth: standard slow start / congestion avoidance between marks.
	mss := float64(s.MSS())
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + float64(acked))
		return
	}
	s.SetCwnd(s.Cwnd() + mss*float64(acked)/s.Cwnd())
}

// OnLoss implements Controller: packet loss falls back to Reno halving.
func (d *parentDCTCP) OnLoss(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(s.Ssthresh())
	d.inCWR = false
}

// OnTimeout implements Controller.
func (d *parentDCTCP) OnTimeout(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(float64(s.MSS()))
	d.inCWR = false
}

// ECNReno is classic RFC 3168 ECN on top of NewReno: a congestion echo is
// treated like a loss signal — one multiplicative decrease per window —
// but without retransmission. It models the "ECN-enabled generic TCP"
// middle ground between plain Reno and DCTCP: coarse-grained (the paper's
// §II-B criticism of ECN as a signal) yet loss-free under marking schemes.
// Flows using it must set FlowConfig.ECN.
type parentECNReno struct {
	inCWR  bool
	cwrEnd int64
}

// NewECNReno returns a classic-ECN NewReno controller.
func newParentECNReno() *parentECNReno { return &parentECNReno{} }

// Name implements Controller.
func (*parentECNReno) Name() string { return "ecn-reno" }

// OnAck implements Controller.
func (e *parentECNReno) OnAck(s *Sender, acked units.ByteSize, echo bool) {
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
	mss := float64(s.MSS())
	if s.Cwnd() < s.Ssthresh() {
		s.SetCwnd(s.Cwnd() + float64(acked))
		return
	}
	s.SetCwnd(s.Cwnd() + mss*float64(acked)/s.Cwnd())
}

// OnLoss implements Controller.
func (e *parentECNReno) OnLoss(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(s.Ssthresh())
	e.inCWR = false
}

// OnTimeout implements Controller.
func (e *parentECNReno) OnTimeout(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(float64(s.MSS()))
	e.inCWR = false
}

// Timely is a delay-based controller in the spirit of TIMELY (SIGCOMM'15),
// one of the non-ECN transports the paper cites as motivation (§II-B):
// congestion is inferred from the RTT and its gradient, no switch support
// needed. This is a window-based simplification of the original's
// rate-based engine: below T_low the window grows additively, above
// T_high it shrinks multiplicatively, and in between the RTT gradient
// steers the direction.
type parentTimely struct {
	// beta is the multiplicative decrease factor (TIMELY's β = 0.8 region
	// scaled for window mode).
	beta float64
	// addSteps scales additive increase (TIMELY's δ·N HAI mode).
	addSteps float64

	minRTT  units.Duration
	prevRTT units.Duration
}

// NewTimely returns a delay-based controller with TIMELY-like constants.
func newParentTimely() *parentTimely {
	return &parentTimely{beta: 0.5, addSteps: 3}
}

// Name implements Controller.
func (*parentTimely) Name() string { return "timely" }

// OnAck implements Controller.
func (tm *parentTimely) OnAck(s *Sender, acked units.ByteSize, _ bool) {
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

// OnLoss implements Controller: delay-based flows still halve on packet
// loss (TIMELY assumes a lossless fabric; under drop-based isolation the
// standard reaction applies).
func (tm *parentTimely) OnLoss(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(s.Ssthresh())
}

// OnTimeout implements Controller.
func (tm *parentTimely) OnTimeout(s *Sender) {
	s.SetSsthresh(float64(s.FlightSize()) / 2)
	s.SetCwnd(float64(s.MSS()))
}

// controllerPairs is every controller beside its parent body.
var controllerPairs = []struct {
	name        string
	now, parent func() Controller
}{
	{"reno", func() Controller { return NewReno() }, func() Controller { return newParentReno() }},
	{"cubic", func() Controller { return NewCubic() }, func() Controller { return newParentCubic() }},
	{"dctcp", func() Controller { return NewDCTCP() }, func() Controller { return newParentDCTCP() }},
	{"ecn-reno", func() Controller { return NewECNReno() }, func() Controller { return newParentECNReno() }},
	{"timely", func() Controller { return NewTimely() }, func() Controller { return newParentTimely() }},
}

// ctrlState renders a controller's own fields, floats by their bits, leaving
// out the embedded Reno, which has none.
func ctrlState(c Controller) string {
	v := reflect.ValueOf(c).Elem()
	out := ""
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if sf.Anonymous {
			continue
		}
		switch f.Kind() {
		case reflect.Float64:
			out += fmt.Sprintf("%s=%#x ", sf.Name, math.Float64bits(f.Float()))
		case reflect.Bool:
			out += fmt.Sprintf("%s=%v ", sf.Name, f.Bool())
		default:
			out += fmt.Sprintf("%s=%d ", sf.Name, f.Int())
		}
	}
	return out
}

// checkControllersMatchParent drives every controller and its parent body
// through one script on two stub senders that share a clock: each pair of
// bytes is an ACK (with or without an echo), more data sent, a loss, a
// timeout, time passing, or a new RTT estimate. After every call both
// senders' cwnd and ssthresh and both controllers' own state must be
// bit-identical.
func checkControllersMatchParent(t *testing.T, script []byte) {
	t.Helper()
	for _, pair := range controllerPairs {
		s := sim.New()
		now, parent := pair.now(), pair.parent()
		a := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Ctrl: now, ECN: true}, nil)
		b := newTestSender(t, s, FlowConfig{Flow: 1, Dst: 1, Ctrl: parent, ECN: true}, nil)
		mss := int64(a.MSS())
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%7, int64(script[i+1])
			for _, snd := range []*Sender{a, b} {
				switch op {
				case 0, 1: // an ACK of 1 to 64 quarter segments
					acked := (arg%64 + 1) * mss / 4
					snd.una += acked
					snd.nxt = max(snd.nxt, snd.una)
					snd.ctrl.OnAck(snd, units.ByteSize(acked), op == 1)
				case 2:
					snd.nxt += (arg % 32) * mss
				case 3:
					snd.ctrl.OnLoss(snd)
				case 4:
					snd.ctrl.OnTimeout(snd)
					snd.nxt = snd.una + mss // go-back-N resends one segment
				case 6:
					snd.srtt = units.Duration(arg%64) * 10 * units.Microsecond
				}
			}
			if op == 5 {
				s.RunUntil(s.Now().Add(units.Duration(arg) * 100 * units.Microsecond))
			}
			sa, sb := ctrlState(now), ctrlState(parent)
			if math.Float64bits(a.cwnd) != math.Float64bits(b.cwnd) ||
				math.Float64bits(a.ssthresh) != math.Float64bits(b.ssthresh) || sa != sb {
				t.Fatalf("%s: after step %d (op %d, arg %d):\n now    cwnd %v ssthresh %v %s\n parent cwnd %v ssthresh %v %s",
					pair.name, i/2, op, arg, a.cwnd, a.ssthresh, sa, b.cwnd, b.ssthresh, sb)
			}
		}
	}
}

// TestControllersMatchParent runs seeded random scripts of 2 000 steps.
func TestControllersMatchParent(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		script := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(script)
		checkControllersMatchParent(t, script)
	}
}

func FuzzControllersMatchParent(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 0, 5})                // an echo, a loss, an ACK
	f.Add([]byte{6, 9, 0, 63, 5, 200, 0, 3, 4, 0}) // an RTT, ACKs across time, a timeout
	f.Add([]byte{2, 31, 1, 7, 1, 7, 0, 63, 3, 1})  // a window in flight, two echoes, a loss
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 8000 {
			script = script[:8000]
		}
		checkControllersMatchParent(t, script)
	})
}
