package transport

import "dynaq/internal/units"

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM'10): the
// sender maintains an EWMA estimate α of the fraction of ECN-marked bytes
// per window and, once per window in which marks were observed, reduces
// cwnd by a factor α/2. Growth and loss handling are Reno's. Flows using
// DCTCP must set FlowConfig.ECN so data packets carry ECT.
type DCTCP struct {
	Reno

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
func NewDCTCP() *DCTCP {
	return &DCTCP{g: 1.0 / 16.0, alpha: 1}
}

// OnAck implements Controller.
func (d *DCTCP) OnAck(s *Sender, acked units.ByteSize, echo bool) {
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
	d.Reno.OnAck(s, acked, echo)
}

// OnLoss implements Controller: packet loss falls back to Reno halving and
// ends any window reduction in progress.
func (d *DCTCP) OnLoss(s *Sender) {
	d.Reno.OnLoss(s)
	d.inCWR = false
}

// OnTimeout implements Controller: Reno's collapse, ending any window
// reduction in progress.
func (d *DCTCP) OnTimeout(s *Sender) {
	d.Reno.OnTimeout(s)
	d.inCWR = false
}
