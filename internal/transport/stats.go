package transport

// Aggregate accessors for the telemetry layer. Each sums integer counters
// over the endpoint's live senders: integer addition is associative, so the
// totals do not depend on the order the senders are linked in.

// add accumulates o's counters into st.
func (st *SenderStats) add(o SenderStats) {
	st.SentPackets += o.SentPackets
	st.SentBytes += o.SentBytes
	st.Retransmits += o.Retransmits
	st.Timeouts += o.Timeouts
	st.FastRecovers += o.FastRecovers
	st.EchoedAcks += o.EchoedAcks
}

// TotalStats sums the sender counters of every flow this endpoint started,
// live or completed.
func (ep *Endpoint) TotalStats() SenderStats {
	t := ep.retired
	for snd := ep.live; snd != nil; snd = snd.next {
		t.add(snd.stats)
	}
	return t
}

// ActiveFlows counts senders that have not yet completed.
func (ep *Endpoint) ActiveFlows() int {
	n := 0
	for snd := ep.live; snd != nil; snd = snd.next {
		n++
	}
	return n
}

// CwndTotal sums the congestion windows of the endpoint's active senders,
// truncating each window to whole bytes first so the sum stays
// order-independent.
func (ep *Endpoint) CwndTotal() int64 {
	var total int64
	for snd := ep.live; snd != nil; snd = snd.next {
		total += int64(snd.cwnd)
	}
	return total
}

// AcksSent counts the pure ACKs this endpoint's receivers have emitted,
// retired ones' included.
func (ep *Endpoint) AcksSent() int64 { return ep.acks }
