package transport

// Aggregate accessors for the telemetry layer. Each sums integer counters
// over the endpoint's flow maps: integer addition is associative, so the
// totals are order-independent despite Go's randomized map iteration.

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
	for _, snd := range ep.senders {
		t.add(snd.stats)
	}
	return t
}

// ActiveFlows counts senders that have not yet completed.
func (ep *Endpoint) ActiveFlows() int { return len(ep.senders) }

// CwndTotal sums the congestion windows of the endpoint's active senders,
// truncating each window to whole bytes first so the sum stays
// order-independent.
func (ep *Endpoint) CwndTotal() int64 {
	var total int64
	for _, snd := range ep.senders {
		total += int64(snd.cwnd)
	}
	return total
}

// AcksSent sums the pure ACKs this endpoint's receivers have emitted.
func (ep *Endpoint) AcksSent() int64 {
	var n int64
	for _, r := range ep.receivers {
		n += r.acksSent
	}
	return n
}
