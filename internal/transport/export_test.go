package transport

// LiveSenders reports how many senders ep holds.
func LiveSenders(ep *Endpoint) int { return len(ep.senders) }
