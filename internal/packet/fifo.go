package packet

// FIFO is a queue of packets linked through the packets themselves, oldest
// first: a port's service queue and a link's wire. A packet's one owner
// keeps it in at most one list at a time (a FIFO or its pool's free list),
// so a FIFO has no storage of its own and never allocates, however deep it
// gets. The zero value is empty.
type FIFO struct {
	head, tail *Packet
	n          int
}

// Push appends p, which must be in no other list, as the newest packet.
func (q *FIFO) Push(p *Packet) {
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

// Pop removes and returns the oldest packet of a non-empty FIFO.
func (q *FIFO) Pop() *Packet {
	p := q.head
	q.head = p.next
	if q.head == nil {
		q.tail = nil
	}
	p.next = nil
	q.n--
	return p
}

// PopTail removes and returns the newest packet of a non-empty FIFO. It
// walks from the head, one step per packet queued: only eviction (BarberQ)
// calls it, on a queue of at most a port buffer's worth of packets.
func (q *FIFO) PopTail() *Packet {
	p := q.tail
	if q.head == p {
		q.head, q.tail = nil, nil
	} else {
		prev := q.head
		for prev.next != p {
			prev = prev.next
		}
		prev.next = nil
		q.tail = prev
	}
	q.n--
	return p
}

// Head returns the oldest packet, or nil when the FIFO is empty.
func (q *FIFO) Head() *Packet { return q.head }

// Len returns the number of packets queued.
func (q *FIFO) Len() int { return q.n }
