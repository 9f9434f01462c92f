// Package server implements dynaqd, the simulation-as-a-service daemon, as
// a thin shell around the coordinator core (internal/coord): an HTTP API for
// jobs, progress streams, worker leases and metrics; a content-addressed
// on-disk result cache keyed by (scenario hash, scheme, seed, build
// version); the files that let queued work survive a restart; a local
// executor pool for when no fleet worker is live; and one maintenance loop
// that sleeps until the core's next deadline. A handler is decode → lock →
// one core op → apply the effects it returns → reply; which job runs, which
// cell is next and what a failure costs are the core's decisions.
//
// Determinism is the serving feature: because a simulation result is a pure
// function of (scenario, scheme, seed) at a given build, the daemon can
// content-address results and serve a cached artifact byte-for-byte
// identical to a fresh run. Nothing in a cache key or an artifact reads the
// wall clock.
package server

import (
	"strconv"
	"sync"
)

// subBuffer is the per-subscriber channel depth. A subscriber that falls
// more than subBuffer lines behind loses the oldest unread lines (the
// stream is progress telemetry, not a durable log — the durable copy is
// events.jsonl in the cell's artifact directory).
const subBuffer = 256

// broadcaster fans one job's event lines out to any number of HTTP
// subscribers. Publishers are the per-cell telemetry Run tee hooks of the
// local executor pool (which run concurrently) plus the job lifecycle lines
// the core emits as effects; subscribers are /v1/jobs/{id}/events handlers.
type broadcaster struct {
	mu     sync.Mutex
	subs   []chan []byte // guarded by mu
	closed bool          // guarded by mu
	drops  int64         // guarded by mu; lines discarded on full subscriber buffers
}

func newBroadcaster() *broadcaster { return &broadcaster{} }

// subscribe registers a new subscriber. The returned channel is closed when
// the job reaches a terminal state; if the job is already terminal it comes
// back closed immediately.
func (b *broadcaster) subscribe() <-chan []byte {
	ch := make(chan []byte, subBuffer)
	b.mu.Lock()
	if b.closed {
		close(ch)
	} else {
		b.subs = append(b.subs, ch)
	}
	b.mu.Unlock()
	return ch
}

// publish wraps one encoded JSONL event line (starting with '{', ending
// with '\n') with the producing cell index — {"cell":N,...original
// fields...} — and delivers it to every subscriber, dropping lines for
// subscribers whose buffer is full rather than stalling the simulation.
// cell -1 marks server-level job lifecycle events.
func (b *broadcaster) publish(cell int, line []byte) {
	if len(line) < 2 || line[0] != '{' {
		return
	}
	msg := make([]byte, 0, len(line)+16)
	msg = append(msg, `{"cell":`...)
	msg = strconv.AppendInt(msg, int64(cell), 10)
	msg = append(msg, ',')
	msg = append(msg, line[1:]...)
	b.mu.Lock()
	for _, ch := range b.subs {
		select {
		case ch <- msg:
		default:
			b.drops++
		}
	}
	b.mu.Unlock()
}

// dropped reports how many lines were discarded on stalled subscribers.
func (b *broadcaster) dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drops
}

// close marks the stream terminal and closes every subscriber channel.
// Publishing after close is a no-op (there is nobody left to deliver to).
func (b *broadcaster) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for _, ch := range b.subs {
			close(ch)
		}
		b.subs = nil
	}
	b.mu.Unlock()
}
