package sched

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// The four oracle*Select functions below are DRR.selectFrom, WRR.Select,
// SPQ.Select and SPQDRR.Select as they stood when every scheduler found the
// backlogged queues by asking the View, kept verbatim as functions of the
// scheduler; the helpers they called are oracleCheckNoneBeyond below and
// refAnyBacklogged, the same body, in sched_test.go. They are the
// oracle Pick is driven against: same queue, same round state left behind,
// the same panic, on every view.

func oracleSelectFrom(d *DRR, v View, off int) int {
	// A backlogged queue is served after at most ceil(head/quantum) rounds,
	// so the walk is bounded by n·(maxHead/minQuantum + 2); going beyond
	// means the deficit accounting broke, not a transient condition. Nearly
	// every call returns within the first 2n steps, the least that bound can
	// be, so the scan for the largest head waits until a walk gets that far.
	n := v.NumQueues() - off
	bound, exact := 2*n, false
	for iter := 0; ; iter++ {
		// Walk from cur to the next backlogged queue, writing nothing on the
		// way: should the walk come round to cur, every queue is empty, and
		// such a poll must leave cur, fresh and the deficits alone.
		i, skipped := d.cur, 0
		for v.QueueLen(i+off) == 0 {
			if skipped++; skipped == len(d.quantum) {
				oracleCheckNoneBeyond(d, v, off)
				return -1
			}
			if i++; i == len(d.quantum) {
				i = 0
			}
		}
		// The queues walked past are inactive and carry no deficit; each
		// was a step of the walk and counts toward its bound.
		for ; skipped > 0; skipped-- {
			d.deficit[d.cur] = 0
			d.advance()
			iter++
		}
		if iter >= bound {
			if !exact {
				maxHead := units.ByteSize(0)
				for j := 0; j < n; j++ {
					maxHead = max(maxHead, v.HeadSize(j+off))
				}
				bound, exact = n*(int(maxHead/d.minQuantum)+2), true
			}
			if iter >= bound {
				panic(drrStuck)
			}
		}
		if d.fresh {
			d.deficit[i] += d.quantum[i]
			d.fresh = false
		}
		if v.HeadSize(i+off) <= d.deficit[i] {
			return i
		}
		d.advance()
	}
}

// oracleCheckNoneBeyond panics when v has a backlogged queue the scheduler
// has no quantum for: no walk over the scheduler's own queues would ever
// serve it.
func oracleCheckNoneBeyond(d *DRR, v View, off int) {
	for i := len(d.quantum) + off; i < v.NumQueues(); i++ {
		if v.QueueLen(i) > 0 {
			panic(drrStuck)
		}
	}
}

func oracleWRRSelect(w *WRR, v View) int {
	if !refAnyBacklogged(v) {
		return -1
	}
	for iter := 0; iter <= v.NumQueues(); iter++ {
		i := w.cur
		if v.QueueLen(i) > 0 && w.served < w.weights[i] {
			return i
		}
		w.advance()
	}
	panic("sched: WRR failed to select a backlogged queue")
}

func oracleSPQSelect(v View) int {
	for i := 0; i < v.NumQueues(); i++ {
		if v.QueueLen(i) > 0 {
			return i
		}
	}
	return -1
}

func oracleSPQDRRSelect(s *SPQDRR, v View) int {
	for i := 0; i < s.prio; i++ {
		if v.QueueLen(i) > 0 {
			return i
		}
	}
	if i := oracleSelectFrom(&s.drr, v, s.prio); i >= 0 {
		return i + s.prio
	}
	return -1
}

// pickCase is one scheduler under test and its twin driven by the oracle.
type pickCase struct {
	sut, ref Scheduler
	queues   int // the scheduler's own
	oracle   func(v View) int
}

// newPickCase builds a scheduler of the kind kind picks (DRR, WRR, SPQ,
// SPQ+DRR) over n queues, with quanta, weights and the strict share drawn
// from params.
func newPickCase(t testing.TB, kind byte, n int, params []byte) pickCase {
	param := func(i int) int { return int(params[i%len(params)]) }
	quantums := func(m int) []units.ByteSize {
		qs := make([]units.ByteSize, m)
		for i := range qs {
			qs[i] = oracleSizes[1+param(i)%4]
		}
		return qs
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	switch kind % 4 {
	case 0:
		sut, err := NewDRR(quantums(n))
		must(err)
		ref, _ := NewDRR(quantums(n))
		return pickCase{sut, ref, n, func(v View) int { return oracleSelectFrom(ref, v, 0) }}
	case 1:
		ws := make([]int64, n)
		for i := range ws {
			ws[i] = 1 + int64(param(i)%4)
		}
		sut, err := NewWRR(ws)
		must(err)
		ref, _ := NewWRR(ws)
		return pickCase{sut, ref, n, func(v View) int { return oracleWRRSelect(ref, v) }}
	case 2:
		return pickCase{NewSPQ(), NewSPQ(), n, oracleSPQSelect}
	default:
		n = max(n, 2)
		prio := 1 + param(n)%min(3, n-1)
		sut, err := NewSPQDRR(prio, quantums(n-prio))
		must(err)
		ref, _ := NewSPQDRR(prio, quantums(n-prio))
		return pickCase{sut, ref, n, func(v View) int { return oracleSPQDRRSelect(ref, v) }}
	}
}

// pickOutcome tallies what a script exercised: lone counts the serves of a
// lone backlogged queue that ServeLone was held to, scrambles the round
// states a script set at random.
type pickOutcome struct{ served, emptyPolls, panics, beyond, lone, scrambles int }

// cloneScheduler deep-copies one of the four schedulers, round state and all.
func cloneScheduler(s Scheduler) Scheduler {
	switch s := s.(type) {
	case *DRR:
		c := *s
		c.quantum, c.deficit = slices.Clone(s.quantum), slices.Clone(s.deficit)
		return &c
	case *WRR:
		c := *s
		c.weights = slices.Clone(s.weights)
		return &c
	case *SPQ:
		return NewSPQ()
	case *SPQDRR:
		return &SPQDRR{prio: s.prio, drr: *cloneScheduler(&s.drr).(*DRR)}
	}
	panic(fmt.Sprintf("cloneScheduler: %T", s))
}

// scramble sets s's round state from seed: DRR's cur, fresh flag and
// deficits (any of them stale for an empty queue, as BarberQ's tail evictions
// leave them), WRR's cur and served count up to its weight.
func scramble(s Scheduler, seed []byte) {
	b := func(i int) int { return int(seed[i%len(seed)]) }
	switch s := s.(type) {
	case *DRR:
		s.cur, s.fresh = b(0)%len(s.quantum), b(1)&1 != 0
		for j := range s.deficit {
			s.deficit[j] = 0
			if k := b(2+j) % 8; k < len(oracleSizes) {
				s.deficit[j] = oracleSizes[k]
			}
		}
	case *WRR:
		s.cur = b(0) % len(s.weights)
		s.served = int64(b(1)) % (s.weights[s.cur] + 1)
	case *SPQDRR:
		scramble(&s.drr, seed)
	}
}

// pickAgainstSelect interprets script. Its first three bytes choose the
// scheduler kind, how many queues it has (1 and 64 among them) and how many
// more the view has; the next eight its quanta or weights. Then three bytes
// make a step, as in drrAgainstReference: add to a queue, set its backlog
// and a head that may exceed it, empty it, report a dequeue the view does
// not bear out, set the round state at random, or pick — Pick on Backlog(v)
// against the oracle on v — and dequeue the head picked. A pick from a lone
// backlogged queue also holds ServeLone to the state Pick and OnDequeue left.
func pickAgainstSelect(t testing.TB, script []byte) (out pickOutcome) {
	if len(script) < 11 {
		return
	}
	n := 2 + int(script[1]%16)%7
	switch script[1] % 16 {
	case 0:
		n = MaxQueues
	case 1:
		n = 1
	}
	pc := newPickCase(t, script[0], n, script[3:11])
	nv := min(pc.queues+int(script[2]%5)/3, MaxQueues)
	v := &looseView{qlen: make([]units.ByteSize, nv), head: make([]units.ByteSize, nv)}
	script = script[11:]
	for step := 0; step+2 < len(script); step += 3 {
		op, q := script[step]%16, int(script[step+1])%nv
		size := oracleSizes[int(script[step+2])%len(oracleSizes)]
		switch op {
		case 0, 1, 2, 3:
			if v.qlen[q] += size; v.head[q] == 0 {
				v.head[q] = size
			}
		case 4:
			v.qlen[q], v.head[q] = size, oracleSizes[int(script[step+2]/8)%len(oracleSizes)]
		case 5, 6:
			v.qlen[q], v.head[q] = 0, 0
		case 7:
			if c := script[step+2]; c >= 160 && c < 224 {
				seed := []byte{byte(q), c, script[step+1] ^ c, c >> 3, byte(step), byte(q) * c}
				scramble(pc.sut, seed)
				scramble(pc.ref, seed)
				out.scrambles++
			}
			if script[step+2] < 224 {
				break
			}
			i := int(script[step+1]) % pc.queues
			pc.sut.OnDequeue(i, size, script[step+2]&64 != 0)
			pc.ref.OnDequeue(i, size, script[step+2]&64 != 0)
		default:
			backlog := Backlog(v)
			if backlog>>pc.queues != 0 {
				out.beyond++
			}
			// A lone backlogged queue: Pick and OnDequeue below must leave
			// the state ServeLone leaves in a copy taken now, or both panic
			// alike on a queue beyond the scheduler's own.
			var lone Scheduler
			if backlog != 0 && backlog&(backlog-1) == 0 {
				lone = cloneScheduler(pc.sut)
			}
			got, gotPanic := selectOrPanic(func() int { return pc.sut.Pick(backlog, v) })
			want, wantPanic := selectOrPanic(func() int { return pc.oracle(v) })
			if gotPanic != wantPanic {
				t.Fatalf("step %d: %T panic %q, oracle %q", step/3, pc.sut, gotPanic, wantPanic)
			}
			if wantPanic != "" {
				if lone != nil {
					i := bits.TrailingZeros64(backlog)
					_, lonePanic := selectOrPanic(func() int { lone.ServeLone(i, v.head[i], true); return i })
					if lonePanic != wantPanic {
						t.Fatalf("step %d: %T ServeLone(%d) panic %q, Pick %q", step/3, lone, i, lonePanic, wantPanic)
					}
				}
				out.panics++
				return out // the walk was abandoned midway; its state means nothing
			}
			if got != want {
				t.Fatalf("step %d: %T picked queue %d, oracle %d", step/3, pc.sut, got, want)
			}
			if got < 0 {
				out.emptyPolls++
			} else {
				out.served++
				head := v.head[got]
				if v.qlen[got] = max(v.qlen[got]-head, 0); v.qlen[got] == 0 {
					v.head[got] = 0
				}
				pc.sut.OnDequeue(got, head, v.qlen[got] == 0)
				pc.ref.OnDequeue(got, head, v.qlen[got] == 0)
				if lone != nil {
					lone.ServeLone(got, head, v.qlen[got] == 0)
					if !reflect.DeepEqual(lone, pc.sut) {
						t.Fatalf("step %d: %T ServeLone(%d, %d) left %+v, Pick and OnDequeue %+v",
							step/3, lone, got, head, lone, pc.sut)
					}
					out.lone++
				}
			}
		}
		if !reflect.DeepEqual(pc.sut, pc.ref) {
			t.Fatalf("step %d (op %d, queue %d): state %+v, oracle %+v", step/3, op, q, pc.sut, pc.ref)
		}
	}
	return out
}

func TestPickMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var perKind [4]pickOutcome // DRR, WRR, SPQ, SPQ+DRR
	for trial := 0; trial < 2000; trial++ {
		script := make([]byte, 11+3*300)
		rng.Read(script)
		script[0] = byte(trial % 4)
		switch trial / 4 % 6 {
		case 0:
			script[1] = 0 // 64 queues
		case 1:
			script[1] = 1 // one queue
		}
		if trial%8 == 7 {
			// A drain-heavy mix: views that run empty, polled while empty.
			for i := 11; i < len(script); i += 3 {
				if script[i]%16 < 4 {
					script[i] = 5
				}
			}
		}
		out := pickAgainstSelect(t, script)
		k := &perKind[trial%4]
		k.served, k.emptyPolls = k.served+out.served, k.emptyPolls+out.emptyPolls
		k.panics, k.beyond = k.panics+out.panics, k.beyond+out.beyond
		k.lone, k.scrambles = k.lone+out.lone, k.scrambles+out.scrambles
	}
	for kind, k := range perKind {
		// SPQ alone has no panic to reach.
		if k.served < 10000 || k.emptyPolls < 100 || k.beyond < 100 || (kind != 2 && k.panics < 20) ||
			k.lone < 1000 || k.scrambles < 1000 {
			t.Errorf("kind %d: %+v: the scripts miss a case", kind, k)
		}
	}
}

func FuzzPickMatchesSelect(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 5, 0, 2, 0, 8, 0, 0, 8, 0, 0})
	f.Add([]byte{1, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 0, 1, 2, 0, 2, 2, 8, 0, 0, 8, 0, 0, 8, 0, 0})
	f.Add([]byte{2, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 63, 1, 0, 5, 1, 8, 0, 0, 8, 0, 0})
	f.Add([]byte{3, 1, 4, 2, 0, 1, 0, 2, 3, 1, 0, 4, 2, 40, 0, 1, 5, 8, 0, 0, 7, 0, 230, 8, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		pickAgainstSelect(t, script)
	})
}
