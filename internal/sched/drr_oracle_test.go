package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// refSelectFrom is DRR.selectFrom as it stood before it became one pass — a
// pre-scan for any backlogged queue, then a walk over the same queues — kept
// verbatim (with its advance, which wrapped by division) as the oracle for
// the current one: same queue, same cur, fresh and deficits left behind, the
// same panic, on every view.
func refSelectFrom(d *DRR, v View, off int) int {
	if !refAnyBackloggedFrom(v, off) {
		return -1
	}
	// A backlogged queue is served after at most ceil(head/quantum) rounds,
	// so the walk is bounded by n·(maxHead/minQuantum + 2); going beyond
	// means the deficit accounting broke, not a transient condition. Nearly
	// every call returns within the first 2n steps, the least that bound can
	// be, so the scan for the largest head waits until a walk gets that far.
	n := v.NumQueues() - off
	bound, exact := 2*n, false
	for iter := 0; ; iter++ {
		if iter >= bound {
			if !exact {
				maxHead := units.ByteSize(0)
				for i := 0; i < n; i++ {
					maxHead = max(maxHead, v.HeadSize(i+off))
				}
				bound, exact = n*(int(maxHead/d.minQuantum)+2), true
			}
			if iter >= bound {
				panic("sched: DRR failed to select a backlogged queue (deficit accounting bug)")
			}
		}
		i := d.cur
		if v.QueueLen(i+off) == 0 {
			d.deficit[i] = 0 // inactive queues carry no deficit
			refAdvance(d)
			continue
		}
		if d.fresh {
			d.deficit[i] += d.quantum[i]
			d.fresh = false
		}
		if v.HeadSize(i+off) <= d.deficit[i] {
			return i
		}
		refAdvance(d)
	}
}

func refAnyBackloggedFrom(v View, off int) bool {
	for i := off; i < v.NumQueues(); i++ {
		if v.QueueLen(i) > 0 {
			return true
		}
	}
	return false
}

func refAdvance(d *DRR) {
	d.cur = (d.cur + 1) % len(d.quantum)
	d.fresh = true
}

func refOnDequeue(d *DRR, i int, size units.ByteSize, nowEmpty bool) {
	d.deficit[i] -= size
	if nowEmpty {
		d.deficit[i] = 0
		if d.cur == i {
			refAdvance(d)
		}
	}
}

// looseView is a View whose backlog and head sizes are set freely, also to
// states no port reaches: a head larger than its queue, a backlogged queue
// beyond the scheduler's own. Those are where the walk bound and its panic
// live.
type looseView struct{ qlen, head []units.ByteSize }

func (v *looseView) NumQueues() int                { return len(v.qlen) }
func (v *looseView) QueueLen(i int) units.ByteSize { return v.qlen[i] }
func (v *looseView) HeadSize(i int) units.ByteSize { return v.head[i] }

var oracleSizes = []units.ByteSize{1, 64, 500, 1500, 9000, 64000}

// selectOrPanic calls sel and reports a panic as its message.
func selectOrPanic(sel func() int) (i int, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return sel(), ""
}

// drrAgainstReference interprets script: its first bytes choose the offset,
// the number of queues, how many more the view has than the scheduler, and
// the quantums; then three bytes make a step that adds to a queue, sets its
// backlog and head, empties it, or dequeues — by the scheduler's choice or,
// rarely, with a size and an emptiness the view does not bear out, as a buggy
// port would report.
func drrAgainstReference(t testing.TB, script []byte) (served, emptyPolls, panics int) {
	if len(script) < 3 {
		return
	}
	off, n, extra := int(script[0]%4), 1+int(script[1]%6), int(script[2]%5)/3
	script = script[3:]
	if len(script) < n {
		return
	}
	quantums := make([]units.ByteSize, n)
	for i := range quantums {
		quantums[i] = oracleSizes[1+int(script[i])%4]
	}
	script = script[n:]
	sut, err := NewDRR(quantums)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewDRR(quantums)
	nv := off + n + extra
	v := &looseView{qlen: make([]units.ByteSize, nv), head: make([]units.ByteSize, nv)}
	for step := 0; step+2 < len(script); step += 3 {
		op, q, size := script[step]%16, int(script[step+1])%nv, oracleSizes[int(script[step+2])%len(oracleSizes)]
		switch op {
		case 0, 1, 2, 3:
			if v.qlen[q] += size; v.head[q] == 0 {
				v.head[q] = size
			}
		case 4:
			v.qlen[q], v.head[q] = size, size
		case 5, 6:
			v.qlen[q], v.head[q] = 0, 0
		case 7:
			if script[step+2] < 224 {
				break
			}
			i := int(script[step+1]) % n
			sut.OnDequeue(i, size, script[step+2]&64 != 0)
			refOnDequeue(ref, i, size, script[step+2]&64 != 0)
		default:
			got, gotPanic := selectOrPanic(func() int { return sut.pickFrom(Backlog(v)>>off, v, off) })
			want, wantPanic := selectOrPanic(func() int { return refSelectFrom(ref, v, off) })
			if gotPanic != wantPanic {
				t.Fatalf("step %d: panic %q, reference %q", step/3, gotPanic, wantPanic)
			}
			if wantPanic != "" {
				return served, emptyPolls, 1 // the walk was abandoned midway; its state means nothing
			}
			if got != want {
				t.Fatalf("step %d: selected queue %d, reference %d", step/3, got, want)
			}
			if got < 0 {
				emptyPolls++
			} else {
				served++
				head := v.head[got+off]
				v.qlen[got+off] = max(v.qlen[got+off]-head, 0)
				if v.qlen[got+off] == 0 {
					v.head[got+off] = 0
				}
				sut.OnDequeue(got, head, v.qlen[got+off] == 0)
				refOnDequeue(ref, got, head, v.qlen[got+off] == 0)
			}
		}
		if sut.cur != ref.cur || sut.fresh != ref.fresh || !slices.Equal(sut.deficit, ref.deficit) {
			t.Fatalf("step %d (op %d, queue %d): cur/fresh/deficit %d/%v/%v, reference %d/%v/%v",
				step/3, op, q, sut.cur, sut.fresh, sut.deficit, ref.cur, ref.fresh, ref.deficit)
		}
	}
	return served, emptyPolls, 0
}

func TestDRRSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	served, emptyPolls, panics := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		script := make([]byte, 9+3*400)
		rng.Read(script)
		if trial%4 == 3 {
			// A drain-heavy mix: views that run empty, polled while empty.
			for i := 9; i < len(script); i += 3 {
				if script[i]%16 < 4 {
					script[i] = 5
				}
			}
		}
		s, e, p := drrAgainstReference(t, script)
		served, emptyPolls, panics = served+s, emptyPolls+e, panics+p
	}
	if served < 100000 || emptyPolls < 1000 || panics < 20 {
		t.Fatalf("%d packets served, %d all-empty polls, %d panics: the scripts miss a case", served, emptyPolls, panics)
	}
}

// TestDRRWalkBoundCountsEmptyQueues: the steps past empty queues count
// toward the walk's bound as they did when each was a turn of the loop. One
// queue of two is backlogged and six rounds short of its head; the bound is
// six steps, three of them past the empty queue.
func TestDRRWalkBoundCountsEmptyQueues(t *testing.T) {
	sut := EqualDRR(2, 64)
	ref := EqualDRR(2, 64)
	sut.OnDequeue(1, 320, false)
	refOnDequeue(ref, 1, 320, false)
	v := &looseView{qlen: []units.ByteSize{0, 64}, head: []units.ByteSize{0, 64}}
	_, gotPanic := selectOrPanic(func() int { return sut.Pick(Backlog(v), v) })
	_, wantPanic := selectOrPanic(func() int { return refSelectFrom(ref, v, 0) })
	if wantPanic == "" {
		t.Fatal("the reference served the queue: this view no longer reaches the bound")
	}
	if gotPanic != wantPanic {
		t.Fatalf("panic %q, reference %q", gotPanic, wantPanic)
	}
}

func FuzzDRRSelectMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 1, 2, 3, 2, 1, 3, 5, 0, 0, 5, 0, 0})
	f.Add([]byte{2, 1, 0, 2, 0, 2, 4, 2, 3, 4, 5, 0, 0, 5, 0, 0, 3, 2, 0, 5, 0, 0})
	f.Add([]byte{1, 2, 3, 0, 0, 0, 2, 4, 5, 5, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		drrAgainstReference(t, script)
	})
}

// TestEmptyPollChangesNothing pins the Scheduler contract a port relies on
// when it does not poll with nothing buffered: Select on an all-empty view
// returns -1 and leaves the scheduler as if it had not been called.
func TestEmptyPollChangesNothing(t *testing.T) {
	quantums := []units.ByteSize{1500, 3000, 500}
	for _, tc := range []struct {
		name   string
		queues int
		build  func() selector
	}{
		{"drr", 3, func() selector { d, _ := NewDRR(quantums); return d }},
		{"wrr", 3, func() selector { w, _ := NewWRR([]int64{1, 3, 2}); return w }},
		{"spq", 3, func() selector { return NewSPQ() }},
		{"spq+drr", 4, func() selector { h, _ := NewSPQDRR(1, quantums); return h }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			// Two schedulers see the same arrivals and serve the same
			// packets; only one is ever asked while nothing is queued.
			polled, plain := tc.build(), tc.build()
			fp, fq := newFakeQueues(tc.queues), newFakeQueues(tc.queues)
			backlog, polls := 0, 0
			for round := 0; round < 300; round++ {
				for n := 1 + rng.Intn(6); n > 0; n-- {
					q, size := rng.Intn(tc.queues), units.ByteSize(64+rng.Intn(3000))
					fp.push(q, size)
					fq.push(q, size)
					backlog++
				}
				for n := rng.Intn(10); n > 0 && backlog > 0; n-- {
					if got, want := fp.serve(polled), fq.serve(plain); got != want {
						t.Fatalf("round %d: served queue %d, %d by the scheduler never polled empty", round, got, want)
					}
					backlog--
				}
				if backlog > 0 {
					continue
				}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					if i := polled.Select(fp); i != -1 {
						t.Fatalf("round %d: Select on an empty port returned %d", round, i)
					}
					polls++
				}
				if !reflect.DeepEqual(polled, plain) {
					t.Fatalf("round %d: an all-empty poll changed the scheduler: %+v, unpolled %+v", round, polled, plain)
				}
			}
			if polls == 0 {
				t.Fatal("the port never ran empty")
			}
		})
	}
}
