package sched

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynaq/internal/units"
)

// fakeQueues is a minimal in-memory queue set implementing View, tracking
// packet sizes per queue.
type fakeQueues struct {
	pkts [][]units.ByteSize
}

func newFakeQueues(n int) *fakeQueues {
	return &fakeQueues{pkts: make([][]units.ByteSize, n)}
}

func (f *fakeQueues) push(i int, size units.ByteSize) {
	f.pkts[i] = append(f.pkts[i], size)
}

func (f *fakeQueues) NumQueues() int { return len(f.pkts) }

func (f *fakeQueues) QueueLen(i int) units.ByteSize {
	var sum units.ByteSize
	for _, s := range f.pkts[i] {
		sum += s
	}
	return sum
}

func (f *fakeQueues) HeadSize(i int) units.ByteSize {
	if len(f.pkts[i]) == 0 {
		return 0
	}
	return f.pkts[i][0]
}

// selector is a scheduler driven through its View adapter, Select, as the
// reference implementations kept in these tests are.
type selector interface {
	Select(v View) int
	OnDequeue(i int, size units.ByteSize, nowEmpty bool)
}

// serve pops the head of the scheduler-selected queue and notifies the
// scheduler, returning the selected queue, or -1.
func (f *fakeQueues) serve(s selector) int {
	i := s.Select(f)
	if i < 0 {
		return -1
	}
	size := f.pkts[i][0]
	f.pkts[i] = f.pkts[i][1:]
	s.OnDequeue(i, size, len(f.pkts[i]) == 0)
	return i
}

// drain serves until empty, returning the byte count served per queue.
func (f *fakeQueues) drain(t *testing.T, s selector, maxIter int) []units.ByteSize {
	t.Helper()
	served := make([]units.ByteSize, f.NumQueues())
	for iter := 0; ; iter++ {
		if iter > maxIter {
			t.Fatalf("drain did not finish in %d iterations", maxIter)
		}
		i := s.Select(f)
		if i < 0 {
			return served
		}
		size := f.pkts[i][0]
		f.pkts[i] = f.pkts[i][1:]
		served[i] += size
		s.OnDequeue(i, size, len(f.pkts[i]) == 0)
	}
}

func TestDRRValidation(t *testing.T) {
	if _, err := NewDRR(nil); err == nil {
		t.Error("empty quantums should fail")
	}
	if _, err := NewDRR([]units.ByteSize{1500, 0}); err == nil {
		t.Error("zero quantum should fail")
	}
	if _, err := NewDRR(make([]units.ByteSize, MaxQueues+1)); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("65 queues: error %v, want one naming the limit of 64", err)
	}
}

func TestDRREmptyReturnsMinusOne(t *testing.T) {
	d := EqualDRR(4, 1500)
	f := newFakeQueues(4)
	if got := d.Select(f); got != -1 {
		t.Fatalf("Select on empty = %d, want -1", got)
	}
}

func TestDRREqualQuantumFairBytes(t *testing.T) {
	// Two backlogged queues with equal quantums must receive equal byte
	// service over a long run, regardless of packet count asymmetry.
	d := EqualDRR(2, 1500)
	f := newFakeQueues(2)
	// Queue 0: large packets; queue 1: small packets, same total bytes.
	for i := 0; i < 100; i++ {
		f.push(0, 1500)
	}
	for i := 0; i < 300; i++ {
		f.push(1, 500)
	}
	// Serve exactly half the total bytes and compare per-queue service.
	var served [2]units.ByteSize
	total := units.ByteSize(0)
	for total < 150000 {
		i := f.serve(d)
		size := units.ByteSize(0)
		if i == 0 {
			size = 1500
		} else {
			size = 500
		}
		served[i] += size
		total += size
	}
	diff := served[0] - served[1]
	if diff < 0 {
		diff = -diff
	}
	// DRR guarantees per-round service skew bounded by one quantum+MTU.
	if diff > 3000 {
		t.Fatalf("byte service skew = %d (served %v), want ≤ 3000", diff, served)
	}
}

func TestDRRWeightedQuanta(t *testing.T) {
	// Quanta 4:3:2:1 (Fig 6 config) must yield proportional service for
	// persistently backlogged queues.
	d, err := NewDRR([]units.ByteSize{6000, 4500, 3000, 1500})
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeQueues(4)
	for q := 0; q < 4; q++ {
		for i := 0; i < 400; i++ {
			f.push(q, 1500)
		}
	}
	var served [4]units.ByteSize
	var total units.ByteSize
	for total < 600000 {
		i := f.serve(d)
		served[i] += 1500
		total += 1500
	}
	// Shares should be close to 0.4/0.3/0.2/0.1.
	want := []float64{0.4, 0.3, 0.2, 0.1}
	for q := range served {
		got := float64(served[q]) / float64(total)
		if got < want[q]-0.02 || got > want[q]+0.02 {
			t.Errorf("queue %d share = %.3f, want %.3f±0.02 (served %v)", q, got, want[q], served)
		}
	}
}

func TestDRRQuantumSmallerThanPacket(t *testing.T) {
	// Deficit must accumulate across rounds when quantum < packet size.
	d, err := NewDRR([]units.ByteSize{500, 500})
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeQueues(2)
	for i := 0; i < 10; i++ {
		f.push(0, 1500)
		f.push(1, 1500)
	}
	served := f.drain(t, d, 1000)
	if served[0] != 15000 || served[1] != 15000 {
		t.Fatalf("served = %v, want 15000 each", served)
	}
}

func TestDRRInactiveQueueLosesDeficit(t *testing.T) {
	d := EqualDRR(2, 1500)
	f := newFakeQueues(2)
	f.push(0, 1000)
	f.serve(d) // queue 0 now empty: deficit must reset on the empty signal
	if got := d.Deficit(0); got != 0 {
		t.Fatalf("deficit after emptying = %d, want 0", got)
	}
}

func TestDRRWorkConserving(t *testing.T) {
	// With only one backlogged queue, every service goes to it.
	d := EqualDRR(4, 1500)
	f := newFakeQueues(4)
	for i := 0; i < 50; i++ {
		f.push(2, 1500)
	}
	for i := 0; i < 50; i++ {
		if got := f.serve(d); got != 2 {
			t.Fatalf("service %d went to queue %d, want 2", i, got)
		}
	}
}

func TestWRRValidation(t *testing.T) {
	if _, err := NewWRR(nil); err == nil {
		t.Error("empty weights should fail")
	}
	if _, err := NewWRR([]int64{1, -1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWRR(make([]int64, MaxQueues+1)); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("65 queues: error %v, want one naming the limit of 64", err)
	}
}

func TestWRRPacketProportions(t *testing.T) {
	w, err := NewWRR([]int64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeQueues(2)
	for i := 0; i < 400; i++ {
		f.push(0, 1500)
		f.push(1, 1500)
	}
	var counts [2]int
	for i := 0; i < 400; i++ {
		counts[f.serve(w)]++
	}
	// 3:1 packet ratio.
	if counts[0] != 300 || counts[1] != 100 {
		t.Fatalf("counts = %v, want [300 100]", counts)
	}
}

func TestWRRSkipsEmptyQueues(t *testing.T) {
	w, _ := NewWRR([]int64{1, 1, 1})
	f := newFakeQueues(3)
	f.push(1, 100)
	if got := f.serve(w); got != 1 {
		t.Fatalf("served queue %d, want 1", got)
	}
	if got := w.Select(f); got != -1 {
		t.Fatalf("Select on empty = %d, want -1", got)
	}
}

func TestSPQStrictPriority(t *testing.T) {
	s := NewSPQ()
	f := newFakeQueues(3)
	f.push(2, 100)
	f.push(0, 100)
	f.push(1, 100)
	want := []int{0, 1, 2}
	for _, w := range want {
		if got := f.serve(s); got != w {
			t.Fatalf("served %d, want %d", got, w)
		}
	}
	if got := s.Select(f); got != -1 {
		t.Fatalf("Select on empty = %d, want -1", got)
	}
}

func TestSPQHighPriorityPreempts(t *testing.T) {
	s := NewSPQ()
	f := newFakeQueues(2)
	for i := 0; i < 5; i++ {
		f.push(1, 100)
	}
	f.serve(s) // serves queue 1
	f.push(0, 100)
	if got := f.serve(s); got != 0 {
		t.Fatalf("new high-priority packet not served first: got queue %d", got)
	}
}

func TestSPQDRRValidation(t *testing.T) {
	if _, err := NewSPQDRR(0, []units.ByteSize{1500}); err == nil {
		t.Error("zero priority queues should fail")
	}
	if _, err := NewSPQDRR(1, nil); err == nil {
		t.Error("no DRR queues should fail")
	}
	quantums := make([]units.ByteSize, MaxQueues-1)
	for i := range quantums {
		quantums[i] = 1500
	}
	if _, err := NewSPQDRR(1, quantums); err != nil {
		t.Errorf("64 queues: %v", err)
	}
	if _, err := NewSPQDRR(2, quantums); err == nil || !strings.Contains(err.Error(), "64") {
		t.Errorf("65 queues: error %v, want one naming the limit of 64", err)
	}
}

func TestSPQDRRPriorityFirst(t *testing.T) {
	// 1 SPQ queue + 4 DRR queues (the paper's dynamic-flow config).
	s, err := NewSPQDRR(1, []units.ByteSize{1500, 1500, 1500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeQueues(5)
	f.push(0, 100)
	f.push(1, 1500)
	f.push(3, 1500)
	if got := f.serve(s); got != 0 {
		t.Fatalf("first service to queue %d, want SPQ queue 0", got)
	}
	// DRR queues only after SPQ empties; both get served.
	a, b := f.serve(s), f.serve(s)
	if !(a == 1 && b == 3) && !(a == 3 && b == 1) {
		t.Fatalf("DRR services = %d,%d, want 1 and 3", a, b)
	}
}

func TestSPQDRRFairAmongLowPriority(t *testing.T) {
	s, err := NewSPQDRR(1, []units.ByteSize{1500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	if s.prio != 1 {
		t.Fatalf("priority queues = %d", s.prio)
	}
	f := newFakeQueues(3)
	for i := 0; i < 100; i++ {
		f.push(1, 1500)
		f.push(2, 1500)
	}
	var counts [3]int
	for i := 0; i < 200; i++ {
		counts[f.serve(s)]++
	}
	if counts[1] != 100 || counts[2] != 100 {
		t.Fatalf("counts = %v, want equal DRR split", counts)
	}
}

func TestSchedulersNeverStarveRandomized(t *testing.T) {
	// Property: under random arrivals every scheduler eventually drains
	// all queues (work conservation + no starvation).
	rng := rand.New(rand.NewSource(7))
	build := []func() selector{
		func() selector { return EqualDRR(4, 1500) },
		func() selector { d, _ := NewDRR([]units.ByteSize{6000, 4500, 3000, 1500}); return d },
		func() selector { w, _ := NewWRR([]int64{1, 1, 1, 1}); return w },
		func() selector { return NewSPQ() },
		func() selector { s, _ := NewSPQDRR(1, []units.ByteSize{1500, 1500, 1500}); return s },
	}
	for bi, mk := range build {
		for trial := 0; trial < 20; trial++ {
			s := mk()
			f := newFakeQueues(4)
			var pushed units.ByteSize
			for i := 0; i < 200; i++ {
				q := rng.Intn(4)
				size := units.ByteSize(64 + rng.Intn(8936))
				f.push(q, size)
				pushed += size
			}
			served := f.drain(t, s, 10000)
			var total units.ByteSize
			for _, b := range served {
				total += b
			}
			if total != pushed {
				t.Fatalf("scheduler %d trial %d: served %d bytes, pushed %d", bi, trial, total, pushed)
			}
		}
	}
}

func BenchmarkDRRSelect(b *testing.B) {
	d := EqualDRR(8, 1500)
	f := newFakeQueues(8)
	for q := 0; q < 8; q++ {
		for i := 0; i < 4; i++ {
			f.push(q, 1500)
		}
	}
	backlog := Backlog(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := d.Pick(backlog, f)
		d.OnDequeue(q, 1500, false)
		// Keep queues statically backlogged: no pops.
	}
}

// BenchmarkSPQDRRSelect is the hybrid as a port drives it, as
// BenchmarkDRRSelect is DRR: the backlog word kept by the port, the view
// consulted only for head sizes.
func BenchmarkSPQDRRSelect(b *testing.B) {
	s, f := backloggedHybrid(b)
	backlog := Backlog(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := s.Pick(backlog, f)
		s.OnDequeue(q, 1500, false)
	}
}

// backloggedHybrid is the dynamic-flow port of §V-A2 as a cell mostly sees
// it: the strict-priority queue empty, so Select reaches the DRR queues
// behind it, and those statically backlogged.
func backloggedHybrid(tb testing.TB) (*SPQDRR, *fakeQueues) {
	s, err := NewSPQDRR(1, []units.ByteSize{1500, 1500, 1500, 1500, 1500, 1500, 1500})
	if err != nil {
		tb.Fatal(err)
	}
	f := newFakeQueues(8)
	for q := 1; q < 8; q++ {
		for i := 0; i < 4; i++ {
			f.push(q, 1500)
		}
	}
	return s, f
}

// TestSelectDoesNotAllocate pins the per-dequeue cost the benchmarks report:
// a port calls Select once per packet, so one allocation here is one per
// packet simulated. The hybrid used to box a shifted view on every call.
func TestSelectDoesNotAllocate(t *testing.T) {
	hybrid, hf := backloggedHybrid(t)
	drr, df := EqualDRR(8, 1500), newFakeQueues(8)
	for q := 0; q < 8; q++ {
		df.push(q, 1500)
	}
	for _, tc := range []struct {
		name string
		s    Scheduler
		f    *fakeQueues
	}{{"drr", drr, df}, {"spq+drr", hybrid, hf}} {
		if n := testing.AllocsPerRun(1000, func() {
			tc.s.OnDequeue(tc.s.Pick(Backlog(tc.f), tc.f), 1500, false)
		}); n != 0 {
			t.Errorf("%s: %v allocations per Select, want 0", tc.name, n)
		}
	}
}

// refDRR is DRR.Select as it stood before it stopped scanning every queue's
// head for its panic bound on every call, kept verbatim as the oracle the
// current one is driven against: same queue selected, same cur, fresh and
// deficits left behind, on every input.
type refDRR struct {
	quantum []units.ByteSize
	deficit []units.ByteSize
	cur     int
	fresh   bool
}

func newRefDRR(quantums []units.ByteSize) *refDRR {
	return &refDRR{
		quantum: append([]units.ByteSize(nil), quantums...),
		deficit: make([]units.ByteSize, len(quantums)),
		fresh:   true,
	}
}

func refAnyBacklogged(v View) bool {
	for i := 0; i < v.NumQueues(); i++ {
		if v.QueueLen(i) > 0 {
			return true
		}
	}
	return false
}

func (d *refDRR) Select(v View) int {
	if !refAnyBacklogged(v) {
		return -1
	}
	// A backlogged queue is served after at most ceil(head/quantum) rounds;
	// bound the walk generously and panic beyond it — exceeding the bound
	// means the deficit accounting broke, not a transient condition.
	maxHead := units.ByteSize(0)
	minQuantum := d.quantum[0]
	for i := 0; i < v.NumQueues(); i++ {
		if h := v.HeadSize(i); h > maxHead {
			maxHead = h
		}
		if d.quantum[i] < minQuantum {
			minQuantum = d.quantum[i]
		}
	}
	bound := v.NumQueues() * (int(maxHead/minQuantum) + 2)
	for iter := 0; iter < bound; iter++ {
		i := d.cur
		if v.QueueLen(i) == 0 {
			d.deficit[i] = 0 // inactive queues carry no deficit
			d.advance()
			continue
		}
		if d.fresh {
			d.deficit[i] += d.quantum[i]
			d.fresh = false
		}
		if v.HeadSize(i) <= d.deficit[i] {
			return i
		}
		d.advance()
	}
	panic("sched: DRR failed to select a backlogged queue (deficit accounting bug)")
}

func (d *refDRR) OnDequeue(i int, size units.ByteSize, nowEmpty bool) {
	d.deficit[i] -= size
	if nowEmpty {
		d.deficit[i] = 0
		if d.cur == i {
			d.advance()
		}
	}
}

func (d *refDRR) advance() {
	d.cur = (d.cur + 1) % len(d.quantum)
	d.fresh = true
}

// refSPQDRR is the hybrid as it stood: the reference DRR behind a shifted
// view of the port.
type refSPQDRR struct {
	prio int
	drr  *refDRR
}

func (s *refSPQDRR) Select(v View) int {
	for i := 0; i < s.prio; i++ {
		if v.QueueLen(i) > 0 {
			return i
		}
	}
	sub := refShiftedView{View: v, off: s.prio}
	if i := s.drr.Select(sub); i >= 0 {
		return i + s.prio
	}
	return -1
}

func (s *refSPQDRR) OnDequeue(i int, size units.ByteSize, nowEmpty bool) {
	if i >= s.prio {
		s.drr.OnDequeue(i-s.prio, size, nowEmpty)
	}
}

type refShiftedView struct {
	View
	off int
}

func (s refShiftedView) NumQueues() int                { return s.View.NumQueues() - s.off }
func (s refShiftedView) QueueLen(i int) units.ByteSize { return s.View.QueueLen(i + s.off) }
func (s refShiftedView) HeadSize(i int) units.ByteSize { return s.View.HeadSize(i + s.off) }

// oracleQuanta are unequal on purpose, and the smallest is well under the
// jumbo heads the script pushes, so walks of many rounds occur.
var oracleQuanta = []units.ByteSize{1500, 4500, 500, 3000}

// selectAgainstReference interprets script as port activity over prio strict
// queues above the oracle quantums' DRR queues (prio 0: plain DRR) and fails
// at the first step where the scheduler and the reference disagree. Two
// bytes make a step: the first picks the operation and the queue, the second
// a packet size from 64 B to 10 KB. A dequeue on an empty port is the
// all-empty poll; a tail eviction empties queues without an OnDequeue, as
// BarberQ's push-out does.
func selectAgainstReference(t testing.TB, prio int, script []byte) {
	var sut, ref selector
	var drr *DRR
	var refDrr *refDRR
	if prio == 0 {
		d, err := NewDRR(oracleQuanta)
		if err != nil {
			t.Fatal(err)
		}
		drr, refDrr = d, newRefDRR(oracleQuanta)
		sut, ref = drr, refDrr
	} else {
		h, err := NewSPQDRR(prio, oracleQuanta)
		if err != nil {
			t.Fatal(err)
		}
		drr, refDrr = &h.drr, newRefDRR(oracleQuanta)
		sut, ref = h, &refSPQDRR{prio: prio, drr: refDrr}
	}
	f := newFakeQueues(prio + len(oracleQuanta))
	for step := 0; step+1 < len(script); step += 2 {
		op, q := script[step]%4, int(script[step]/4)%f.NumQueues()
		switch op {
		case 0, 1:
			f.push(q, 64+units.ByteSize(script[step+1])*40)
		case 2:
			got, want := sut.Select(f), ref.Select(f)
			if got != want {
				t.Fatalf("step %d: selected queue %d, reference %d", step/2, got, want)
			}
			if got >= 0 {
				size := f.pkts[got][0]
				f.pkts[got] = f.pkts[got][1:]
				sut.OnDequeue(got, size, len(f.pkts[got]) == 0)
				ref.OnDequeue(got, size, len(f.pkts[got]) == 0)
			}
		case 3:
			if n := len(f.pkts[q]); n > 0 {
				f.pkts[q] = f.pkts[q][:n-1]
			}
		}
		if drr.cur != refDrr.cur || drr.fresh != refDrr.fresh || !slices.Equal(drr.deficit, refDrr.deficit) {
			t.Fatalf("step %d (op %d, queue %d): cur/fresh/deficit %d/%v/%v, reference %d/%v/%v",
				step/2, op, q, drr.cur, drr.fresh, drr.deficit, refDrr.cur, refDrr.fresh, refDrr.deficit)
		}
	}
}

func TestSelectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		script := make([]byte, 2*2000)
		rng.Read(script)
		if trial%4 == 3 {
			// A drain-heavy mix: ports that run empty, polled while empty.
			for i := 0; i < len(script); i += 2 {
				if script[i]%4 == 1 {
					script[i]++
				}
			}
		}
		selectAgainstReference(t, trial%3, script)
	}
}

func FuzzSelectMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 255, 4, 0, 2, 0, 2, 0, 2, 0})
	f.Add(uint8(1), []byte{4, 200, 8, 10, 7, 0, 2, 0, 2, 0})
	f.Add(uint8(2), []byte{8, 255, 12, 1, 11, 0, 2, 0, 15, 0, 2, 0})
	f.Fuzz(func(t *testing.T, prio uint8, script []byte) {
		selectAgainstReference(t, int(prio%3), script)
	})
}
