package buffer

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dynaq/internal/core"
	"dynaq/internal/units"
)

// parentAdmit is DynaQ.Admit as it stood before it passed a packet within
// its queue's threshold without running Process, kept verbatim as a function
// of the scheme: the oracle Admit is driven against.
func parentAdmit(d *DynaQ, v View, cls int, size units.ByteSize) bool {
	d.lens.v = v
	res := d.state.Process(cls, size, d.li)
	switch res.Verdict {
	case core.Adjusted:
		d.adjustments++
		d.noteSatisfaction(cls)
		d.noteSatisfaction(res.Victim)
	case core.Drop:
		d.algDrops++
	}
	if res.Verdict == core.Drop {
		return false
	}
	// Post-adjustment per-queue check. After Pass this always holds; after
	// Adjusted it fails only when the queue's own threshold had been
	// slashed below its backlog while it was a victim.
	return v.QueueLen(cls)+size <= d.state.Threshold(cls)
}

// admitOrPanic calls admit and reports a panic as its message.
func admitOrPanic(admit func() bool) (ok bool, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return admit(), ""
}

// admitOutcome tallies what a script exercised.
type admitOutcome struct{ admitted, refused, panics, resizes int }

// admitAgainstParent interprets script. Its first four bytes choose the
// queue count (1 to 8), the weights, the victim policy and whether S_i is
// the weighted BDP. Then two bytes make a step: an arrival — Admit against
// parentAdmit on a twin scheme, both of whose verdicts, panics, thresholds
// and counters must agree — for any queue, an out-of-range class or a
// non-positive size among them; a departure; or a resize of the buffer.
func admitAgainstParent(t testing.TB, script []byte) (out admitOutcome) {
	if len(script) < 4 {
		return
	}
	m := 1 + int(script[0])%8
	w := make([]int64, m)
	for i := range w {
		w[i] = 1 + int64(script[1]>>(i%4*2))&3
	}
	opts := []core.Option{core.WithVictimPolicy(core.VictimPolicy(script[2] % 2))}
	if script[3]%2 == 0 {
		opts = append(opts, core.WithWBDPSatisfaction(units.ByteSize(1+int(script[3])%5)*6000))
	}
	const b = 40 * units.KB
	sut, err := NewDynaQ(b, w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewDynaQ(b, w, opts...)
	v := &fakeView{b: b, qlens: make([]units.ByteSize, m)}
	sizes := []units.ByteSize{64, 500, 1500, 4000, 9000, 0, -1500}
	script = script[4:]
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step], int(script[step+1])
		switch {
		case op < 200:
			cls := arg%(m+2) - 1 // -1 and m are out of range
			size := sizes[int(op)%len(sizes)]
			if size <= 0 && op%3 != 0 {
				size = 1500
			}
			got, gotPanic := admitOrPanic(func() bool { return sut.Admit(v, cls, size) })
			want, wantPanic := admitOrPanic(func() bool { return parentAdmit(ref, v, cls, size) })
			if got != want || gotPanic != wantPanic {
				t.Fatalf("step %d: Admit(%d, %d) = %v %q, parent %v %q", step/2, cls, size, got, gotPanic, want, wantPanic)
			}
			switch {
			case gotPanic != "":
				out.panics++
			case got:
				out.admitted++
				v.qlens[cls] += size
			default:
				out.refused++
			}
		case op < 240:
			q := arg % m
			v.qlens[q] = max(0, v.qlens[q]-sizes[arg%4]*units.ByteSize(1+arg%3))
		default:
			nb := units.ByteSize(1+arg%6) * 16 * units.KB
			if err := sut.State().SetBuffer(nb); err != nil {
				t.Fatal(err)
			}
			if err := ref.State().SetBuffer(nb); err != nil {
				t.Fatal(err)
			}
			v.b = nb
			out.resizes++
		}
		if sut.Adjustments() != ref.Adjustments() || sut.AlgorithmDrops() != ref.AlgorithmDrops() {
			t.Fatalf("step %d: adjustments %d, algorithm drops %d; parent %d, %d",
				step/2, sut.Adjustments(), sut.AlgorithmDrops(), ref.Adjustments(), ref.AlgorithmDrops())
		}
		for i := 0; i < m; i++ {
			if sut.SatisfiedTransitions(i) != ref.SatisfiedTransitions(i) || sut.State().Threshold(i) != ref.State().Threshold(i) {
				t.Fatalf("step %d: queue %d: %v, %d transitions; parent %v, %d", step/2, i,
					sut.State(), sut.SatisfiedTransitions(i), ref.State(), ref.SatisfiedTransitions(i))
			}
		}
		if !reflect.DeepEqual(sut.satisfied, ref.satisfied) {
			t.Fatalf("step %d: satisfied %v, parent %v", step/2, sut.satisfied, ref.satisfied)
		}
	}
	return out
}

func TestDynaQAdmitMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var total admitOutcome
	for trial := 0; trial < 600; trial++ {
		script := make([]byte, 4+2*300)
		rng.Read(script)
		out := admitAgainstParent(t, script)
		total.admitted += out.admitted
		total.refused += out.refused
		total.panics += out.panics
		total.resizes += out.resizes
	}
	if total.admitted < 10000 || total.refused < 10000 || total.panics < 1000 || total.resizes < 1000 {
		t.Errorf("%+v: the scripts miss a case", total)
	}
}

func FuzzDynaQAdmitMatchesParent(f *testing.F) {
	f.Add([]byte{3, 0x1b, 0, 1, 1, 1, 1, 2, 3, 1, 3, 1, 3, 1, 210, 1, 6, 0, 250, 2, 5, 4})
	f.Add([]byte{7, 0xe4, 1, 0, 4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 4, 5, 4, 6, 4, 7, 4, 8, 5, 9})
	f.Fuzz(func(t *testing.T, script []byte) {
		admitAgainstParent(t, script)
	})
}
