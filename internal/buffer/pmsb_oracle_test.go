package buffer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynaq/internal/units"
)

// parentECNMode is core.ECNMode as it stood before PMSB held its own K and
// K_i, kept verbatim (its identifiers parent-prefixed): the oracle PMSB is
// driven against.
type parentECNMode struct {
	k  units.ByteSize
	ki []units.ByteSize
}

// parentNewECNMode builds the marking thresholds from the port threshold k and
// the queue weights.
func parentNewECNMode(k units.ByteSize, weights []int64) (*parentECNMode, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: port ECN threshold %d must be positive", k)
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("core: need at least one queue")
	}
	var sum int64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("core: weight of queue %d is %d, must be positive", i, w)
		}
		sum += w
	}
	m := &parentECNMode{k: k, ki: make([]units.ByteSize, len(weights))}
	for i, w := range weights {
		m.ki[i] = units.ByteSize(int64(k) * w / sum)
	}
	return m, nil
}

// PortThreshold returns K.
func (m *parentECNMode) PortThreshold() units.ByteSize { return m.k }

// QueueThreshold returns K_i.
func (m *parentECNMode) QueueThreshold(i int) units.ByteSize { return m.ki[i] }

// ShouldMark reports whether a packet arriving for queue i must be CE-marked
// given the current port occupancy (Σ q, before enqueueing this packet) and
// the queue's backlog q_i.
func (m *parentECNMode) ShouldMark(i int, portOcc, qi units.ByteSize) bool {
	return portOcc > m.k && qi > m.ki[i]
}

// pmsbOutcome tallies what a script exercised: refusals by cause, verdicts,
// and the two edges — the port exactly at K with the queue over K_i, the
// queue exactly at K_i with the port over K — where a verdict turns on > as
// opposed to ≥.
type pmsbOutcome struct {
	refusedK, refusedEmpty, refusedWeight int
	refusedOverflow                       int
	marks, clear, portAtK, queueAtKi      int
}

// splitOverflows reports whether Σw or k·Σw leaves int64, for weights the
// parent accepts (all positive).
func splitOverflows(k units.ByteSize, w []int64) bool {
	var sum int64
	for _, x := range w {
		sum += x
		if sum < 0 || int64(k) > math.MaxInt64/sum {
			return true
		}
	}
	return false
}

// pmsbAgainstParent interprets script. Its first two bytes choose the port
// threshold K (either sign, in 3-byte steps so that K·w_i/Σw rounds), the
// third the queue count (0 to 8), and one byte per queue its weight (either
// sign). NewPMSB must refuse exactly what the parent refuses, and otherwise
// give the same K and K_i. Then two bytes make a step that sets one queue's
// backlog: to K_i give or take three bytes, to a share of K, to zero, or to
// what brings the port to K give or take one byte. After each step PMSB's
// verdict on an arrival for every queue must equal the parent's and
// occupancy > K && q_i > K·w_i/Σw, the formula Algorithm 1's naive oracle
// checked the parent with.
func pmsbAgainstParent(t testing.TB, script []byte) (out pmsbOutcome) {
	if len(script) < 3 {
		return
	}
	k := units.ByteSize(int16(uint16(script[0])|uint16(script[1])<<8)) * 3
	m := int(script[2]) % 9
	script = script[3:]
	if len(script) < m {
		return
	}
	w := make([]int64, m)
	var sum int64
	for i := range w {
		w[i] = int64(int8(script[i]))
		sum += w[i]
	}
	script = script[m:]
	sut, err := NewPMSB(k, w)
	ref, refErr := parentNewECNMode(k, w)
	// NewPMSB refuses one class the parent accepted: positive weights whose
	// sum, or K times it, overflows 64 bits, where the parent's K_i wrapped.
	overflow := refErr == nil && splitOverflows(k, w)
	if (err == nil) != (refErr == nil && !overflow) {
		t.Fatalf("K %d, weights %v: NewPMSB error %v, parent %v", k, w, err, refErr)
	}
	if err != nil {
		switch {
		case k <= 0:
			out.refusedK++
		case m == 0:
			out.refusedEmpty++
		case overflow:
			out.refusedOverflow++
		default:
			out.refusedWeight++
		}
		return
	}
	if sut.PortThreshold() != ref.PortThreshold() {
		t.Fatalf("K %d, weights %v: K = %d, parent %d", k, w, sut.PortThreshold(), ref.PortThreshold())
	}
	for i := range w {
		if sut.QueueThreshold(i) != ref.QueueThreshold(i) {
			t.Fatalf("K %d, weights %v: K_%d = %d, parent %d", k, w, i, sut.QueueThreshold(i), ref.QueueThreshold(i))
		}
	}
	v := &fakeView{b: 4 * k, qlens: make([]units.ByteSize, m)}
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := script[step], int(script[step+1])
		p := arg % m
		switch op % 4 {
		case 0:
			v.qlens[p] = max(0, ref.ki[p]+units.ByteSize(int(op>>2)%7-3))
		case 1:
			v.qlens[p] = k * units.ByteSize(op>>2) / 32
		case 2:
			v.qlens[p] = 0
		default:
			v.qlens[p] = max(0, k-(v.TotalLen()-v.qlens[p])+units.ByteSize(int(op>>2)%3-1))
		}
		occ := v.TotalLen()
		for i, qi := range v.qlens {
			got := sut.MarkOnEnqueue(v, i, 1500)
			want := ref.ShouldMark(i, occ, qi)
			if formula := occ > k && qi > k*units.ByteSize(w[i])/units.ByteSize(sum); got != want || got != formula {
				t.Fatalf("step %d: K %d, weights %v, backlogs %v: mark for queue %d %v, parent %v, formula %v",
					step/2, k, w, v.qlens, i, got, want, formula)
			}
			if got {
				out.marks++
			} else {
				out.clear++
			}
			if occ == k && qi > ref.ki[i] {
				out.portAtK++
			}
			if qi == ref.ki[i] && occ > k {
				out.queueAtKi++
			}
		}
	}
	return out
}

func TestPMSBMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var tally pmsbOutcome
	for trial := 0; trial < 2000; trial++ {
		script := make([]byte, 3+8+2*100)
		rng.Read(script)
		if trial%8 != 0 {
			// A K in (0, 49 KB] and positive weights; every eighth trial
			// keeps its random header, which the constructors mostly refuse.
			script[1] &= 0x3f
			script[0] |= 1
			for i := 3; i < 11; i++ {
				script[i] = 1 + script[i]%16
			}
		}
		out := pmsbAgainstParent(t, script)
		tally.refusedK += out.refusedK
		tally.refusedEmpty += out.refusedEmpty
		tally.refusedWeight += out.refusedWeight
		tally.marks += out.marks
		tally.clear += out.clear
		tally.portAtK += out.portAtK
		tally.queueAtKi += out.queueAtKi
	}
	if tally.refusedK < 50 || tally.refusedEmpty < 50 || tally.refusedWeight < 50 ||
		tally.marks < 100000 || tally.clear < 100000 || tally.portAtK < 5000 || tally.queueAtKi < 5000 {
		t.Errorf("%+v: the scripts miss a case", tally)
	}
}

func FuzzPMSBMatchesParent(f *testing.F) {
	// K = 30 000, weights 1:1 (K_i = 15 000): queue 0 to 22 500, then
	// queue 1 to what brings the port to K exactly, then back over it.
	f.Add([]byte{0x10, 0x27, 2, 1, 1, 97, 0, 7, 1, 11, 1, 0, 0, 4, 1})
	// K = 3 003 over weights 1:2:3 (K_i = 500, 1 001, 1 501), each queue
	// at its K_i and the port pushed past K.
	f.Add([]byte{0xe9, 0x03, 3, 1, 2, 3, 12, 0, 12, 1, 12, 2, 11, 0, 16, 1, 8, 2})
	f.Add([]byte{0, 0, 2, 1, 1, 1, 0})          // K = 0
	f.Add([]byte{0x10, 0x27, 0, 1, 0})          // no queues
	f.Add([]byte{0x10, 0x27, 3, 1, 0xff, 2, 1}) // weight −1
	f.Fuzz(func(t *testing.T, script []byte) {
		pmsbAgainstParent(t, script)
	})
}
