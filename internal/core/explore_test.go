package core

import (
	"fmt"
	"slices"
	"testing"

	"dynaq/internal/units"
)

// scope is one port for the explorer: buffer B in unit-size packets, one
// weight per queue, and the victim policy.
type scope struct {
	b      units.ByteSize
	w      []int64
	policy VictimPolicy
}

// portState is one reachable state of a port under Algorithm 1: every T_i
// and every queue length q_i, in packets. S_i is fixed by the scope.
type portState struct {
	t, q []units.ByteSize
}

// key is the state's canonical form: each T_i and q_i in five bits, T first.
// Two states are the same state exactly when their keys are equal.
// Permuting equal-weight queues is no symmetry, since the victim rule
// breaks ties by index.
func (s portState) key() uint64 {
	var k uint64
	for _, v := range s.t {
		k = k<<5 | uint64(v)
	}
	for _, v := range s.q {
		k = k<<5 | uint64(v)
	}
	return k
}

// occupancy is Σ q_i, and stale the backlog Σ max(0, q_i − T_i) that a cut
// left above a victim's threshold to drain at line rate (§III-B).
func (s portState) occupancy() (occ, stale units.ByteSize) {
	for i, q := range s.q {
		occ += q
		stale += max(0, q-s.t[i])
	}
	return occ, stale
}

// exploration is what a breadth-first search over one scope found: the
// reachable states, and the first state in BFS order whose occupancy
// exceeded B, with its distance from the start.
type exploration struct {
	states    int
	overB     *portState
	overDepth int
}

// explore searches every state a port reaches from its start (Eq. 1's
// thresholds, empty queues) under every interleaving of unit-size arrivals
// and departures, one event at a time. An arrival on queue p runs Process
// on the state's thresholds and, as DynaQ's admission does, enqueues when
// the verdict is not Drop and q_p + 1 ≤ T_p afterwards; a departure takes
// one packet from a non-empty queue. At every state it checks Σ T_i = B and
// T_i ≥ 0, and occupancy ≤ B plus the stale backlog (the guardrail's
// occupancy check on a DynaQ port); on every arrival, Process against the
// naive oracle (verdict, victim and every threshold) and the guardrail's
// transition check.
func explore(t testing.TB, sc scope) exploration {
	t.Helper()
	st, err := New(sc.b, sc.w, WithVictimPolicy(sc.policy))
	if err != nil {
		t.Fatal(err)
	}
	oracle := newNaiveDynaQ(sc.b, sc.w, sc.policy, 0)
	n := len(sc.w)
	start := portState{t: slices.Clone(st.t), q: make([]units.ByteSize, n)}
	seen := map[uint64]bool{start.key(): true}
	frontier := []portState{start}
	var out exploration
	for depth := 0; len(frontier) > 0; depth++ {
		var next []portState
		visit := func(s portState, what func() string) {
			if occ, stale := s.occupancy(); occ > sc.b+stale {
				t.Fatalf("%v: %s leaves occupancy %d above B = %d plus the stale backlog %d: T=%v q=%v", sc, what(), occ, sc.b, stale, s.t, s.q)
			} else if occ > sc.b && out.overB == nil {
				out.overB, out.overDepth = &s, depth+1
			}
			if k := s.key(); !seen[k] {
				seen[k] = true
				next = append(next, s)
			}
		}
		for _, s := range frontier {
			for p := 0; p < n; p++ {
				if s.q[p] > 0 {
					d := portState{t: s.t, q: slices.Clone(s.q)}
					d.q[p]--
					visit(d, func() string { return fmt.Sprintf("a departure from queue %d of T=%v q=%v", p, s.t, s.q) })
				}
				copy(st.t, s.t)
				copy(oracle.t, s.t)
				what := func() string { return fmt.Sprintf("an arrival on queue %d at T=%v q=%v", p, s.t, s.q) }
				got := st.Process(p, 1, qlens(s.q))
				if want := oracle.process(p, 1, s.q); got != want || !slices.Equal(st.t, oracle.t) {
					t.Fatalf("%v: %s: Process = %+v to T=%v, oracle %+v to T=%v", sc, what(), got, st.t, want, oracle.t)
				}
				if err := st.CheckInvariants(); err != nil {
					t.Fatalf("%v: %s: %v", sc, what(), err)
				}
				if err := st.CheckTransition(s.t, p, 1, qlens(s.q)); err != nil {
					t.Fatalf("%v: %s: transition: %v", sc, what(), err)
				}
				a := portState{t: slices.Clone(st.t), q: slices.Clone(s.q)}
				if got.Verdict != Drop && a.q[p]+1 <= a.t[p] {
					a.q[p]++
				}
				visit(a, what)
			}
		}
		out.states += len(frontier)
		frontier = next
	}
	return out
}

func (sc scope) String() string {
	return fmt.Sprintf("B=%d w=%v %v", sc.b, sc.w, sc.policy)
}

// exploreScopes is the default scope, under both victim policies: one to
// four queues; weights 1 to 3 for up to three queues, in several orders,
// since ties go to the lower index, and three weight vectors for four; B
// from one packet a queue up to 16 packets over two queues, 12 over three
// and 8 over four. It takes about a second.
func exploreScopes() []scope {
	weights := [][]int64{
		{1},
		{1, 1}, {1, 2}, {2, 1}, {1, 3},
		{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {1, 2, 3}, {3, 2, 1}, {2, 3, 1},
		{1, 1, 1, 1}, {1, 2, 3, 4}, {4, 1, 1, 2},
	}
	buffers := map[int][]units.ByteSize{1: {1, 4}, 2: {2, 5, 8, 13, 16}, 3: {3, 7, 12}, 4: {4, 8}}
	var out []scope
	for _, w := range weights {
		for _, b := range buffers[len(w)] {
			for _, policy := range []VictimPolicy{VictimMaxExtra, VictimMaxThreshold} {
				out = append(out, scope{b: b, w: w, policy: policy})
			}
		}
	}
	return out
}

// TestExploreDynaQAtSmallScope walks every reachable state of every scope
// in exploreScopes, checking each as explore does. The state count pins the
// reachable set: a change to Algorithm 1 that moves it is a change to
// DynaQ. Strict occupancy ≤ B is not an invariant: a cut that leaves a
// victim's backlog above its new threshold lets the port hold more than B
// until that backlog drains, and the shortest way there is pinned too.
func TestExploreDynaQAtSmallScope(t *testing.T) {
	states := 0
	for _, sc := range exploreScopes() {
		states += explore(t, sc).states
	}
	t.Logf("%d scopes, %d reachable states", len(exploreScopes()), states)
	if states != wantExploredStates {
		t.Errorf("%d reachable states over the default scope, want %d", states, wantExploredStates)
	}

	// Two equal queues, B = 4: queue 0 takes all four packets, robbing queue
	// 1 while it is empty; then an arrival on queue 1 cuts T_0 to 3, above
	// S_0 = 2, and is admitted beside queue 0's four.
	ex := explore(t, scope{b: 4, w: []int64{1, 1}, policy: VictimMaxExtra})
	if ex.overB == nil {
		t.Fatal("no state above B: the stale backlog never builds")
	}
	if o := ex.overB; ex.overDepth != 5 || !slices.Equal(o.t, []units.ByteSize{3, 1}) || !slices.Equal(o.q, []units.ByteSize{4, 1}) {
		t.Errorf("first state above B at depth %d: T=%v q=%v; want depth 5: T=[3 1] q=[4 1]", ex.overDepth, o.t, o.q)
	}
}

const wantExploredStates = 632467
