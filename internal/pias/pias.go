// Package pias implements the two-level PIAS classifier (Bai et al.,
// NSDI'15) the paper uses in its dynamic-flow experiments: a flow's first
// DemotionThreshold bytes are tagged into the shared high-priority queue 0;
// the remainder is demoted to the flow's own service queue. With SPQ above
// DRR this accelerates small flows without starving large ones.
package pias

import "dynaq/internal/units"

// DemotionThreshold is the paper's priority demotion threshold (§V-A2 and
// §V-B2: 100KB).
const DemotionThreshold = 100 * units.KB

// ClassOf returns the per-flow classification function for a flow whose
// demoted traffic belongs to serviceClass. The returned function plugs into
// transport.FlowConfig.ClassOf. It depends on the class alone and each call
// allocates one, so build one per class and share it among the class's flows.
//
// Classification is by sequence offset rather than a running bytes-sent
// counter: for the first pass through the data they coincide, and for
// retransmissions offset-tagging keeps a segment in the queue it
// originally used, which is deterministic and avoids re-promoting a large
// flow's tail.
func ClassOf(serviceClass int) func(seq int64) int {
	return func(seq int64) int {
		if seq < int64(DemotionThreshold) {
			return 0
		}
		return serviceClass
	}
}
