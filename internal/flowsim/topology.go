package flowsim

import (
	"dynaq/internal/fabric"
	"dynaq/internal/units"
)

// Topology is the fabric graph the engine solves rates over. The graph
// lives in internal/fabric, shared with the packet wiring; this alias and
// NewFatTree keep the names the frozen benchmark compiles against.
type Topology = fabric.Graph

// NewFatTree builds a k-ary fat tree; see fabric.NewFatTree.
func NewFatTree(k int, rate units.Rate) (*Topology, error) { return fabric.NewFatTree(k, rate) }
