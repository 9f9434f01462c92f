package flowsim

import "dynaq/internal/fabric"

// The engine and path tests predate internal/fabric and build their graphs
// under these names.
var NewStar, NewLeafSpine = fabric.NewStar, fabric.NewLeafSpine
