package transport

import (
	"fmt"
	"strings"
)

// Algorithm is one row of the controller table: what a congestion-control
// algorithm is called in a scenario document, and how to build one flow's
// instance of it.
type Algorithm struct {
	Name string
	New  func() Controller
}

// algorithms is the registry every layer resolves controller names through;
// the first row is the sender default. Adding a controller is its file plus
// one row here.
var algorithms = []Algorithm{
	{"reno", func() Controller { return NewReno() }},
	{"cubic", func() Controller { return NewCubic() }},
	{"dctcp", func() Controller { return NewDCTCP() }},
	{"ecn-reno", func() Controller { return NewECNReno() }},
	{"timely", func() Controller { return NewTimely() }},
}

// LookupAlgorithm resolves a controller name, the empty name to the sender
// default; the error lists the known names.
func LookupAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return algorithms[0], nil
	}
	for _, a := range algorithms {
		if a.Name == name {
			return a, nil
		}
	}
	names := make([]string, len(algorithms))
	for i, a := range algorithms {
		names[i] = a.Name
	}
	return Algorithm{}, fmt.Errorf("unknown controller %q (known: %s)", name, strings.Join(names, ", "))
}
