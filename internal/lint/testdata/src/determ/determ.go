// Package determ exercises the determinism analyzer: wall-clock reads, host
// and environment reads, global math/rand use, nondeterministically-seeded
// sources, and the suppression directive.
package determ

import (
	"math/rand"
	"os"
	"time"
)

type config struct{ Seed int64 }

func wallClock() time.Time {
	return time.Now() // want `determinism: wall-clock read time\.Now`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `determinism: wall-clock read time\.Since`
}

func deadline(t time.Time) time.Duration {
	return time.Until(t) // want `determinism: wall-clock read time\.Until`
}

func hostName() string {
	h, _ := os.Hostname() // want `determinism: os\.Hostname reads the host or its environment`
	return h
}

func processIDs() (int, int) {
	return os.Getpid(), os.Getppid() // want `determinism: os\.Getpid reads the host` `determinism: os\.Getppid reads the host`
}

func envSwitch() bool {
	return os.Getenv("DYNAQ_FAST") != "" // want `determinism: os\.Getenv reads the host or its environment`
}

func envLookup() (string, bool) {
	return os.LookupEnv("DYNAQ_FAST") // want `determinism: os\.LookupEnv reads the host or its environment`
}

func envAll() int {
	return len(os.Environ()) // want `determinism: os\.Environ reads the host or its environment`
}

// fileRead shows the rest of package os is not the rule's business.
func fileRead(path string) ([]byte, error) {
	return os.ReadFile(path)
}

func pidSeed() *rand.Rand {
	return rand.New(rand.NewSource(int64(os.Getpid()))) // want `determinism: os\.Getpid reads the host` `determinism: rand\.NewSource seeded from a nondeterministic value \(os\.Getpid\)`
}

func globalInt() int {
	return rand.Intn(10) // want `determinism: global math/rand source \(rand\.Intn\)`
}

func globalFloat() float64 {
	return rand.Float64() // want `determinism: global math/rand source \(rand\.Float64\)`
}

// seeded is the sanctioned pattern and must NOT be flagged: the generator is
// explicitly seeded from scenario configuration.
func seeded(c config) float64 {
	rng := rand.New(rand.NewSource(c.Seed))
	return rng.Float64()
}

// derivedSeed mixes the scenario seed deterministically; also clean.
func derivedSeed(c config, stream int64) float64 {
	rng := rand.New(rand.NewSource(c.Seed ^ stream))
	return rng.Float64()
}

func wallSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `determinism: wall-clock read time\.Now` `determinism: rand\.NewSource seeded from a nondeterministic value \(time\.Now\)`
}

// shadowed uses a local identifier named rand; resolution goes through the
// type-checker, so this must NOT be flagged.
func shadowed() int {
	rand := struct{ Intn func(int) int }{Intn: func(n int) int { return n }}
	return rand.Intn(10)
}

func allowedTrailing() time.Time {
	return time.Now() //dynaqlint:allow determinism fixture: progress timing only, never feeds simulation state
}

func allowedAbove() time.Time {
	//dynaqlint:allow determinism fixture: progress timing only, never feeds simulation state
	return time.Now()
}

// tooFarAway shows that a directive two lines up does not suppress, and is
// reported as suppressing nothing.
func tooFarAway() time.Time {
	//dynaqlint:allow determinism fixture: this directive is not adjacent to the call // want `directive: dynaqlint:allow determinism suppresses nothing`

	return time.Now() // want `determinism: wall-clock read time\.Now`
}

// wrongAnalyzer shows that an allow for a different analyzer does not
// suppress a determinism finding, and is itself left unused.
func wrongAnalyzer() time.Time {
	return time.Now() //dynaqlint:allow float-eq fixture: suppresses the wrong analyzer // want `determinism: wall-clock read time\.Now` `directive: dynaqlint:allow float-eq suppresses nothing`
}
