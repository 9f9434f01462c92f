// Package dynaq holds the module's build version and nothing else. The
// simulator lives under internal/ (the DynaQ algorithm in internal/core) and
// is driven through the commands under cmd/.
package dynaq

// Version identifies the build of this module. It defaults to "dev" and is
// meant to be stamped at link time:
//
//	go build -ldflags "-X dynaq.Version=v1.2.3" ./...
//
// Every CLI surfaces it via -version, and dynaqd folds it into run
// manifests and content-addressed cache keys: a result produced by one
// build must never be served as the result of another, so the version is
// part of a cached artifact's identity alongside (scenario hash, scheme,
// seed).
var Version = "dev"
