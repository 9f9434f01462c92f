// Command dynaqworker is one member of a dynaqd worker fleet. It pulls
// (scenario, scheme, seed) cells from the coordinator's lease API, runs them
// through the exact execution path the coordinator itself uses (so artifact
// bytes are identical no matter who computed them), renews its lease by
// heartbeat while a cell runs, and uploads the finished artifact directory
// for content-addressed absorption.
//
// The worker holds no durable state: kill -9 at any instant and the
// coordinator requeues the cell once the lease TTL lapses. A worker whose
// upload arrives after its lease expired still contributes — the artifact is
// absorbed by content address and the requeued attempt becomes a cache hit.
//
// Usage:
//
//	dynaqworker -coordinator http://dynaqd-host:8080 [-id name] [-work dir] [-poll 500ms]
//
// The worker's build version must match the coordinator's: grants at a
// different version are refused (the cache key embeds the version, so a
// mismatched binary could only produce wrong-keyed bytes).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"dynaq"
	"dynaq/internal/fleet"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "dynaqd base URL to pull leases from")
		id          = flag.String("id", "", "worker identity shown in lease bookkeeping (default host-pid)")
		workDir     = flag.String("work", "", "scratch directory for in-progress cells (default a fresh temp dir)")
		poll        = flag.Duration("poll", 500*time.Millisecond, "idle wait between lease requests when the coordinator has no work")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("dynaqworker", dynaq.Version)
		return
	}

	if *id == "" {
		host, err := os.Hostname() //dynaqlint:allow determinism the default worker id only labels leases, logs and spans; no artifact or cache key contains it
		if err != nil {
			host = "worker"
		}
		*id = host + "-" + strconv.Itoa(os.Getpid()) //dynaqlint:allow determinism the pid half of the same default worker id
	}
	logger := log.New(os.Stderr, "dynaqworker["+*id+"]: ", log.LstdFlags)
	if *workDir == "" {
		dir, err := os.MkdirTemp("", "dynaqworker-")
		if err != nil {
			logger.Fatal(err)
		}
		defer os.RemoveAll(dir)
		*workDir = dir
	}

	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: *coordinator,
		ID:          *id,
		Version:     dynaq.Version,
		WorkDir:     *workDir,
		Poll:        *poll,
		Log:         logger,
	})

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	logger.Printf("version %s pulling from %s (scratch %s)", dynaq.Version, *coordinator, *workDir)
	w.Run(ctx)
	logger.Printf("stopped: %d cell(s) completed, %d lease(s) lost", w.Cells, w.LostLeases)
}
