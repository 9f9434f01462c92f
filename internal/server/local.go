package server

import (
	"context"
	"fmt"
	"os"
	"time"

	"dynaq/internal/coord"
	"dynaq/internal/fleet"
)

// The local-fallback executor pool: while no fleet worker is live the
// coordinator runs cells itself, claiming them in the same fair order a
// lease would and running them with the lock released.

// localExecutor is one goroutine of the pool, alive from Start until
// Shutdown cancels ctx. Between cells it blocks on the kick channel, nudged
// after every op — the maintenance loop's Tick included, which is how a
// backoff elapsing or a fleet going quiet reaches it.
func (s *Server) localExecutor(ctx context.Context) {
	defer s.loops.Done()
	for {
		// The claim and the job's event stream come out of one lock hold; a
		// claim wakes a sibling for whatever is left.
		s.mu.Lock()
		claim := s.core.ClaimLocal(s.clock.Now())
		var bc *broadcaster
		if claim != nil {
			bc = s.streams[claim.Job.ID]
			nudge(s.kick)
		}
		s.mu.Unlock()
		if claim != nil {
			res := s.runLocal(claim, bc)
			s.do(func(c *coord.Core, now time.Time) []coord.Effect { return c.LocalDone(now, claim.Cell.Key, res) })
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-s.kick:
		}
	}
}

// runLocal executes one claimed cell on the coordinator: cache check, fresh
// run into tmp/, atomic promotion.
func (s *Server) runLocal(claim *coord.LocalClaim, bc *broadcaster) coord.LocalResult {
	j, c := claim.Job, claim.Cell
	if s.artifactCached(c.Key) {
		return coord.LocalResult{CacheHit: true}
	}
	bc.publish(c.Index, claim.Running)

	tmp := s.tmpDir(c.Key)
	if err := os.RemoveAll(tmp); err != nil {
		return coord.LocalResult{Err: fmt.Sprintf("clearing stale artifacts: %v", err)}
	}
	man := fleet.CellManifest(s.cfg.Version, j.ScenarioHash, c.Scheme, c.Seed, c.Key)
	reg, err := fleet.RunCellTo(tmp, j.Scenario, c.Scheme, c.Seed, man, func(line []byte) {
		if s.testCellTee != nil {
			s.testCellTee(line)
		}
		bc.publish(c.Index, line)
	}, claim.Span)
	if err != nil {
		os.RemoveAll(tmp)
		return coord.LocalResult{Err: err.Error()}
	}
	res := coord.LocalResult{Sim: reg.Snapshot(), PromoteStart: s.clock.Now()}
	if err := s.promote(tmp, s.cellDir(c.Key)); err != nil {
		return coord.LocalResult{Err: err.Error()}
	}
	res.PromoteEnd = s.clock.Now()
	return res
}
