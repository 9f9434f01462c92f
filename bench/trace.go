package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dynaq/internal/telemetry/trace"
)

// unitOf looks a per-layer metric's unit up in the table.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not in the per-layer table")
}

// finishTrace validates the run's spans and writes them, when the benchmark
// ends, as JSON lines plus a Chrome trace next to them.
func finishTrace(cfg config, workload string, tr *trace.Tracer, r *report) []trace.Span {
	spans := tr.Snapshot()
	if err := trace.Validate(spans); err != nil {
		r.failf("span trace invalid: %v", err)
	}
	write := func(name string, enc func(f *os.File) error) {
		f, err := os.Create(filepath.Join(cfg.outDir, name))
		if err == nil {
			err = enc(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			r.failf("writing %s: %v", name, err)
		}
	}
	write("trace-"+workload+".jsonl", func(f *os.File) error { return trace.EncodeJSONL(f, spans) })
	write("trace-"+workload+".chrome.json", func(f *os.File) error { return trace.WriteChrome(f, spans) })
	r.Counts["spans"] = int64(len(spans))
	return spans
}

// putLatency files the p50 and p99 (either may be "") of one call's latencies.
func putLatency(r *report, ms []float64, p50, p99 string) {
	if len(ms) == 0 {
		return
	}
	sort.Float64s(ms)
	if p50 != "" {
		r.Metrics[p50] = sample{Unit: "ms", Median: quantile(ms, 0.5), Min: ms[0], Max: ms[len(ms)-1], N: len(ms)}
	}
	if p99 != "" {
		r.Metrics[p99] = sample{Unit: "ms", Median: quantile(ms, 0.99), Min: ms[0], Max: ms[len(ms)-1], N: len(ms)}
	}
}

// traceSvcDispatch runs the dispatch rep twice on fresh coordinators, once
// as the untraced run does and once with a span and a latency sample around
// every HTTP call, then the layer drivers.
func traceSvcDispatch(cfg config) *report {
	r := newReport("svc_dispatch", svcDispatchUnit)
	doc := workloadDoc("star_packet")
	jobs := svcJobs(cfg)
	cells := int64(jobs * svcCellsPerJob)
	tr := trace.New(fmt.Sprintf("bench-svc_dispatch-seed%d", cfg.seed), "bench", wallClock{})

	rep := func(i int, log *callLog) (dispatchStats, error) {
		coord, err := startCoordinator(filepath.Join(cfg.scratch, fmt.Sprintf("svc_dispatch-trace%d", i)))
		if err != nil {
			return dispatchStats{}, err
		}
		ds, err := dispatchRep(coord, svcJobList(doc, jobs, svcSeedBase(cfg, i)), r, log)
		if err == nil {
			checkDispatched(coord, ds, cells, r, log)
		}
		if serr := coord.stop(); err == nil {
			err = serr
		}
		return ds, err
	}

	r.Attempted = 2 * cells
	plain, err := rep(0, nil)
	if err != nil {
		r.Failed += cells
		r.failf("untraced rep: %v", err)
		return r
	}
	root := tr.Start("rep", "", trace.AInt("jobs", int64(jobs)))
	log := newCallLog(root)
	traced, err := rep(1, log)
	root.End()
	if err != nil {
		r.Failed += cells
		r.failf("traced rep: %v", err)
		return r
	}
	finishTrace(cfg, "svc_dispatch", tr, r)

	putLatency(r, log.latencies("/v1/jobs"), "server.submit_ms_p50", "server.submit_ms_p99")
	putLatency(r, log.latencies("/v1/leases"), "server.lease_ms_p50", "server.lease_ms_p99")
	putLatency(r, log.latencies("/v1/leases/{id}/complete"), "server.complete_ms_p50", "server.complete_ms_p99")
	putLatency(r, log.latencies("/v1/jobs/{id}"), "server.status_ms_p50", "")
	putLatency(r, log.latencies("/metrics"), "server.metrics_scrape_ms", "")
	w := traced.worker
	r.Metrics["server.leases_granted"] = one("count", float64(w.granted))
	r.Metrics["server.leases_empty"] = one("count", float64(w.empty))
	r.Metrics["server.cells_completed"] = one("count", float64(w.completed))
	r.Metrics["server.cache_hits"] = one("count", float64(traced.hits))
	r.Metrics["server.upload_bytes_per_cell"] = one("B", float64(w.uploadBytes)/float64(max(w.completed, 1)))
	r.Metrics["bench.trace_overhead_ratio"] = one("ratio", traced.wall.Seconds()/plain.wall.Seconds())
	r.Info["cells_per_s"] = one("1/s", float64(cells)/plain.wall.Seconds())
	r.Counts["server.leases_granted"] = w.granted
	r.Counts["server.cells_completed"] = w.completed
	driveLayers(cfg, r)
	return r
}

// traceSvcCached fills one coordinator's cache, then resubmits every job
// once untraced and once with spans and latency samples, then runs the
// layer drivers.
func traceSvcCached(cfg config) *report {
	r := newReport("svc_cached", svcCachedUnit)
	cs, err := fillCache(cfg, "trace", r)
	if err != nil {
		r.failf("set-up: %v", err)
		return r
	}
	defer cs.coord.stop()
	cells := int64(len(cs.jobs) * svcCellsPerJob)
	tr := trace.New(fmt.Sprintf("bench-svc_cached-seed%d", cfg.seed), "bench", wallClock{})

	r.Attempted = 2 * cells
	t0 := now()
	_, plainHits, err := cs.pass(r, nil)
	plainWall := since(t0)
	if err != nil {
		r.failf("untraced pass: %v", err)
		return r
	}
	root := tr.Start("pass", "", trace.AInt("jobs", int64(len(cs.jobs))))
	log := newCallLog(root)
	t0 = now()
	lat, tracedHits, err := cs.pass(r, log)
	tracedWall := since(t0)
	if err != nil {
		root.End()
		r.failf("traced pass: %v", err)
		return r
	}
	// The coordinator's own count of cache hits must match the client's.
	c := newCaller(cs.coord.ts.URL, log)
	m, err := scrape(c)
	c.close()
	root.End()
	if err != nil {
		r.failf("scraping /metrics: %v", err)
	} else if got := m["dynaqd_cache_hits_total"]; got != plainHits+tracedHits {
		r.failf("dynaqd_cache_hits_total = %d, client saw %d", got, plainHits+tracedHits)
	}
	cs.checkArtifact(cfg, r)
	finishTrace(cfg, "svc_cached", tr, r)

	for i := range lat {
		lat[i] /= 1e3 // µs → ms
	}
	putLatency(r, log.latencies("/v1/jobs"), "server.submit_ms_p50", "server.submit_ms_p99")
	putLatency(r, log.latencies("/v1/jobs/{id}"), "server.status_ms_p50", "")
	putLatency(r, log.latencies("/metrics"), "server.metrics_scrape_ms", "")
	putLatency(r, lat, "", "server.cached_job_ms_p99")
	r.Metrics["server.cache_hits"] = one("count", float64(tracedHits))
	r.Metrics["bench.trace_overhead_ratio"] = one("ratio", tracedWall.Seconds()/plainWall.Seconds())
	r.Counts["server.cache_hits"] = tracedHits
	driveLayers(cfg, r)
	return r
}
