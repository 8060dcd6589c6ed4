package main

// The fleet-telemetry benchmark (-fleet): boot the same local cluster
// the main benchmark uses — but with tracing on and one span ring per
// process, exactly like separate OS processes — drive a traced burst
// through the router, and gate two fleet-plane SLOs:
//
//   - Trace completeness: for a sample of requests, the router's
//     GET /debug/trace/{id} must return a fully-stitched Chrome trace
//     with a router track AND at least one shard track. The gate is
//     -min-trace-complete (default 0.99).
//   - Histogram consistency: the router-observed /v1/compile p99 must
//     agree with the fleet-merged shard-reported p99 within
//     -fleet-p99-ratio plus a -fleet-p99-floor absolute allowance.
//     The router measures hop time on top of shard service time, so
//     the two can differ — but a wide gap means the aggregation or the
//     scrape plumbing is lying, which is exactly what this catches.
//
// The result is written as rolag/fleet-bench/v1 JSON; the committed
// copy lives at results/BENCH_fleet.json.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
	"rolag/internal/rolagdapi"
	"rolag/internal/workloads/angha"
)

// FleetSchema identifies the BENCH_fleet.json layout.
const FleetSchema = "rolag/fleet-bench/v1"

// FleetResult is the machine-readable fleet-telemetry record.
type FleetResult struct {
	Schema string `json:"schema"`
	Config struct {
		burstConfig
		TraceBuf int `json:"trace_buf"`
	} `json:"config"`
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Trace     struct {
		Sampled      int     `json:"sampled"`
		Stitched     int     `json:"stitched"` // router + ≥1 shard track
		Completeness float64 `json:"completeness"`
		MinComplete  float64 `json:"min_complete"`
		DroppedSpans uint64  `json:"dropped_spans"` // router + fleet total
	} `json:"trace"`
	Latency struct {
		RouterP99Ms float64 `json:"router_p99_ms"`
		FleetP99Ms  float64 `json:"fleet_p99_ms"`
		RatioLimit  float64 `json:"ratio_limit"`
		FloorMs     float64 `json:"floor_ms"`
	} `json:"latency"`
	Router fleet.RouterStats `json:"router"`
	Gates  struct {
		TraceComplete bool `json:"trace_complete"`
		P99Consistent bool `json:"p99_consistent"`
	} `json:"gates"`
}

func runFleet(cfg *config) (*outcome, error) {
	logger := newLogger(slog.LevelWarn)

	// One ring per process. Everything here shares one address space,
	// so without private rings every "process" would export every span
	// and stitching would trivially (and falsely) pass.
	obs.EnableTracing(true)
	defer obs.EnableTracing(false)

	res := &FleetResult{Schema: FleetSchema}
	res.Config.burstConfig = cfg.burst()
	res.Config.TraceBuf = cfg.traceBuf

	corpus := angha.Generate(cfg.n, cfg.seed)
	f, err := startFleet(cfg, logger, fleetOpts{
		traceBuf: cfg.traceBuf,
		router:   func(map[string]string) cluster.Config { return cluster.Config{Hedge: true} },
	})
	if err != nil {
		return nil, err
	}
	defer f.close()

	var (
		mu       sync.Mutex
		traceIDs []string
	)
	b, err := drive(cfg, f, corpus, burstHooks{
		respond: func(_ int, resp *rolagdapi.CompileResponse) {
			if resp.TraceID != "" {
				mu.Lock()
				traceIDs = append(traceIDs, resp.TraceID)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	res.Completed, res.Errors = b.completed, b.errors

	// Trace completeness over the most recent -trace-sample requests
	// (recent, because old traces legitimately age out of a bounded
	// ring; sampling the tail measures the plane, not ring capacity).
	sample := traceIDs
	if len(sample) > cfg.traceSample {
		sample = sample[len(sample)-cfg.traceSample:]
	}
	httpc := &http.Client{Timeout: 10 * time.Second}
	stitched := 0
	for _, id := range sample {
		resp, err := httpc.Get(f.client.BaseURL + "/debug/trace/" + id)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		procs, err := fleet.Processes(body)
		if err != nil {
			continue
		}
		shardTracks := 0
		for name, spans := range procs {
			if strings.HasPrefix(name, "shard-") && spans > 0 {
				shardTracks++
			}
		}
		if procs["router"] > 0 && shardTracks >= 1 {
			stitched++
		}
	}
	res.Trace.Sampled = len(sample)
	res.Trace.Stitched = stitched
	res.Trace.MinComplete = cfg.minTraceComplete
	if len(sample) > 0 {
		res.Trace.Completeness = float64(stitched) / float64(len(sample))
	}

	// Histogram consistency: router-observed vs fleet-merged p99 for
	// /v1/compile, after a synchronous scrape so the merge is current.
	rt := f.router
	scrapeCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	rt.ScrapeNow(scrapeCtx)
	cancel()
	ov := rt.FleetOverview()
	res.Router = ov.Router
	res.Trace.DroppedSpans = ov.Router.TraceDropped
	for _, sh := range ov.Shards {
		res.Trace.DroppedSpans += sh.TraceDropped
	}
	routerP99 := rt.RouterRouteHist("/v1/compile").Quantile(0.99) * 1e3
	fleetP99 := rt.FleetRouteHist("/v1/compile").Quantile(0.99) * 1e3
	res.Latency.RouterP99Ms = routerP99
	res.Latency.FleetP99Ms = fleetP99
	res.Latency.RatioLimit = cfg.fleetP99Ratio
	res.Latency.FloorMs = cfg.fleetP99Floor

	within := func(a, b float64) bool { return a <= b*cfg.fleetP99Ratio+cfg.fleetP99Floor }
	res.Gates.P99Consistent = routerP99 > 0 && fleetP99 > 0 &&
		within(routerP99, fleetP99) && within(fleetP99, routerP99)
	res.Gates.TraceComplete = res.Trace.Sampled > 0 && res.Trace.Completeness >= cfg.minTraceComplete

	out := &outcome{record: res}
	out.note("fleet: %d/%d ok, traces %d/%d stitched (%.1f%%), "+
		"p99 router %.1fms vs fleet %.1fms, hedge won %d, dropped spans %d",
		res.Completed, cfg.requests, stitched, len(sample), res.Trace.Completeness*100,
		routerP99, fleetP99, res.Router.HedgeWins, res.Trace.DroppedSpans)
	if res.Errors > 0 {
		out.fail("fleet: %d requests failed", res.Errors)
	}
	if !res.Gates.TraceComplete {
		out.fail("fleet: trace completeness %.3f below gate %.3f", res.Trace.Completeness, cfg.minTraceComplete)
	}
	if !res.Gates.P99Consistent {
		out.fail("fleet: p99 inconsistent: router %.1fms vs fleet %.1fms "+
			"(limit %.1fx + %.0fms)", routerP99, fleetP99, cfg.fleetP99Ratio, cfg.fleetP99Floor)
	}
	return out, nil
}
