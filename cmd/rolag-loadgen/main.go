// Command rolag-loadgen is the reproducible cluster benchmark: it
// spawns a local N-shard rolagd cluster plus a rolag-router on loopback
// ports, drives open-loop zipfian traffic from the synthesized
// AnghaBench corpus at a configurable arrival rate, and reports request
// latency (p50/p99), aggregate functions/sec, and the cluster-wide
// cache hit rate — taken from the daemons' own /v1/cachestats, not from
// client-side bookkeeping — as JSON.
//
// Usage:
//
//	rolag-loadgen [-shards 3] [-workers 2] [-n 400] [-seed 20220402]
//	              [-requests 2000] [-rate 200] [-zipf-s 1.2]
//	              [-direct-frac 0.25] [-timeout 30s]
//	              [-out results/BENCH_cluster.json]
//	              [-require-peer-hits]
//	              [-check baseline.json] [-max-slowdown 3] [-hit-rate-slack 0.2]
//	              [-chaos [-chaos-net-prob 0.02] [-chaos-kill-frac 0.35]
//	               [-chaos-restart-delay 600ms] [-chaos-snapshot-interval 250ms]
//	               [-min-availability 0.99]]
//	              [-fleet [-trace-sample 200] [-min-trace-complete 0.99]
//	               [-fleet-p99-ratio 3] [-fleet-p99-floor 50] [-fleet-trace-buf 65536]]
//
// The three modes — this benchmark, -chaos (chaos.go) and -fleet
// (fleet.go) — share one local fleet and one burst driver (harness.go)
// and differ only in how they configure the fleet, route requests,
// judge responses and gate the run.
//
// Traffic shape: arrivals are Poisson at -rate requests/sec (open loop:
// a slow cluster does not slow the generator down, so overload shows up
// as latency, exactly as in production). Keys are drawn zipfian over the
// corpus, so a popular head repeats while a long tail stays cold. A
// -direct-frac fraction of requests bypasses the router and hits a
// round-robin shard directly, the way clients behind a dumb L4 balancer
// would — those requests exercise the fetch-on-miss peer cache tier
// (the non-owner asks the key's home shard before compiling).
//
// Every non-degraded response is compared byte-for-byte against a
// serial reference daemon compiled from the same corpus; any mismatch
// fails the run. -require-peer-hits additionally fails the run when the
// fleet reports zero peer-cache hits. With -check, p99 latency,
// functions/sec, and the cluster hit rate are gated against a committed
// baseline. Out-of-range flags exit with status 2 before any work.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"rolag/internal/rolagdapi"
	"rolag/internal/workloads/angha"
)

// Schema identifies the BENCH_cluster.json layout; bump on breaking
// changes so -check refuses to compare across layouts.
const Schema = "rolag/cluster-bench/v1"

// Result is the machine-readable record written to -out.
type Result struct {
	Schema string `json:"schema"`
	Config struct {
		burstConfig
		DirectFrac float64 `json:"direct_frac"`
	} `json:"config"`
	WallSeconds        float64 `json:"wall_seconds"`
	Completed          int64   `json:"completed"`
	Errors             int64   `json:"errors"`
	Degraded           int64   `json:"degraded"`
	Failovers          int64   `json:"failovers"`
	FunctionsPerSecond float64 `json:"functions_per_second"`
	Latency            struct {
		P50Ms float64 `json:"p50_ms"`
		P90Ms float64 `json:"p90_ms"`
		P99Ms float64 `json:"p99_ms"`
		MaxMs float64 `json:"max_ms"`
	} `json:"latency"`
	// Cluster mirrors the router's /v1/cachestats aggregate — the hit
	// rate the daemons themselves report, not one inferred client-side.
	Cluster rolagdapi.CacheStats `json:"cluster"`
	HitRate float64              `json:"hit_rate"`
	Parity  parityCount          `json:"parity"`
}

// burstConfig leads every record's config: the fleet and its traffic.
type burstConfig struct {
	Shards   int     `json:"shards"`
	Workers  int     `json:"workers"`
	CorpusN  int     `json:"corpus_n"`
	Seed     int64   `json:"seed"`
	Requests int     `json:"requests"`
	Rate     float64 `json:"rate_per_sec"`
	ZipfS    float64 `json:"zipf_s"`
}

// config holds every flag; each mode reads the ones it uses.
type config struct {
	shards, workers, n, requests int
	seed                         int64
	rate, zipfS, directFrac      float64
	timeout                      time.Duration
	out                          string

	requirePeerHits           bool
	check                     string
	maxSlowdown, hitRateSlack float64

	fleet                        bool
	traceSample, traceBuf        int
	minTraceComplete             float64
	fleetP99Ratio, fleetP99Floor float64

	chaos                      bool
	netProb, killFrac          float64
	restartDelay, snapInterval time.Duration
	minAvailability            float64
}

// flags registers every option on fs and returns the config they fill
// once fs is parsed.
func flags(fs *flag.FlagSet) *config {
	c := &config{}
	fs.IntVar(&c.shards, "shards", 3, "rolagd replicas to spawn")
	fs.IntVar(&c.workers, "workers", 2, "engine workers per shard")
	fs.IntVar(&c.n, "n", 400, "angha corpus size (distinct functions)")
	fs.Int64Var(&c.seed, "seed", 20220402, "corpus and traffic seed")
	fs.IntVar(&c.requests, "requests", 2000, "total requests to issue")
	fs.Float64Var(&c.rate, "rate", 200, "open-loop Poisson arrival rate, requests/sec")
	fs.Float64Var(&c.zipfS, "zipf-s", 1.2, "zipf exponent for key popularity (>1)")
	fs.Float64Var(&c.directFrac, "direct-frac", 0.25, "fraction of requests sent to a round-robin shard instead of the router")
	fs.DurationVar(&c.timeout, "timeout", 30*time.Second, "per-request deadline")
	fs.StringVar(&c.out, "out", "", "write the result JSON here (default stdout)")
	fs.BoolVar(&c.requirePeerHits, "require-peer-hits", false, "fail unless the fleet reports >0 peer-cache hits")
	fs.StringVar(&c.check, "check", "", "baseline JSON to gate against (exit 1 on regression)")
	fs.Float64Var(&c.maxSlowdown, "max-slowdown", 3, "allowed p99 and functions/sec ratio vs the -check baseline")
	fs.Float64Var(&c.hitRateSlack, "hit-rate-slack", 0.2, "allowed absolute hit-rate drop vs the -check baseline")
	fs.BoolVar(&c.fleet, "fleet", false, "run the fleet-telemetry benchmark with its SLO gates instead of the main benchmark (see fleet.go)")
	fs.IntVar(&c.traceSample, "trace-sample", 200, "requests whose stitched traces the -fleet completeness gate samples")
	fs.Float64Var(&c.minTraceComplete, "min-trace-complete", 0.99, "-fleet gate: fraction of sampled traces that must stitch router + ≥1 shard")
	fs.Float64Var(&c.fleetP99Ratio, "fleet-p99-ratio", 3, "-fleet gate: allowed ratio between router-observed and fleet-merged p99")
	fs.Float64Var(&c.fleetP99Floor, "fleet-p99-floor", 50, "-fleet gate: absolute p99 disagreement allowance, ms")
	fs.IntVar(&c.traceBuf, "fleet-trace-buf", 65536, "per-process span ring capacity in -fleet")
	fs.BoolVar(&c.chaos, "chaos", false, "run the cluster chaos harness instead of the benchmark (see chaos.go)")
	fs.Float64Var(&c.netProb, "chaos-net-prob", 0.02, "per-link fault probability (stall/refuse/blackhole) in -chaos")
	fs.Float64Var(&c.killFrac, "chaos-kill-frac", 0.35, "fraction of the run after which the victim shard is crashed")
	fs.DurationVar(&c.restartDelay, "chaos-restart-delay", 600*time.Millisecond, "victim downtime before restart")
	fs.DurationVar(&c.snapInterval, "chaos-snapshot-interval", 250*time.Millisecond, "shard periodic snapshot cadence in -chaos")
	fs.Float64Var(&c.minAvailability, "min-availability", 0.99, "chaos gate: completed/issued must reach this")
	return c
}

// validate rejects flag values no mode can run with. The comparisons
// are written so NaN fails them too.
func (c *config) validate() error {
	switch {
	case c.n < 1:
		return errors.New("-n must be at least 1")
	case c.requests < 1:
		return errors.New("-requests must be at least 1")
	case c.shards < 1:
		return errors.New("-shards must be at least 1")
	case c.workers < 1:
		return errors.New("-workers must be at least 1")
	case !(c.rate > 0):
		return errors.New("-rate must be above 0")
	case !(c.zipfS > 1):
		return errors.New("-zipf-s must be above 1")
	case !(c.directFrac >= 0 && c.directFrac <= 1):
		return errors.New("-direct-frac must be within [0, 1]")
	case !(c.killFrac > 0 && c.killFrac < 1):
		return errors.New("-chaos-kill-frac must be within (0, 1)")
	}
	return nil
}

func (c *config) burst() burstConfig {
	return burstConfig{c.shards, c.workers, c.n, c.seed, c.requests, c.rate, c.zipfS}
}

// outcome is one mode's run: the record to write, the summary lines to
// report, and the message of every gate that failed.
type outcome struct {
	record  any
	summary []string
	failed  []string
}

func (o *outcome) note(format string, args ...any) {
	o.summary = append(o.summary, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.failed = append(o.failed, fmt.Sprintf(format, args...))
}

func main() {
	cfg := flags(flag.CommandLine)
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rolag-loadgen: %v\n", err)
		os.Exit(2)
	}
	run := runCluster
	switch {
	case cfg.fleet:
		run = runFleet
	case cfg.chaos:
		run = runChaos
	}
	out, err := run(cfg)
	if err == nil {
		err = writeRecord(cfg.out, out.record)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rolag-loadgen: %v\n", err)
		os.Exit(1)
	}
	for _, line := range append(out.summary, out.failed...) {
		fmt.Fprintf(os.Stderr, "rolag-loadgen: %s\n", line)
	}
	if len(out.failed) > 0 {
		os.Exit(1)
	}
}

// runCluster is the main benchmark: a -direct-frac share of the burst
// goes shard-direct (exercising the peer cache), and every non-degraded
// response must match the serial reference byte for byte.
func runCluster(cfg *config) (*outcome, error) {
	logger := newLogger(slog.LevelWarn)

	res := &Result{Schema: Schema}
	res.Config.burstConfig = cfg.burst()
	res.Config.DirectFrac = cfg.directFrac

	corpus := angha.Generate(cfg.n, cfg.seed)
	par, err := serialReference(corpus, cfg.workers, logger)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(cfg, logger, fleetOpts{})
	if err != nil {
		return nil, err
	}
	defer f.close()

	b, err := drive(cfg, f, corpus, burstHooks{
		route: directRoute(cfg.directFrac, cfg.shards),
		respond: func(idx int, resp *rolagdapi.CompileResponse) {
			if !resp.Degraded { // degraded results are exempt from byte parity
				par.check(idx, resp.IR)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	res.WallSeconds = b.wall.Seconds()
	res.Completed, res.Errors = b.completed, b.errors
	res.Degraded, res.Failovers = b.degraded, b.failovers
	res.Parity = par.count()
	if res.WallSeconds > 0 {
		res.FunctionsPerSecond = float64(res.Completed) / res.WallSeconds
	}
	res.Latency.P50Ms = b.pct(50)
	res.Latency.P90Ms = b.pct(90)
	res.Latency.P99Ms = b.pct(99)
	res.Latency.MaxMs = b.pct(100)

	// Cluster-wide counters straight from the daemons, via the router's
	// /v1/cachestats aggregation.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	cs, err := f.client.CacheStats(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("cachestats: %w", err)
	}
	res.Cluster = *cs
	res.HitRate = cs.HitRate()

	out := &outcome{record: res}
	out.note("%d shards, %d/%d requests ok in %.1fs: "+
		"p50 %.1fms p99 %.1fms, %.0f functions/sec, hit rate %.2f (peer hits %d, misses %d), "+
		"%d degraded, parity %d/%d",
		cfg.shards, res.Completed, cfg.requests, res.WallSeconds,
		res.Latency.P50Ms, res.Latency.P99Ms, res.FunctionsPerSecond,
		res.HitRate, cs.PeerHits, cs.PeerMisses,
		res.Degraded, res.Parity.Checked-res.Parity.Mismatched, res.Parity.Checked)
	if res.Errors > 0 {
		out.fail("%d requests failed", res.Errors)
	}
	if res.Parity.Mismatched > 0 {
		out.fail("%d non-degraded responses differ from the serial reference", res.Parity.Mismatched)
	}
	if cfg.requirePeerHits && cs.PeerHits == 0 {
		out.fail("fleet reports zero peer-cache hits (-require-peer-hits)")
	}
	if cfg.check != "" {
		if err := gate(out, res, cfg.check, cfg.maxSlowdown, cfg.hitRateSlack); err != nil {
			out.fail("%v", err)
		}
	}
	return out, nil
}

// gate compares the run against a committed baseline: p99 latency and
// functions/sec may move by at most maxSlowdown×, the daemon-reported
// cluster hit rate by at most hitRateSlack absolute. The comparisons
// it makes are noted on out.
func gate(out *outcome, res *Result, baselinePath string, maxSlowdown, hitRateSlack float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Result
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if base.Schema != res.Schema {
		return fmt.Errorf("baseline schema %q != run schema %q", base.Schema, res.Schema)
	}
	if base.Latency.P99Ms > 0 {
		ratio := res.Latency.P99Ms / base.Latency.P99Ms
		out.note("p99 %.1fms vs baseline %.1fms (ratio %.2fx, limit %.2fx)",
			res.Latency.P99Ms, base.Latency.P99Ms, ratio, maxSlowdown)
		if ratio > maxSlowdown {
			return fmt.Errorf("p99 regression: %.2fx over baseline (limit %.2fx)", ratio, maxSlowdown)
		}
	}
	if base.FunctionsPerSecond > 0 {
		ratio := base.FunctionsPerSecond / res.FunctionsPerSecond
		out.note("%.0f functions/sec vs baseline %.0f (ratio %.2fx, limit %.2fx)",
			res.FunctionsPerSecond, base.FunctionsPerSecond, ratio, maxSlowdown)
		if ratio > maxSlowdown {
			return fmt.Errorf("throughput regression: %.2fx under baseline (limit %.2fx)", ratio, maxSlowdown)
		}
	}
	if drop := base.HitRate - res.HitRate; drop > hitRateSlack {
		return fmt.Errorf("hit-rate regression: %.2f vs baseline %.2f (slack %.2f)", res.HitRate, base.HitRate, hitRateSlack)
	}
	return nil
}

// writeRecord writes rec as indented JSON to path, or to stdout when
// path is empty.
func writeRecord(path string, rec any) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

func newLogger(level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
}
