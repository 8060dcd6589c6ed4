package main

// Cluster-level chaos harness (-chaos): the same local cluster and
// zipfian traffic as the benchmark, but with the network misbehaving
// and one shard murdered mid-load.
//
// Faults come from two directions at once:
//
//   - every router→shard link runs through a faultpoint.Transport armed
//     with -chaos-net-prob of stalls, refusals, and blackholes
//     (EnableSites("net:", ...) — engine and cache fault sites stay
//     dark, so any wrong byte is the cluster's fault, not the
//     compiler's);
//   - the shard owning the hottest key is crashed un-drained (no
//     goodbye snapshot) at -chaos-kill-frac of the run and restarted on
//     the same port after -chaos-restart-delay, warm-starting from its
//     last periodic snapshot.
//
// The router runs with fast health probes and hedging enabled — the
// survivability machinery this harness exists to exercise. Three gates
// decide the exit code:
//
//   - parity: every successful response (degraded or not — network
//     failover must never change bytes) matches the serial reference;
//   - availability: completed/issued ≥ -min-availability despite the
//     crash and the faulty links;
//   - warm restart: the restarted victim loaded snapshot entries and
//     served snapshot-warm hits afterward.
//
// The JSON written to -out (schema rolag/cluster-chaos/v1) records the
// run, the victim's timeline, hedge outcomes, and each gate's verdict.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/faultpoint"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
	"rolag/internal/workloads/angha"
)

// ChaosSchema identifies the BENCH_chaos.json layout.
const ChaosSchema = "rolag/cluster-chaos/v1"

// ChaosResult is the machine-readable record of one chaos run.
type ChaosResult struct {
	Schema string `json:"schema"`
	Config struct {
		burstConfig
		NetFaultProb     float64 `json:"net_fault_prob"`
		KillFrac         float64 `json:"kill_frac"`
		RestartDelayMs   float64 `json:"restart_delay_ms"`
		SnapshotInterval string  `json:"snapshot_interval"`
		MinAvailability  float64 `json:"min_availability"`
	} `json:"config"`
	WallSeconds  float64 `json:"wall_seconds"`
	Issued       int64   `json:"issued"`
	Completed    int64   `json:"completed"`
	Errors       int64   `json:"errors"`
	Availability float64 `json:"availability"`
	Degraded     int64   `json:"degraded"`
	Failovers    int64   `json:"failovers"`
	Latency      struct {
		P50Ms float64 `json:"p50_ms"`
		P99Ms float64 `json:"p99_ms"`
		MaxMs float64 `json:"max_ms"`
	} `json:"latency"`
	Hedge struct {
		PrimaryWins int64 `json:"primary_wins"`
		HedgeWins   int64 `json:"hedge_wins"`
		BothFailed  int64 `json:"both_failed"`
	} `json:"hedge"`
	Victim struct {
		Shard            string  `json:"shard"`
		KilledAtRequest  int     `json:"killed_at_request"`
		DownMs           float64 `json:"down_ms"`
		SnapshotEntries  int64   `json:"snapshot_entries_loaded"`
		SnapshotWarmHits int64   `json:"snapshot_warm_hits"`
	} `json:"victim"`
	ShardStates map[string]string    `json:"shard_states"`
	Cluster     rolagdapi.CacheStats `json:"cluster"`
	HitRate     float64              `json:"hit_rate"`
	Parity      parityCount          `json:"parity"`
	Gates       struct {
		Parity       bool `json:"parity"`
		Availability bool `json:"availability"`
		WarmRestart  bool `json:"warm_restart"`
	} `json:"gates"`
}

func runChaos(cfg *config) (*outcome, error) {
	logger := newLogger(slog.LevelError)

	res := &ChaosResult{Schema: ChaosSchema}
	res.Config.burstConfig = cfg.burst()
	res.Config.NetFaultProb = cfg.netProb
	res.Config.KillFrac = cfg.killFrac
	res.Config.RestartDelayMs = float64(cfg.restartDelay) / float64(time.Millisecond)
	res.Config.SnapshotInterval = cfg.snapInterval.String()
	res.Config.MinAvailability = cfg.minAvailability

	corpus := angha.Generate(cfg.n, cfg.seed)
	par, err := serialReference(corpus, cfg.workers, logger)
	if err != nil {
		return nil, err
	}

	snapDir, err := os.MkdirTemp("", "rolag-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)

	// The router crosses the same faulty links as real traffic, probes
	// fast enough to notice the crash within a few hundred ms, and
	// hedges around stalls and blackholes.
	f, err := startFleet(cfg, logger, fleetOpts{
		snapDir:   snapDir,
		snapEvery: cfg.snapInterval,
		router: func(peers map[string]string) cluster.Config {
			hostSite := make(map[string]string, len(peers))
			for name, u := range peers {
				hostSite[strings.TrimPrefix(u, "http://")] = faultpoint.NetSite(name)
			}
			return cluster.Config{
				HTTPClient: &http.Client{
					Timeout: cfg.timeout,
					Transport: &faultpoint.Transport{SiteFor: func(req *http.Request) string {
						return hostSite[req.URL.Host]
					}},
				},
				ProbeInterval: 150 * time.Millisecond,
				ProbeTimeout:  300 * time.Millisecond,
				DownAfter:     2,
				Hedge:         true,
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer f.close()

	// Arm the network. Only "net:" sites fire — the engine's own fault
	// sites stay dark, so a wrong byte can only come from the cluster.
	faultpoint.EnableSites(faultpoint.NetSitePrefix, faultpoint.Options{
		Seed:  cfg.seed,
		Prob:  cfg.netProb,
		Kinds: []faultpoint.Kind{faultpoint.KindStall, faultpoint.KindError, faultpoint.KindDrop},
		Stall: 40 * time.Millisecond,
	})
	defer faultpoint.Reset()

	// The victim is the shard owning the hottest zipf key (index 0): the
	// crash hits the busiest slice of the keyspace, and the hot key's
	// presence in the victim's snapshot makes warm hits observable fast.
	key, err := keyFor(&corpus[0])
	if err != nil {
		return nil, err
	}
	var victim *shard
	for _, s := range f.shards {
		if s.name == f.router.Owner(key) {
			victim = s
		}
	}
	res.Victim.Shard = victim.name
	killAt := max(int(cfg.killFrac*float64(cfg.requests)), 1)
	res.Victim.KilledAtRequest = killAt

	var (
		restart    sync.WaitGroup
		restartErr error
		downMs     time.Duration
	)
	b, err := drive(cfg, f, corpus, burstHooks{
		arrive: func(i int) error {
			if i != killAt {
				return nil
			}
			// Make sure the victim has at least one periodic snapshot on
			// disk (its only memory), then kill it un-drained and schedule
			// the restart while traffic keeps flowing.
			if err := waitForSnapshot(victim, 5*time.Second); err != nil {
				return err
			}
			killed := time.Now()
			victim.crash()
			restart.Add(1)
			go func() {
				defer restart.Done()
				time.Sleep(cfg.restartDelay)
				restartErr = victim.restart()
				downMs = time.Since(killed)
			}()
			return nil
		},
		// Unlike the benchmark, chaos checks parity on failed-over
		// responses too: network failover must never change bytes.
		// Only engine-level degradation (a skipped pass under a real
		// pass fault) legitimately alters output, and no engine faults
		// are armed here — so everything is checked unless degraded by
		// something other than router failover.
		respond: func(idx int, resp *rolagdapi.CompileResponse) {
			if !engineDegraded(resp) {
				par.check(idx, resp.IR)
			}
		},
	})
	restart.Wait()
	if err == nil {
		err = restartErr
	}
	if err != nil {
		return nil, err
	}
	res.WallSeconds = b.wall.Seconds()
	res.Issued = int64(cfg.requests)
	res.Completed, res.Errors = b.completed, b.errors
	res.Availability = float64(res.Completed) / float64(res.Issued)
	res.Degraded, res.Failovers = b.degraded, b.failovers
	res.Parity = par.count()
	res.Victim.DownMs = float64(downMs / time.Millisecond)
	res.Latency.P50Ms = b.pct(50)
	res.Latency.P99Ms = b.pct(99)
	res.Latency.MaxMs = b.pct(100)
	res.Hedge.PrimaryWins, res.Hedge.HedgeWins, res.Hedge.BothFailed = f.router.HedgeTotals()
	res.ShardStates = make(map[string]string)
	for name, st := range f.router.ShardStates() {
		res.ShardStates[name] = st.String()
	}

	// The restarted victim's own counters prove the warm restart: it
	// loaded entries from its pre-crash snapshot and served hits out of
	// them.
	vm := victim.daemon().Engine().Metrics()
	res.Victim.SnapshotEntries = vm.SnapshotEntries
	res.Victim.SnapshotWarmHits = vm.SnapshotWarmHits

	// Fleet-wide counters through the router (the faulty links may hide
	// a shard from one aggregation attempt; stats are informational).
	faultpoint.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if cs, err := f.client.CacheStats(ctx); err == nil {
		res.Cluster = *cs
		res.HitRate = cs.HitRate()
	}
	cancel()

	res.Gates.Parity = res.Parity.Mismatched == 0 && res.Parity.Checked > 0
	res.Gates.Availability = res.Availability >= cfg.minAvailability
	res.Gates.WarmRestart = res.Victim.SnapshotEntries > 0 && res.Victim.SnapshotWarmHits > 0

	out := &outcome{record: res}
	out.note("chaos: %d/%d ok (availability %.4f), parity %d/%d, "+
		"%d degraded (%d failovers), hedge p/h/f %d/%d/%d, victim %s down %.0fms "+
		"(snapshot entries %d, warm hits %d)",
		res.Completed, res.Issued, res.Availability,
		res.Parity.Checked-res.Parity.Mismatched, res.Parity.Checked,
		res.Degraded, res.Failovers,
		res.Hedge.PrimaryWins, res.Hedge.HedgeWins, res.Hedge.BothFailed,
		res.Victim.Shard, res.Victim.DownMs,
		res.Victim.SnapshotEntries, res.Victim.SnapshotWarmHits)
	if !res.Gates.Parity {
		out.fail("GATE parity failed: %d mismatched of %d checked", res.Parity.Mismatched, res.Parity.Checked)
	}
	if !res.Gates.Availability {
		out.fail("GATE availability failed: %.4f < %.4f", res.Availability, cfg.minAvailability)
	}
	if !res.Gates.WarmRestart {
		out.fail("GATE warm-restart failed: victim loaded %d entries, served %d warm hits",
			res.Victim.SnapshotEntries, res.Victim.SnapshotWarmHits)
	}
	return out, nil
}

// keyFor computes a corpus function's routing key the way the router
// does.
func keyFor(fn *angha.Function) (string, error) {
	sreq, err := (&rolagdapi.CompileRequest{Source: fn.Src}).ToService()
	if err != nil {
		return "", err
	}
	return service.Key(&sreq), nil
}

// engineDegraded reports whether a response is degraded by anything
// other than router failover — the only degradation that may change
// bytes and is therefore parity-exempt.
func engineDegraded(resp *rolagdapi.CompileResponse) bool {
	return resp.Degraded && slices.ContainsFunc(resp.DegradedPasses, func(p string) bool { return p != cluster.FailoverPass })
}

// waitForSnapshot blocks until the shard has written at least one
// periodic snapshot, forcing one if the ticker hasn't fired in time —
// the crash must not be allowed to outrun the victim's only memory.
func waitForSnapshot(s *shard, within time.Duration) error {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if s.daemon().Engine().Metrics().SnapshotSaves > 0 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := s.daemon().SaveSnapshotNow(); err != nil {
		return fmt.Errorf("forcing victim snapshot: %w", err)
	}
	return nil
}
