package main

// The local fleet and the open-loop burst driver all three modes share.

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/daemon"
	"rolag/internal/obs"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
	"rolag/internal/workloads/angha"
)

// shard is one restartable rolagd replica on a fixed loopback port:
// crash kills it like a dead process (listener dropped, no drain, no
// goodbye snapshot) and restart brings it back on the same port with
// the same config, snapshot path included.
type shard struct {
	name string
	addr string
	cfg  daemon.Config

	mu  sync.Mutex
	d   *daemon.Daemon
	srv *http.Server
}

// serve builds a fresh daemon and serves it on ln.
func (s *shard) serve(ln net.Listener) {
	d := daemon.New(s.cfg)
	srv := &http.Server{Handler: d.Handler()}
	s.mu.Lock()
	s.d, s.srv = d, srv
	s.mu.Unlock()
	go srv.Serve(ln)
}

// restart relistens on the shard's recorded address and serves anew.
func (s *shard) restart() error {
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("restart %s on %s: %w", s.name, s.addr, err)
	}
	s.serve(ln)
	return nil
}

// crash drops the listener (in-flight connections die) and abandons the
// daemon without draining — a periodic snapshot on disk, if any, is now
// the only memory this shard has.
func (s *shard) crash() {
	s.mu.Lock()
	d, srv := s.d, s.srv
	s.mu.Unlock()
	srv.Close()
	d.Crash()
}

// daemon returns the currently-serving daemon (the restarted one after
// a crash-restart cycle).
func (s *shard) daemon() *daemon.Daemon {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d
}

// localFleet is N shards plus a router, all on loopback ports.
type localFleet struct {
	shards    []*shard
	router    *cluster.Router
	routerSrv *http.Server
	client    *rolagdapi.Client   // through the router
	direct    []*rolagdapi.Client // straight to shards[i]
}

// fleetOpts is what a mode changes about its local fleet.
type fleetOpts struct {
	// snapDir, when set, gives each shard a snapshot file there,
	// rewritten every snapEvery.
	snapDir   string
	snapEvery time.Duration
	// traceBuf, when positive, gives every process its own span ring of
	// that capacity, as separate OS processes would have.
	traceBuf int
	// router returns the router's config for the bound membership;
	// startFleet sets its Shards, Log and TraceRing.
	router func(peers map[string]string) cluster.Config
}

// startFleet binds every listener first (membership URLs must exist
// before any daemon is built), then starts the daemons, the router and
// the router's server.
func startFleet(cfg *config, logger *slog.Logger, o fleetOpts) (*localFleet, error) {
	lns := make([]net.Listener, cfg.shards)
	peers := make(map[string]string, cfg.shards)
	f := &localFleet{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		s := &shard{name: fmt.Sprintf("shard-%c", 'a'+i), addr: ln.Addr().String()}
		peers[s.name] = "http://" + s.addr
		f.shards = append(f.shards, s)
		f.direct = append(f.direct, &rolagdapi.Client{BaseURL: peers[s.name]})
	}
	for i, s := range f.shards {
		s.cfg = daemon.Config{
			Engine:           service.Config{Workers: cfg.workers},
			RequestCap:       cfg.timeout,
			Log:              logger,
			ShardID:          s.name,
			Peers:            peers,
			SnapshotInterval: o.snapEvery,
		}
		if o.snapDir != "" {
			s.cfg.SnapshotPath = filepath.Join(o.snapDir, s.name+".snapshot")
		}
		if o.traceBuf > 0 {
			s.cfg.TraceRing = obs.NewTraceRing(o.traceBuf)
		}
		s.serve(lns[i])
	}

	var rc cluster.Config
	if o.router != nil {
		rc = o.router(peers)
	}
	rc.Shards, rc.Log = peers, logger
	if o.traceBuf > 0 {
		rc.TraceRing = obs.NewTraceRing(o.traceBuf)
	}
	rt, err := cluster.New(rc)
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.routerSrv = &http.Server{Handler: rt.Handler()}
	go f.routerSrv.Serve(rln)
	f.client = &rolagdapi.Client{BaseURL: "http://" + rln.Addr().String()}
	return f, nil
}

// close tears the fleet down: the router stops serving and probing and
// every shard goes down as a crash would take it.
func (f *localFleet) close() {
	if f.routerSrv != nil {
		f.routerSrv.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shards {
		s.crash()
	}
}

// viaRouter is the route of a request sent through the router rather
// than straight to a shard.
const viaRouter = -1

// sequence returns the generator of a burst's seeded requests:
// Poisson gaps from seed+2 and zipf corpus picks from seed+1, so the
// sequence (though not its timing) reproduces run to run. route, when
// set, picks request i's shard (or viaRouter) and may draw from the
// pick stream, right after that request's zipf draw; nil sends
// everything through the router.
func sequence(cfg *config, route func(i int, zrng *rand.Rand) int) func(i int) (gap time.Duration, idx, to int) {
	zrng := rand.New(rand.NewSource(cfg.seed + 1))
	zipf := rand.NewZipf(zrng, cfg.zipfS, 1, uint64(cfg.n-1))
	arng := rand.New(rand.NewSource(cfg.seed + 2))
	return func(i int) (time.Duration, int, int) {
		gap := time.Duration(arng.ExpFloat64() / cfg.rate * float64(time.Second))
		idx, to := int(zipf.Uint64()), viaRouter
		if route != nil {
			to = route(i, zrng)
		}
		return gap, idx, to
	}
}

// directRoute sends request i to shard i mod shards when a coin drawn
// from the pick stream lands under frac, and through the router
// otherwise.
func directRoute(frac float64, shards int) func(int, *rand.Rand) int {
	return func(i int, zrng *rand.Rand) int {
		if zrng.Float64() < frac {
			return i % shards
		}
		return viaRouter
	}
}

// burstHooks are one mode's hooks into the shared driver.
type burstHooks struct {
	route func(i int, zrng *rand.Rand) int // see sequence
	// arrive runs at request i's arrival, before it is sent; an error
	// ends the burst.
	arrive func(i int) error
	// respond sees every successful response to a request for
	// corpus[idx], concurrently.
	respond func(idx int, resp *rolagdapi.CompileResponse)
}

// burst is one open-loop burst as the client saw it.
type burst struct {
	wall                                   time.Duration
	completed, errors, degraded, failovers int64
	latencies                              []float64 // ms, ascending
}

// pct reads the p-th percentile of the burst's latencies, in ms.
func (b *burst) pct(p float64) float64 {
	if len(b.latencies) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(b.latencies)))
	if i >= len(b.latencies) {
		i = len(b.latencies) - 1
	}
	return b.latencies[i]
}

// drive sends cfg.requests compile requests for corpus functions to f
// open-loop: each request goes out at its arrival time whether or not
// earlier ones have finished, so a slow cluster shows up as latency.
func drive(cfg *config, f *localFleet, corpus []angha.Function, h burstHooks) (*burst, error) {
	next := sequence(cfg, h.route)
	var (
		b   burst
		mu  sync.Mutex // guards b
		wg  sync.WaitGroup
		err error
	)
	start := time.Now()
	for i := 0; i < cfg.requests; i++ {
		gap, idx, to := next(i)
		time.Sleep(gap)
		if h.arrive != nil {
			if err = h.arrive(i); err != nil {
				break
			}
		}
		c := f.client
		if to != viaRouter {
			c = f.direct[to]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			defer cancel()
			t0 := time.Now()
			resp, err := c.Compile(ctx, &rolagdapi.CompileRequest{Source: corpus[idx].Src})
			lat := time.Since(t0).Seconds() * 1000
			if err == nil && h.respond != nil {
				h.respond(idx, resp)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				b.errors++
				return
			}
			b.completed++
			b.latencies = append(b.latencies, lat)
			if resp.Degraded {
				b.degraded++
				if slices.Contains(resp.DegradedPasses, cluster.FailoverPass) {
					b.failovers++
				}
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	b.wall = time.Since(start)
	sort.Float64s(b.latencies)
	return &b, nil
}

// parity compares responses with a serial reference, byte for byte.
type parity struct {
	ref                 []string
	checked, mismatched atomic.Int64
}

// parityCount is the parity tally a record carries.
type parityCount struct {
	Checked    int64 `json:"checked"`
	Mismatched int64 `json:"mismatched"`
}

func (p *parity) check(idx int, ir string) {
	p.checked.Add(1)
	if ir != p.ref[idx] {
		p.mismatched.Add(1)
	}
}

func (p *parity) count() parityCount {
	return parityCount{Checked: p.checked.Load(), Mismatched: p.mismatched.Load()}
}

// serialReference compiles every corpus function once on a standalone
// daemon over real HTTP — the same wire path the cluster serves — and
// returns a parity check against those bytes.
func serialReference(corpus []angha.Function, workers int, logger *slog.Logger) (*parity, error) {
	d := daemon.New(daemon.Config{
		Engine:     service.Config{Workers: workers},
		RequestCap: time.Minute,
		Log:        logger,
	})
	defer d.Close(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	c := &rolagdapi.Client{BaseURL: "http://" + ln.Addr().String()}

	p := &parity{ref: make([]string, len(corpus))}
	for i, fn := range corpus {
		resp, err := c.Compile(context.Background(), &rolagdapi.CompileRequest{Source: fn.Src})
		if err != nil {
			return nil, fmt.Errorf("serial reference %s: %w", fn.Name, err)
		}
		p.ref[i] = resp.IR
	}
	return p, nil
}
