package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/daemon"
	"rolag/internal/obs"
	"rolag/internal/rolagdapi"
	"rolag/internal/service"
	"rolag/internal/workloads/tsvc"
)

// servedRequestCap is rolagd's default -request-timeout.
const servedRequestCap = 30 * time.Second

// clientTimeout bounds one request from the client's side; a request
// that takes longer counts as failed.
const clientTimeout = 10 * time.Second

// zipfS is the key-popularity exponent of angha-zipf.
const zipfS = 1.2

// servedPipeline is what rolagd runs with its defaults: fail-soft, IR
// printed into the response.
var servedPipeline = pipeline{failSoft: true, printIR: true}

// tsvcPipeline is paper §V.C through rolagd: unroll 8, flatten, asm.
var tsvcPipeline = pipeline{unroll: 8, flatten: true, failSoft: true, lower: true, asm: true, printIR: true}

// server is one in-process HTTP server on a loopback listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func serve(ln net.Listener, h http.Handler) *server {
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// fleet is the served system of one workload: rolagd shards behind a
// rolag-router, each on its own loopback listener, all with their
// served defaults.
type fleet struct {
	daemons []*daemon.Daemon
	servers []*server // router last
	router  *cluster.Router
	// clients[c] is the API client of load generator c; routed[c] says
	// whether it sends through the router or straight to the first
	// shard.
	clients []*rolagdapi.Client
	routed  []bool
	httpc   *http.Client
	done    atomic.Int64 // successful replies, for the meter's windows
}

// quietLog keeps the servers' per-request structured logging (formatted
// as rolagd formats it) without writing it anywhere.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// startFleet starts shards rolagd daemons with workers engine workers
// each and a router in front of them; with more than one shard they
// form a cluster. Load generator c sends through the router when
// routed[c], else straight to the first shard. It returns once every
// server answers its readiness probe.
func startFleet(shards, workers int, routed []bool) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, shards)
	peers := map[string]string{}
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[fmt.Sprintf("shard-%c", 'a'+i)] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		cfg := daemon.Config{
			Engine:     service.Config{Workers: workers},
			RequestCap: servedRequestCap,
			Log:        quietLog,
			TraceRing:  obs.NewTraceRing(obs.DefaultTraceCapacity),
		}
		if shards > 1 {
			cfg.ShardID = fmt.Sprintf("shard-%c", 'a'+i)
			cfg.Peers = peers
		}
		d := daemon.New(cfg)
		f.daemons = append(f.daemons, d)
		f.servers = append(f.servers, serve(ln, d.Handler()))
	}
	rt, err := cluster.New(cluster.Config{Shards: peers, Log: quietLog, TraceRing: obs.NewTraceRing(obs.DefaultTraceCapacity)})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	ln, err := listen()
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, serve(ln, rt.Handler()))
	f.httpc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	f.routed = routed
	for _, viaRouter := range routed {
		url := f.servers[0].url
		if viaRouter {
			url = f.servers[len(f.servers)-1].url
		}
		f.clients = append(f.clients, &rolagdapi.Client{BaseURL: url, HTTPClient: f.httpc, MaxAttempts: 1})
	}
	if err := f.waitReady(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitReady polls every daemon's /readyz and the router's /healthz.
func (f *fleet) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	ready := func(url string, wantOK bool) bool {
		resp, err := f.httpc.Get(url)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		if !wantOK {
			return true
		}
		var h struct{ Status string }
		return json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "ok"
	}
	for _, s := range f.servers {
		path, wantOK := "/readyz", false
		if s == f.servers[len(f.servers)-1] {
			path, wantOK = "/healthz", true
		}
		for !ready(s.url+path, wantOK) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s%s not ready after 10s", s.url, path)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, d := range f.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = d.Close(ctx) // every request has completed; nothing to drain
		cancel()
	}
	if f.httpc != nil {
		f.httpc.CloseIdleConnections()
	}
}

func (f *fleet) metrics() service.MetricsSnapshot {
	var s service.MetricsSnapshot
	for _, d := range f.daemons {
		m := d.Engine().Metrics()
		s.Requests += m.Requests
		s.CacheHits += m.CacheHits
		s.DedupHits += m.DedupHits
		s.PeerHits += m.PeerHits
		s.Compiles += m.Compiles
		s.Shed += m.Shed
		s.Degraded += m.Degraded
	}
	return s
}

// reply is one served request as the client saw it.
type reply struct {
	input          int // index into the workload's distinct inputs
	routed         bool
	due, sent, end time.Time
	elapsedMs      float64
	cacheHit       bool
	failover       bool
	irHash         [32]byte
	asmHash        [32]byte
	textBytes      int64
	err            error
}

// send posts one compile from load generator c with
// rolagdapi.Client{MaxAttempts: 1}: a shed, an error status or a
// timeout is a failure, never retried away.
func (f *fleet) send(c int, req *rolagdapi.CompileRequest, r *reply) {
	ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
	defer cancel()
	r.routed = f.routed[c]
	r.sent = time.Now()
	resp, err := f.clients[c].Compile(ctx, req)
	r.end = time.Now()
	if err != nil {
		r.err = err
		return
	}
	f.done.Add(1)
	r.elapsedMs = resp.ElapsedMs
	r.cacheHit = resp.CacheHit
	r.failover = slices.Contains(resp.DegradedPasses, cluster.FailoverPass)
	r.irHash = sha256.Sum256([]byte(resp.IR))
	if resp.Asm != "" {
		r.asmHash = sha256.Sum256([]byte(resp.Asm))
	}
	r.textBytes = resp.TextBytes
}

// closedLoop runs up to max requests from clients goroutines, each
// sending its next request when the previous one returns; next(i)
// builds request i. A client stops at the deadline, but only after it
// sent at least min requests of its own.
func (f *fleet) closedLoop(deadline time.Time, min, max int, next func(i int) (*rolagdapi.CompileRequest, int)) []reply {
	var seq atomic.Int64
	out := make([][]reply, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(seq.Add(1)) - 1
				if i >= max || (len(out[c]) >= min && time.Now().After(deadline)) {
					return
				}
				req, in := next(i)
				r := reply{input: in}
				f.send(c, req, &r)
				r.due = r.sent
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	return slices.Concat(out...)
}

// openLoop sends the fixed schedule from clients senders over clients
// connections. A request is due at start+due whether or not a sender
// is free, so a stall shows up as latency on the requests behind it.
func (f *fleet) openLoop(sched []arrival, reqs func(key int) *rolagdapi.CompileRequest) ([]reply, time.Time) {
	var seq atomic.Int64
	out := make([]reply, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(seq.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := reply{input: sched[i].key, due: due}
				f.send(c, reqs(sched[i].key), &r)
				out[i] = r
			}
		}(c)
	}
	wg.Wait()
	return out, start
}

// renamed gives TSVC kernel k a per-pass name, so every repeat of the
// kernel set is a distinct program and a true cache miss.
func renamed(k tsvc.Kernel, tag string) (src, name string) {
	name = k.Func + "__" + tag
	return strings.Replace(k.Src, " "+k.Func+"(", " "+name+"(", 1), name
}

func tsvcRequest(src, name string) *rolagdapi.CompileRequest {
	return &rolagdapi.CompileRequest{
		Source: src,
		Config: rolagdapi.CompileConfig{Name: name, Unroll: tsvcPipeline.unroll, Flatten: tsvcPipeline.flatten},
		Format: service.FormatAsm,
	}
}

// maxPasses bounds how many repeats of the kernel set one run can send.
const maxPasses = 1000

// runTSVCCold compiles the TSVC kernels through one in-process rolagd
// from two closed-loop clients, every request a distinct program. One
// client sends straight to the daemon, the other through a rolag-router
// in front of it, so the traced run can tell the daemon's HTTP cost
// from the router hop's.
func runTSVCCold(p params) (*result, error) {
	res := newResult("tsvc-cold")
	kernels := tsvc.Kernels()
	if p.size.tsvcKernels > 0 {
		kernels = kernels[:p.size.tsvcKernels]
	}
	k := len(kernels)
	rng := rand.New(rand.NewSource(p.seed))
	order := make([][]int, maxPasses)
	for i := range order {
		order[i] = rng.Perm(k)
	}
	obs.EnableSpanStats(true) // rolagd's -phase-timing default
	obs.EnableTracing(true)   // rolagd's -trace default
	defer obs.EnableTracing(false)

	var f *fleet
	setup, err := setupMedian(p.size.setupReps, func() (func(), error) {
		fl, err := startFleet(1, clients, []bool{false, true})
		if err != nil {
			return nil, err
		}
		// Warm-up: the first warmFuncs kernels, whatever the seed, under
		// a name no measured request uses.
		warm := fl.closedLoop(time.Time{}, p.size.warmFuncs, p.size.warmFuncs, func(i int) (*rolagdapi.CompileRequest, int) {
			return tsvcRequest(renamed(kernels[i%k], "warm")), -1
		})
		for _, r := range warm {
			if r.err != nil {
				fl.close()
				return nil, fmt.Errorf("warm-up: %w", r.err)
			}
		}
		f = fl
		return fl.close, nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	var inputs []input
	var inMu sync.Mutex
	before := f.metrics()
	m := startMeter(&f.done)
	start := time.Now()
	replies := f.closedLoop(start.Add(p.seconds), max(k, minSamples), maxPasses*k, func(i int) (*rolagdapi.CompileRequest, int) {
		pass, kern := i/k, order[i/k][i%k]
		src, name := renamed(kernels[kern], fmt.Sprintf("r%d", pass))
		inMu.Lock()
		defer inMu.Unlock()
		inputs = append(inputs, input{src: src, fn: name, class: kern, base: kernels[kern].Func})
		return tsvcRequest(src, name), len(inputs) - 1
	})
	wall := time.Since(start)
	u := m.end()
	after := f.metrics()
	f.close()

	orc := runOracle(inputs, tsvcPipeline.unroll, tsvcPipeline.flatten, true)
	ok := checkReplies(res, replies, inputs, orc)
	var lats, http, hop dist
	failovers := 0
	classText := map[int]int64{}
	for _, r := range ok {
		lats = append(lats, ms(r.end.Sub(r.sent)))
		if r.routed {
			hop = append(hop, ms(r.end.Sub(r.sent))-r.elapsedMs)
			if r.failover {
				failovers++
			}
		} else {
			http = append(http, ms(r.end.Sub(r.sent))-r.elapsedMs)
		}
		if _, seen := classText[inputs[r.input].class]; !seen {
			classText[inputs[r.input].class] = r.textBytes
		}
	}
	if err := fillTiming(res, lats, wall, u); err != nil {
		return nil, err
	}
	var text int64
	for _, b := range classText {
		text += b
	}
	res.e2e["text_bytes"] = float64(text)
	res.e2e["exec_steps"] = orc.execSteps()

	if !p.traced {
		return res, nil
	}
	serviceLayers(res, ok, before, after)
	res.layers["daemon.http_ms_p50"] = http.p50()
	if res.layers["daemon.http_ms_p99"], err = http.quantile("daemon.http_ms", 0.99); err != nil {
		return nil, err
	}
	res.layers["cluster.failovers"] = float64(failovers)
	res.layers["cluster.hop_ms_p50"] = hop.p50()
	if res.layers["cluster.hop_ms_p99"], err = hop.quantile("cluster.hop_ms", 0.99); err != nil {
		return nil, err
	}
	// The replay set is the first repeat of the kernel set.
	var rin []replayInput
	classOf := map[int]int{}
	for _, r := range ok {
		in := inputs[r.input]
		if _, seen := classOf[in.class]; seen || !strings.HasSuffix(in.fn, "__r0") {
			continue
		}
		classOf[in.class] = len(rin)
		rin = append(rin, replayInput{src: in.src, name: in.fn, irHash: r.irHash, asmHash: r.asmHash})
	}
	pipeMs, err := traceReplay(res, rin, tsvcPipeline, p.spanPath(res.workload))
	if err != nil {
		return res, err
	}
	waitLayer(res, ok, func(r reply) (float64, bool) {
		j, found := classOf[inputs[r.input].class]
		if !found {
			return 0, false
		}
		return pipeMs[j], true
	})
	zeroUnusedLayers(res)
	return res, nil
}

// checkReplies matches every reply against the oracle, counts failures
// and wrong outputs, and returns the correct replies.
func checkReplies(res *result, replies []reply, inputs []input, orc *oracle) []reply {
	var ok []reply
	for _, r := range replies {
		res.attempted++
		in := inputs[r.input]
		ref := orc.refs[r.input]
		var herr *rolagdapi.HTTPError
		switch {
		case r.err != nil:
			res.failed++
			if errors.As(r.err, &herr) && herr.Status != http.StatusTooManyRequests && herr.Status != http.StatusServiceUnavailable && herr.Status != http.StatusGatewayTimeout {
				res.problem("%s: %v", in.fn, r.err)
			}
		case ref.err != nil:
			res.failed++
			res.wrong++
			res.problem("%s: %v", in.fn, ref.err)
		case r.irHash != ref.irHash || r.asmHash != ref.asmHash || (r.textBytes != 0 && r.textBytes != ref.textBytes):
			res.failed++
			res.wrong++
			res.problem("%s: served output differs from the serial fail-hard reference", in.fn)
		default:
			ok = append(ok, r)
		}
	}
	return ok
}

// serviceLayers fills the service.* metrics from server elapsedMs and
// the engines' counters over the timed phase.
func serviceLayers(res *result, ok []reply, before, after service.MetricsSnapshot) {
	var hit, miss dist
	for _, r := range ok {
		if r.cacheHit {
			hit = append(hit, r.elapsedMs)
		} else {
			miss = append(miss, r.elapsedMs)
		}
	}
	reqs := after.Requests - before.Requests
	res.layers["service.hit_rate"] = 0
	if reqs > 0 {
		res.layers["service.hit_rate"] = float64(after.CacheHits+after.DedupHits+after.PeerHits-before.CacheHits-before.DedupHits-before.PeerHits) / float64(reqs)
	}
	res.layers["service.hit_ms_p50"] = hit.p50()
	res.layers["service.miss_ms_p50"] = miss.p50()
	res.layers["service.compiles"] = float64(after.Compiles - before.Compiles)
	res.layers["service.dedup_hits"] = float64(after.DedupHits - before.DedupHits)
	res.layers["service.shed"] = float64(after.Shed - before.Shed)
	res.layers["service.degraded"] = float64(after.Degraded - before.Degraded)
}

// waitLayer sets service.wait_ms_per_miss: a miss's server time minus
// the replayed pipeline time of its input.
func waitLayer(res *result, ok []reply, pipeMs func(reply) (float64, bool)) {
	var wait dist
	for _, r := range ok {
		if r.cacheHit {
			continue
		}
		if p, found := pipeMs(r); found {
			wait = append(wait, r.elapsedMs-p)
		}
	}
	res.layers["service.wait_ms_per_miss"] = wait.mean()
}

// runAnghaZipf sends an open-loop Poisson burst of zipfian keys over a
// seeded angha corpus to a rolag-router in front of two one-worker
// rolagd shards.
func runAnghaZipf(p params) (*result, error) {
	res := newResult("angha-zipf")
	corpus := anghaCorpus(p.size.zipfCorpus, p.seed)
	rng := rand.New(rand.NewSource(p.seed))
	measured := int(p.size.zipfRate*p.seconds.Seconds()*1.5) + 100
	size := make([]int, len(corpus))
	for i, f := range corpus {
		size[i] = len(f.Src)
	}
	keys := zipfKeys(rng, p.size.zipfWarm+measured, popularityOrder(rng, size), zipfS)
	sched := poissonSchedule(rng, p.size.zipfRate, p.seconds, keys[p.size.zipfWarm:])
	request := func(key int) *rolagdapi.CompileRequest {
		f := corpus[key]
		return &rolagdapi.CompileRequest{Source: f.Src, Config: rolagdapi.CompileConfig{Name: f.Name}}
	}
	obs.EnableSpanStats(true) // rolagd's -phase-timing default
	obs.EnableTracing(true)   // rolagd's and rolag-router's -trace default
	defer obs.EnableTracing(false)

	var f *fleet
	setup, err := setupMedian(p.size.setupReps, func() (func(), error) {
		fl, err := startFleet(2, 1, []bool{true, true})
		if err != nil {
			return nil, err
		}
		// Warm-up: the seeded key stream's prefix, so the timed phase
		// starts from a cache in its steady state rather than cold.
		warm := fl.closedLoop(time.Time{}, p.size.zipfWarm, p.size.zipfWarm, func(i int) (*rolagdapi.CompileRequest, int) {
			return request(keys[i]), keys[i]
		})
		for _, r := range warm {
			if r.err != nil {
				fl.close()
				return nil, fmt.Errorf("warm-up: %w", r.err)
			}
		}
		f = fl
		return fl.close, nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	before := f.metrics()
	m := startMeter(&f.done)
	replies, start := f.openLoop(sched, request)
	wall := time.Since(start)
	u := m.end()
	after := f.metrics()
	f.close()

	// The distinct inputs are the keys the timed phase asked for; every
	// reply is renumbered to its key's input.
	pos := map[int]int{}
	var inputs []input
	for _, a := range sched {
		if _, seen := pos[a.key]; !seen {
			fn := corpus[a.key]
			pos[a.key] = len(inputs)
			inputs = append(inputs, input{src: fn.Src, fn: fn.Name, class: len(inputs), base: fn.Name})
		}
	}
	for i := range replies {
		replies[i].input = pos[replies[i].input]
	}
	orc := runOracle(inputs, 0, false, false)
	ok := checkReplies(res, replies, inputs, orc)

	var lats, late, hop dist
	servedIR := map[int][32]byte{}
	for _, r := range ok {
		lats = append(lats, ms(r.end.Sub(r.due)))
		hop = append(hop, ms(r.end.Sub(r.sent))-r.elapsedMs)
		servedIR[r.input] = r.irHash
	}
	for _, r := range replies {
		late = append(late, ms(r.sent.Sub(r.due)))
	}
	if err := fillTiming(res, lats, wall, u); err != nil {
		return nil, err
	}
	var text int64
	for i := range servedIR {
		text += orc.refs[i].textBytes
	}
	res.e2e["text_bytes"] = float64(text)
	res.e2e["exec_steps"] = orc.execSteps()

	if !p.traced {
		return res, nil
	}
	serviceLayers(res, ok, before, after)
	failovers := 0
	for _, r := range ok {
		if r.failover {
			failovers++
		}
	}
	res.layers["cluster.failovers"] = float64(failovers)
	res.layers["cluster.hop_ms_p50"] = hop.p50()
	if res.layers["cluster.hop_ms_p99"], err = hop.quantile("cluster.hop_ms", 0.99); err != nil {
		return nil, err
	}
	if res.layers["bench.late_p99_ms"], err = late.quantile("bench.late_ms", 0.99); err != nil {
		return nil, err
	}
	var rin []replayInput
	at := map[int]int{} // input -> replay index
	for i, in := range inputs {
		if ir, served := servedIR[i]; served {
			at[i] = len(rin)
			rin = append(rin, replayInput{src: in.src, name: in.fn, irHash: ir})
		}
	}
	pipeMs, err := traceReplay(res, rin, servedPipeline, p.spanPath(res.workload))
	if err != nil {
		return res, err
	}
	waitLayer(res, ok, func(r reply) (float64, bool) {
		j, found := at[r.input]
		if !found {
			return 0, false
		}
		return pipeMs[j], true
	})
	zeroUnusedLayers(res)
	return res, nil
}
