package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	readRows    = 200000 // OnTime rows behind olap
	readLogN    = 150    // queries per mined log (pi-serve's default)
	sdssRows    = 2000   // rows per SDSS table (pi-serve's default)
	poolFactor  = 4      // widget states per interface, in cache sizes
	readRate    = 200.0  // open-loop reads per second
	zipfS       = 1.1    // skew of state popularity
	warmupReads = 3000
	readRounds  = 5  // open-loop and closed-loop phases alternate this many times
	checkEvery  = 16 // every Nth response is re-executed on the row path
	maxChecks   = 48
)

// readSystem is one service hosting olap and sdss behind one listener.
type readSystem struct {
	reg  *api.Registry
	ln   *listener
	stop func()
	pool map[string][]state
	ids  []string
}

func buildRead(cfg config, res *result, tr *tracer) (*readSystem, error) {
	t0 := time.Now()
	olapLog := workload.OLAPLog(readLogN, cfg.seed)
	sdssLog := workload.SDSSClient(workload.Lookup, cfg.seed, readLogN)
	ontime := engine.OnTimeDB(readRows)
	sdss := engine.SDSSDB(sdssRows)
	res.layer["setup.dataset_ms"] = ms(time.Since(t0))

	t1 := time.Now()
	reg := api.NewRegistryWithCache(cacheSize)
	ing := ingest.New(reg, ingest.Options{})
	if _, err := ing.Host("olap", "OnTime OLAP dashboard", olapLog, ontime, core.DefaultLiveOptions()); err != nil {
		return nil, fmt.Errorf("host olap: %w", err)
	}
	if _, err := ing.Host("sdss", "SDSS spectro explorer", sdssLog, sdss, core.DefaultLiveOptions()); err != nil {
		return nil, fmt.Errorf("host sdss: %w", err)
	}
	svc := api.NewService(reg)
	svc.SetIngestor(ing)
	ring := newSlowRing()
	svc.SetSlowRing(ring)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); ing.Run(ctx) }()
	ln, err := listen()
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	ln.serve(server.New(traceServicer(svc, "api", tr), serverOptions(ring)...), "server.http", tr)
	res.layer["setup.host_ms"] = ms(time.Since(t1))

	sys := &readSystem{reg: reg, ln: ln, pool: map[string][]state{}, ids: []string{"olap", "sdss"},
		stop: func() { ln.close(); cancel(); wg.Wait() }}
	r := rand.New(rand.NewSource(cfg.seed ^ 0x706f6f6c))
	for _, id := range sys.ids {
		h, _ := reg.Get(id)
		states, dropped, err := genStates(id, []*core.Interface{h.Iface()}, h.Catalog(), r, poolFactor*cacheSize)
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.pool[id] = states
		res.counts["pool."+id] = float64(len(states))
		res.counts["pool_dropped."+id] = float64(dropped)
	}
	return sys, nil
}

// readOp names one request: an interface and an index into its pool.
type readOp struct {
	id  string
	idx int
}

// readTraffic draws n requests: the interface uniformly, the state
// zipf-skewed over the pool so the head fits the cache and the tail
// misses.
func readTraffic(r *rand.Rand, pool map[string][]state, ids []string, n int) []readOp {
	zipfs := map[string]*rand.Zipf{}
	for _, id := range ids {
		zipfs[id] = rand.NewZipf(r, zipfS, 1, uint64(len(pool[id])-1))
	}
	ops := make([]readOp, n)
	for i := range ops {
		id := ids[r.Intn(len(ids))]
		ops[i] = readOp{id, int(zipfs[id].Uint64())}
	}
	return ops
}

func fingerprintOps(pool map[string][]state, ops []readOp) uint64 {
	h := fnv.New64a()
	for _, op := range ops {
		h.Write([]byte(op.id))
		h.Write([]byte(pool[op.id][op.idx].sql))
	}
	return h.Sum64()
}

// readPhase is what one untraced or traced pass measured.
type readPhase struct {
	open        loopStats
	qps         float64
	hits, plans int
	answered    int
	checks      []sample
	misses      []state
	missTraces  map[string]bool
	waits       map[string]time.Duration
}

func runRead(cfg config, res *result) error {
	var sys *readSystem
	err := setupRepeated(cfg, res, func() (func(), error) {
		s, err := buildRead(cfg, res, nil)
		sys = s
		if err != nil {
			return nil, err
		}
		return s.stop, nil
	})
	if err != nil {
		return err
	}
	for _, id := range sys.ids {
		res.note("pool %s: %.0f states (%.0f dropped at set-up), %.1f rows a page on average, cache %d",
			id, res.counts["pool."+id], res.counts["pool_dropped."+id], meanRows(sys.pool[id]), cacheSize)
	}
	runFor := cfg.seconds
	if cfg.trace {
		runFor /= 2
	}
	r := rand.New(rand.NewSource(cfg.seed ^ 0x74726166))
	warm := readTraffic(r, sys.pool, sys.ids, warmupReads)
	nOpen := int(readRate * runFor.Seconds() / 2)
	open := readTraffic(r, sys.pool, sys.ids, nOpen)
	closed := readTraffic(r, sys.pool, sys.ids, 200000)
	res.note("request fingerprint %016x (%d warm-up, %d open-loop at %.0f/s; closed-loop stream %016x)",
		fingerprintOps(sys.pool, append(append([]readOp{}, warm...), open...)), len(warm), len(open), readRate,
		fingerprintOps(sys.pool, closed[:1000]))

	ph, err := readPass(res, sys, nil, warm, open, closed, runFor/2)
	sys.stop()
	if err != nil {
		return err
	}
	res.e2e["qps"] = ph.qps
	res.e2e["p50_ms"] = ph.open.lat.median()
	res.named("read_qps", ph.qps, "1/s", 0)
	res.named("read_p50_ms", ph.open.lat.median(), "ms", len(ph.open.lat))
	res.named("read_p99_ms", ph.open.lat.quantile(0.99), "ms", len(ph.open.lat))
	res.note("read open loop: %d beyond p99; %s", ph.open.lat.beyond(0.99), ph.open.describe())
	if !cfg.trace {
		return nil
	}

	tr := &tracer{}
	tsys, err := buildRead(cfg, res, tr)
	if err != nil {
		return err
	}
	tph, err := readPass(res, tsys, tr, warm, open, closed, runFor/2)
	defer tsys.stop()
	if err != nil {
		return err
	}
	spans := tr.take()
	writeSpans(cfg, res, spans, nil)
	bds := openLoopOnly(analyse(spans, tph.waits, nil), "o-", tph.missTraces)
	b, band := servingBudget("read", "query", bds, ph.open.lat)
	perMiss := engineLayers(res, tsys, tph)
	b.carve("api.query", "engine (off-path estimate)", perMiss*missShare(band))
	res.budgets = append(res.budgets, b)
	servingLayers(res, bds, "query")
	res.layer["api.result_hit_ratio"] = ratio(float64(tph.hits), float64(tph.answered))
	res.layer["api.plan_hit_ratio"] = ratio(float64(tph.plans), float64(tph.answered))
	res.layer["loadgen.lag_p99_ms"] = tph.open.lag.quantile(0.99)
	res.layer["loadgen.backlog_max"] = float64(tph.open.backlogMax)
	res.layer["trace.overhead_frac"] = ratio(tph.open.lat.median()-ph.open.lat.median(), ph.open.lat.median())
	return nil
}

// readPass warms the caches, then alternates readRounds open-loop
// phases at readRate with as many closed-loop phases of inflight clients
// (phase long in all), so both are sampled across the whole pass. qps is
// the closed-loop reads of all rounds over their total time.
func readPass(res *result, sys *readSystem, tr *tracer, warm, open, closed []readOp, phase time.Duration) (*readPhase, error) {
	c, err := newConn(sys.ln.url, tr, inflight)
	if err != nil {
		return nil, err
	}
	defer c.close()
	ph := &readPhase{waits: map[string]time.Duration{}, missTraces: map[string]bool{}}
	var mu sync.Mutex
	do := func(lane string, i int, op readOp, wait time.Duration, timed bool) error {
		st := sys.pool[op.id][op.idx]
		trace := fmt.Sprintf("%s-%d", lane, i)
		var resp *api.QueryResponse
		err := c.call(trace, "query", func(ctx context.Context) error {
			var err error
			resp, err = c.c.Query(ctx, op.id, st.req)
			return err
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			res.check(false, "read %s %s: %v", op.id, st.sql, err)
			return err
		}
		if !timed {
			return nil
		}
		ph.waits[trace] = wait
		ph.answered++
		if resp.Cache == "hit" {
			ph.hits++
		} else {
			ph.misses = append(ph.misses, st)
			ph.missTraces[trace] = true
		}
		if resp.Plan == "hit" {
			ph.plans++
		}
		if ph.answered%checkEvery == 0 && len(ph.checks) < maxChecks {
			ph.checks = append(ph.checks, sample{st, resp})
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(warm); i += inflight {
				_ = do("w", i, warm[i], 0, false)
			}
		}(w)
	}
	wg.Wait()

	var rates samples
	var total time.Duration
	per, next := len(open)/readRounds, 0
	for k := 0; k < readRounds; k++ {
		lo := k * per
		ph.open.merge(runOpen(per, rateInterval(readRate), inflight, func(i int, wait time.Duration) error {
			return do("o", lo+i, open[lo+i], wait, true)
		}))
		base, lane := next, fmt.Sprintf("c%d", k)
		runtime.GC() // each round starts from the same collector state
		done, failed, elapsed := runClosed(phase/readRounds, inflight, func(i int) error {
			return do(lane, i, closed[(base+i)%len(closed)], 0, true)
		})
		next += done + failed
		total += elapsed
		rates = append(rates, float64(done)/elapsed.Seconds())
		res.attempted += per + done + failed
		res.failed += failed
	}
	ph.qps = float64(next) / total.Seconds()
	if tr == nil {
		res.note("read closed-loop phases (reads/s) %.0f", rates)
	}
	res.failed += ph.open.failed
	if tr == nil {
		res.e2e["heap_live_mb"] = heapLiveMB()
	}
	verifyRowPath(res,
		func(id string) *core.Interface { h, _ := sys.reg.Get(id); return h.Iface() },
		func(id string) engine.Catalog { h, _ := sys.reg.Get(id); return h.Catalog() },
		ph.checks)
	if tr != nil {
		res.layer["client.resp_bytes"] = ratio(float64(c.stats.bytes.Load()), float64(c.stats.responses.Load()))
		res.layer["client.gzip_share"] = ratio(float64(c.stats.gzipped.Load()), float64(c.stats.responses.Load()))
	}
	return ph, nil
}

// engineLayers re-executes the bound query of (up to 200) misses
// outside the request path and returns the mean engine time per miss.
func engineLayers(res *result, sys *readSystem, ph *readPhase) (perMiss float64) {
	misses := ph.misses
	if len(misses) > 200 {
		misses = misses[:200]
	}
	col, row := engineSample(misses, func(id string) (*core.Interface, engine.Catalog) {
		h, _ := sys.reg.Get(id)
		return h.Iface(), h.Catalog()
	})
	res.layer["engine.columnar_exec_ms"] = col.mean()
	res.layer["engine.row_exec_ms"] = row.mean()
	res.layer["engine.columnar_share"] = ratio(float64(len(col)), float64(len(col)+len(row)))
	return ratio(col.mean()*float64(len(col))+row.mean()*float64(len(row)), float64(len(col)+len(row)))
}

// openLoopOnly keeps the breakdowns of the open-loop phase (trace ids
// with the given prefix) and marks result-cache misses.
func openLoopOnly(bds []breakdown, prefix string, misses map[string]bool) []breakdown {
	var out []breakdown
	for _, b := range bds {
		if strings.HasPrefix(b.trace, prefix) {
			b.miss = misses[b.trace]
			out = append(out, b)
		}
	}
	return out
}

func missShare(bds []breakdown) float64 {
	n := 0
	for _, b := range bds {
		if b.miss {
			n++
		}
	}
	return ratio(float64(n), float64(len(bds)))
}

// servingLayers fills the serving per-layer metrics from the request
// breakdowns of one operation kind: mean self time per request.
func servingLayers(res *result, bds []breakdown, op string) {
	sums := map[string]float64{}
	n := 0
	for _, b := range bds {
		if b.op != op {
			continue
		}
		n++
		for l, v := range b.self {
			sums[l] += v
		}
	}
	mean := func(l string) float64 { return ratio(sums[l], float64(n)) }
	res.layer["client.roundtrip_ms"] = mean("client.roundtrip")
	res.layer["client.decode_ms"] = mean("client.call")
	res.layer["server.self_ms"] = mean("server.http")
	res.layer["api.query_ms"] = mean("api.query")
	res.layer["router.self_ms"] = mean("router.http") + mean("router.api.query")
}
