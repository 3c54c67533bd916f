package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	mixedRows     = 200000 // OnTime rows behind olap (ROADMAP item 2's size)
	mixedLogN     = 150
	writeRate     = 1.0  // writes per second on connection 1, each followed by a fresh probe
	mixedReadRate = 20.0 // reads per second on connection 2
	walSync       = 2 * time.Millisecond
	hotSet        = 64
	rowsPerAppend = 16
	logPerIngest  = 8
)

// shardProc is one WAL-backed shard, assembled like pi-serve -data-dir
// -wal -shard-addr.
type shardProc struct {
	reg  *api.Registry
	ing  *ingest.Ingester
	svc  *api.Service
	wal  *wal.Manager
	node *shard.Node
	ln   *listener
	stop func()
}

func attachFuncs(id string, st *store.Store) {
	if gal, ok := st.Snapshot().Table("Galaxy"); ok {
		st.AddFunc("dbo.fGetNearbyObjEq", engine.FGetNearbyObjEq(gal))
	}
}

// buildShard starts one shard; host, when non-nil, mines and hosts its
// interfaces before the anchor snapshot, as pi-serve does at boot.
func buildShard(dir string, tr *tracer, res *result, host func(*ingest.Ingester) error) (*shardProc, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	reg := api.NewRegistryWithCache(cacheSize)
	ing := ingest.New(reg, ingest.Options{BatchSize: logPerIngest, FlushInterval: 2 * time.Second})
	wm := wal.NewManager(dir, wal.Options{SyncInterval: walSync})
	per := ingest.NewPersister(dir, ing, ingest.PersistOptions{Funcs: attachFuncs, WAL: wm})
	if tr != nil {
		ing.SetJournal(&tracedJournal{next: per, tr: tr})
	}
	svc, _, err := api.NewPersistentService(reg, per)
	if err != nil {
		ln.close()
		return nil, fmt.Errorf("shard service: %w", err)
	}
	if host != nil {
		if err := host(ing); err != nil {
			ln.close()
			return nil, err
		}
		t0 := time.Now()
		if _, err := svc.Snapshot(); err != nil {
			ln.close()
			return nil, fmt.Errorf("anchor snapshot: %w", err)
		}
		res.layer["setup.snapshot_ms"] = ms(time.Since(t0))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	svc.SetIngestor(ing)
	wg.Add(1)
	go func() { defer wg.Done(); ing.Run(ctx) }()
	ring := newSlowRing()
	svc.SetSlowRing(ring)
	node, err := shard.NewNode(svc, ing, shard.NodeOptions{Addr: ln.url, Funcs: attachFuncs, Persister: per})
	if err != nil {
		cancel()
		wg.Wait()
		ln.close()
		return nil, err
	}
	opts := append(serverOptions(ring), server.WithAdmin("/v1/shard/", node.AdminHandler(server.AuthConfig{})))
	ln.serve(server.New(traceServicer(node, "api", tr), opts...), "server.http", tr)
	return &shardProc{reg: reg, ing: ing, svc: svc, wal: wm, node: node, ln: ln,
		stop: func() { ln.close(); cancel(); wg.Wait(); _ = wm.Close() }}, nil
}

// mixedSystem is a router over an owner and a follower shard.
type mixedSystem struct {
	owner, follower *shardProc
	router          *shard.Router
	rln             *listener
	hot             []state
	stop            func()
}

// writeOp is one scheduled write on connection 1.
type writeOp struct {
	kind  string // rows, update, delete, log
	rows  [][]any
	sql   string
	logs  []string
	month int // update target
	day   int
	delay int
}

func (w writeOp) op() string {
	switch w.kind {
	case "update", "delete":
		return "mutate"
	}
	return w.kind
}

// writeCycle is the write mix: every run of ten writes holds exactly
// these kinds, in a seeded order, so the mix is the same on every seed.
var writeCycle = []string{"rows", "rows", "rows", "rows", "delete", "delete", "delete", "update", "update", "log"}

// writeSchedule draws n writes. Appended rows carry canceled = 1 and a
// (month, dayofweek) group no base row has (month 13 and up), and each
// DELETE — in pi-loggen's shape — removes the oldest such group, so the
// live row count stays steady. UPDATEs use pi-loggen's shape as is.
func writeSchedule(seed int64, n int) []writeOp {
	r := rand.New(rand.NewSource(seed ^ 0x77726974))
	olap := workload.OLAPLog(mixedLogN+n*logPerIngest, seed).SQLs()[mixedLogN:]
	carriers := []string{"AA", "UA", "DL", "WN", "B6", "AS"}
	states := []string{"CA", "NY", "TX", "IL", "GA", "WA", "FL", "CO"}
	var pending []int
	next, logAt := 0, 0
	out := make([]writeOp, n)
	var cycle []string
	for i := range out {
		if len(cycle) == 0 {
			cycle = append([]string(nil), writeCycle...)
			r.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		}
		kind := cycle[0]
		cycle = cycle[1:]
		if kind == "delete" && len(pending) == 0 {
			// Nothing to delete yet: append now, delete in its place later.
			kind = "rows"
			for j, k := range cycle {
				if k == "rows" {
					cycle[j] = "delete"
					break
				}
			}
		}
		switch kind {
		case "delete":
			g := pending[0]
			pending = pending[1:]
			out[i] = writeOp{kind: "delete", sql: fmt.Sprintf(
				"DELETE FROM ontime WHERE canceled = 1 AND month = %d AND dayofweek = %d", 13+g/7, 1+g%7)}
		case "rows":
			g := next
			next++
			pending = append(pending, g)
			w := writeOp{kind: "rows"}
			for k := 0; k < rowsPerAppend; k++ {
				c := carriers[r.Intn(len(carriers))]
				delay := float64(r.Intn(240) - 30)
				w.rows = append(w.rows, []any{c, c,
					states[r.Intn(len(states))] + "P", states[r.Intn(len(states))] + "P",
					states[r.Intn(len(states))], states[r.Intn(len(states))],
					float64(13 + g/7), float64(1 + r.Intn(28)), float64(1 + g%7),
					delay, delay + float64(r.Intn(20)-10), delay + float64(r.Intn(20)-10),
					float64(100 + r.Intn(2900)), 1.0, 1.0, 0.0})
			}
			out[i] = w
		case "update":
			w := writeOp{kind: "update", delay: r.Intn(240) - 30, month: 1 + r.Intn(12), day: 1 + r.Intn(28)}
			w.sql = fmt.Sprintf("UPDATE ontime SET delay = %d WHERE month = %d AND day = %d", w.delay, w.month, w.day)
			out[i] = w
		default:
			out[i] = writeOp{kind: "log", logs: olap[logAt : logAt+logPerIngest]}
			logAt += logPerIngest
		}
	}
	return out
}

func buildMixed(cfg config, res *result, tr *tracer, sched []writeOp, rep int) (*mixedSystem, error) {
	t0 := time.Now()
	olapLog := workload.OLAPLog(mixedLogN, cfg.seed)
	ontime := engine.OnTimeDB(mixedRows)
	res.layer["setup.dataset_ms"] = ms(time.Since(t0))

	t1 := time.Now()
	base := filepath.Join(cfg.workDir, fmt.Sprintf("mixed-%d", rep))
	owner, err := buildShard(filepath.Join(base, "owner"), tr, res, func(ing *ingest.Ingester) error {
		_, err := ing.Host("olap", "OnTime OLAP dashboard", olapLog, ontime, core.DefaultLiveOptions())
		return err
	})
	if err != nil {
		return nil, err
	}
	follower, err := buildShard(filepath.Join(base, "follower"), tr, res, nil)
	if err != nil {
		owner.stop()
		return nil, err
	}
	rt, err := shard.NewRouter([]string{owner.ln.url, follower.ln.url}, shard.RouterOptions{
		Timeout: 30 * time.Second, Pins: map[string]string{"olap": owner.ln.url}, Replicas: 2})
	if err != nil {
		owner.stop()
		follower.stop()
		return nil, err
	}
	ring := newSlowRing()
	rt.SetSlowRing(ring)
	rln, err := listen()
	if err != nil {
		owner.stop()
		follower.stop()
		return nil, err
	}
	opts := append(serverOptions(ring), server.WithAdmin("/v1/router/", rt.AdminHandler(server.AuthConfig{})))
	rln.serve(server.New(traceServicer(rt, "router.api", tr), opts...), "router.http", tr)
	sys := &mixedSystem{owner: owner, follower: follower, router: rt, rln: rln,
		stop: func() { rln.close(); follower.stop(); owner.stop() }}
	res.layer["setup.host_ms"] = ms(time.Since(t1))

	t2 := time.Now()
	if err := sys.waitSynced(60 * time.Second); err != nil {
		sys.stop()
		return nil, err
	}
	res.layer["setup.seed_ms"] = ms(time.Since(t2))

	// The hot set must bind on every interface the scheduled log
	// ingests will publish, so reads stay valid as the interface grows.
	h, _ := owner.reg.Get("olap")
	ifaces := []*core.Interface{h.Iface()}
	grown := olapLog.Slice(0, olapLog.Len())
	for _, w := range sched {
		if w.kind != "log" {
			continue
		}
		for _, s := range w.logs {
			grown.Append(s, "olap")
		}
		iface, err := core.Generate(grown, core.DefaultOptions())
		if err != nil {
			sys.stop()
			return nil, err
		}
		ifaces = append(ifaces, iface)
	}
	r := rand.New(rand.NewSource(cfg.seed ^ 0x686f74))
	hot, dropped, err := genStates("olap", ifaces, h.Catalog(), r, hotSet)
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.hot = hot
	res.counts["hot_dropped"] = float64(dropped)
	return sys, nil
}

// waitSynced drives the router until the follower is seeded and at the
// owner's sequence number.
func (m *mixedSystem) waitSynced(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		m.router.Refresh(context.Background())
		p := m.router.Replication().Interfaces["olap"]
		oseq, fseq := m.seqs()
		if len(p.Followers) == 1 && p.Followers[0].Synced && fseq == oseq {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("mixed: follower not in sync after %s", limit)
}

// seqs reads the replication sequence number on both shards.
func (m *mixedSystem) seqs() (owner, follower uint64) {
	get := func(s *shardProc) uint64 {
		for _, hi := range s.node.Health().Interfaces {
			if hi.ID == "olap" && hi.Replication != nil {
				return hi.Replication.Seq
			}
		}
		return 0
	}
	return get(m.owner), get(m.follower)
}

// mixedPass is what one pass over the schedule measured.
type mixedPass struct {
	writes      loopStats
	reads       loopStats
	ack         map[string]samples // by write kind: rows, mutate, log
	fresh       samples
	qps         float64 // closed-loop writes/s, each with its fresh probe
	waits       map[string]time.Duration
	rowsAdded   int
	rowsDeleted int
	logsAdded   int
	lastUpdate  map[[2]int]int
	userBytes   int
	mutates     []string
	respBytes   int64
	responses   int64
	gzipped     int64
}

func runMixed(cfg config, res *result) error {
	runFor := cfg.seconds
	if cfg.trace {
		runFor /= 2
	}
	nOpen := int(writeRate * runFor.Seconds())
	sched := writeSchedule(cfg.seed, nOpen+len(writeCycle))
	var sys *mixedSystem
	rep := 0
	err := setupRepeated(cfg, res, func() (func(), error) {
		s, err := buildMixed(cfg, res, nil, sched, rep)
		rep++
		sys = s
		if err != nil {
			return nil, err
		}
		return s.stop, nil
	})
	if err != nil {
		return err
	}
	h := fnv.New64a()
	for _, w := range sched {
		b, _ := json.Marshal(w.rows)
		fmt.Fprintf(h, "%s|%s|%s|%v;", w.kind, w.sql, b, w.logs)
	}
	for _, st := range sys.hot {
		h.Write([]byte(st.sql))
	}
	res.note("request fingerprint %016x (%d scheduled writes, %d open-loop at %.2f/s, reads at %.0f/s over %d hot states, %.0f dropped, %.1f rows a page on average)",
		h.Sum64(), len(sched), nOpen, writeRate, mixedReadRate, len(sys.hot), res.counts["hot_dropped"], meanRows(sys.hot))

	ph, err := mixedRun(res, sys, nil, sched, nOpen)
	if err == nil {
		res.e2e["heap_live_mb"] = heapLiveMB()
		mixedVerify(res, sys, ph)
	}
	if err != nil || !cfg.trace {
		sys.stop()
		if err != nil {
			return err
		}
	}
	res.e2e["qps"] = ph.qps
	res.e2e["p50_ms"] = ph.fresh.median()
	res.named("write_qps", ph.qps, "1/s", len(sched)-nOpen)
	res.named("read_p50_ms", ph.reads.lat.median(), "ms", len(ph.reads.lat))
	res.named("read_p99_ms", ph.reads.lat.quantile(0.99), "ms", len(ph.reads.lat))
	res.named("rows_ack_p50_ms", ph.ack["rows"].median(), "ms", len(ph.ack["rows"]))
	res.named("rows_ack_p90_ms", ph.ack["rows"].quantile(0.9), "ms", len(ph.ack["rows"]))
	res.named("mutate_ack_p50_ms", ph.ack["mutate"].median(), "ms", len(ph.ack["mutate"]))
	res.named("mutate_ack_p90_ms", ph.ack["mutate"].quantile(0.9), "ms", len(ph.ack["mutate"]))
	res.named("log_ack_p50_ms", ph.ack["log"].median(), "ms", len(ph.ack["log"]))
	res.named("fresh_p50_ms", ph.fresh.median(), "ms", len(ph.fresh))
	res.named("fresh_p90_ms", ph.fresh.quantile(0.9), "ms", len(ph.fresh))
	for _, l := range []struct {
		name string
		st   loopStats
	}{{"writes", ph.writes}, {"reads", ph.reads}} {
		res.note("mixed open loop %s: %s", l.name, l.st.describe())
	}
	if !cfg.trace {
		return nil
	}
	sys.stop()

	tr := &tracer{}
	tsys, err := buildMixed(cfg, res, tr, sched, rep)
	if err != nil {
		return err
	}
	defer tsys.stop()
	tph, err := mixedRun(res, tsys, tr, sched, nOpen)
	if err != nil {
		return err
	}
	mixedVerify(res, tsys, tph)
	mixedLayers(cfg, res, tsys, tr.take(), ph, tph)
	return nil
}

// mixedRun runs the open-loop phase — the first nOpen writes, each
// followed by a fresh probe, on connection 1 and reads on connection 2,
// both at fixed rates — and then the rest of the schedule on connection
// 1 as a closed loop: each write and its probe sent as soon as the last
// one answered. qps is the closed loop's writes per second. Only the
// open loop's writes give ack and fresh samples.
func mixedRun(res *result, sys *mixedSystem, tr *tracer, sched []writeOp, nOpen int) (*mixedPass, error) {
	wc, err := newConn(sys.rln.url, tr, 1)
	if err != nil {
		return nil, err
	}
	defer wc.close()
	rc, err := newConn(sys.rln.url, tr, 1)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	ph := &mixedPass{ack: map[string]samples{}, waits: map[string]time.Duration{}, lastUpdate: map[[2]int]int{}}
	var mu sync.Mutex
	fail := func(format string, args ...any) error {
		err := fmt.Errorf(format, args...)
		mu.Lock()
		res.check(false, "%v", err)
		mu.Unlock()
		return err
	}
	write := func(i int, wait time.Duration) error {
		w := sched[i]
		lane := "" // closed-loop writes: no ack or fresh sample
		if i < nOpen {
			lane = "open"
		}
		trace := fmt.Sprintf("w-%d", i)
		if lane == "" {
			trace = "c" + trace
		}
		due := time.Now().Add(-wait)
		var epoch uint64
		var body any
		err := wc.call(trace, w.op(), func(ctx context.Context) error {
			switch w.kind {
			case "rows":
				body = w.rows
				ack, err := wc.c.AppendRows(ctx, "olap", "ontime", w.rows, true)
				if err == nil {
					epoch = ack.Epoch
					if ack.Accepted != rowsPerAppend {
						return fmt.Errorf("row append accepted %d of %d", ack.Accepted, rowsPerAppend)
					}
				}
				return err
			case "log":
				body = w.logs
				ack, err := wc.c.IngestSQL(ctx, "olap", true, w.logs...)
				if err == nil {
					epoch = ack.Epoch
					if ack.Accepted != logPerIngest {
						return fmt.Errorf("log ingest accepted %d of %d", ack.Accepted, logPerIngest)
					}
				}
				return err
			default:
				body = w.sql
				ack, err := wc.c.MutateRows(ctx, "olap", w.sql, 0)
				if err == nil {
					epoch = ack.Epoch
					if w.kind == "delete" && ack.Deleted != rowsPerAppend {
						return fmt.Errorf("%s deleted %d rows, want %d", w.sql, ack.Deleted, rowsPerAppend)
					}
				}
				return err
			}
		})
		if err != nil {
			return fail("mixed write %d (%s): %v", i, w.kind, err)
		}
		acked := time.Now()
		st := sys.hot[i%len(sys.hot)]
		var resp *api.QueryResponse
		perr := wc.call(strings.Replace(trace, "w-", "p-", 1), "query", func(ctx context.Context) error {
			var err error
			resp, err = wc.c.Query(ctx, "olap", st.req)
			return err
		})
		probed := time.Now()
		if perr != nil {
			return fail("mixed probe after write %d: %v", i, perr)
		}
		if resp.Epoch < epoch {
			return fail("mixed probe after write %d answered at epoch %d, below the ack's %d", i, resp.Epoch, epoch)
		}
		b, _ := json.Marshal(body)
		mu.Lock()
		defer mu.Unlock()
		if lane != "" {
			ph.waits[trace] = wait
			ph.ack[w.op()] = append(ph.ack[w.op()], ms(acked.Sub(due)))
			ph.fresh = append(ph.fresh, ms(probed.Sub(acked)))
		}
		ph.userBytes += len(b)
		switch w.kind {
		case "rows":
			ph.rowsAdded += rowsPerAppend
		case "delete":
			ph.rowsDeleted += rowsPerAppend
			ph.mutates = append(ph.mutates, w.sql)
		case "update":
			ph.lastUpdate[[2]int{w.month, w.day}] = w.delay
			ph.mutates = append(ph.mutates, w.sql)
		case "log":
			ph.logsAdded += logPerIngest
		}
		return nil
	}
	read := func(i int, wait time.Duration) error {
		st := sys.hot[int(uint64(i)*2654435761%uint64(len(sys.hot)))]
		trace := fmt.Sprintf("r-%d", i)
		err := rc.call(trace, "query", func(ctx context.Context) error {
			_, err := rc.c.Query(ctx, "olap", st.req)
			return err
		})
		if err != nil {
			return fail("mixed read %d: %v", i, err)
		}
		mu.Lock()
		ph.waits[trace] = wait
		mu.Unlock()
		return nil
	}

	nReads := int(mixedReadRate * float64(nOpen) / writeRate)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.reads = runOpen(nReads, rateInterval(mixedReadRate), 1, read)
	}()
	ph.writes = runOpen(nOpen, rateInterval(writeRate), 1, write)
	wg.Wait()
	runtime.GC() // the phase starts from the same collector state on every run
	start, closedFailed := time.Now(), 0
	for i := nOpen; i < len(sched); i++ {
		if err := write(i, 0); err != nil {
			closedFailed++
		}
	}
	ph.qps = float64(len(sched)-nOpen-closedFailed) / time.Since(start).Seconds()
	for _, c := range []*conn{wc, rc} {
		ph.respBytes += c.stats.bytes.Load()
		ph.responses += c.stats.responses.Load()
		ph.gzipped += c.stats.gzipped.Load()
	}
	res.attempted += len(sched) + nReads
	res.failed += ph.writes.failed + ph.reads.failed + closedFailed
	return ph, nil
}

// mixedVerify checks that owner and follower agree on sequence number
// and row count, and that every acked write is visible: rows appended
// minus rows deleted, the grown log, and each (month, day)'s last
// acked UPDATE value.
func mixedVerify(res *result, sys *mixedSystem, ph *mixedPass) {
	deadline := time.Now().Add(30 * time.Second)
	oseq, fseq := sys.seqs()
	for oseq != fseq && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		oseq, fseq = sys.seqs()
	}
	res.check(oseq == fseq, "mixed: owner at seq %d, follower at %d", oseq, fseq)
	wantRows := mixedRows + ph.rowsAdded - ph.rowsDeleted
	wantLog := mixedLogN + ph.logsAdded
	for _, s := range []*shardProc{sys.owner, sys.follower} {
		h, ok := s.reg.Get("olap")
		if !ok {
			res.check(false, "mixed: %s does not host olap", s.ln.url)
			continue
		}
		cat := h.Catalog()
		t, _ := cat.Table("ontime")
		res.check(t != nil && t.NumRows() == wantRows, "mixed: %s holds %d rows, acked writes leave %d", s.ln.url, t.NumRows(), wantRows)
		res.check(len(h.Iface().Graph.Queries) == wantLog, "mixed: %s mined %d log entries, acked ingests leave %d",
			s.ln.url, len(h.Iface().Graph.Queries), wantLog)
		for md, delay := range ph.lastUpdate {
			all := count(cat, fmt.Sprintf("SELECT COUNT(*) FROM ontime WHERE month = %d AND day = %d", md[0], md[1]))
			set := count(cat, fmt.Sprintf("SELECT COUNT(*) FROM ontime WHERE month = %d AND day = %d AND delay = %d", md[0], md[1], delay))
			res.check(all == set, "mixed: %s: %.0f of %.0f rows of month %d day %d carry the last acked delay %d",
				s.ln.url, set, all, md[0], md[1], delay)
		}
	}
}

func count(cat engine.Catalog, sql string) float64 {
	t, err := engine.ExecSQL(cat, sqlparser.Parse, sql)
	if err != nil || len(t.Rows) != 1 {
		return -1
	}
	return t.Rows[0][0].Num
}

// mixedLayers fills the per-layer metrics and budgets of a traced pass.
func mixedLayers(cfg config, res *result, sys *mixedSystem, spans []span, plain, traced *mixedPass) {
	writeOps := map[string]bool{"rows": true, "mutate": true, "log": true}
	writeSpans(cfg, res, spans, writeOps)
	durs := map[string]samples{}
	for _, s := range spans {
		durs[s.layer] = append(durs[s.layer], ms(s.dur()))
	}
	bds := analyse(spans, traced.waits, writeOps)
	var writes, probes, reads []breakdown
	for _, b := range bds {
		switch b.trace[0] {
		case 'w':
			writes = append(writes, b)
		case 'p':
			probes = append(probes, b)
		case 'r':
			reads = append(reads, b)
		}
	}
	for _, op := range []string{"rows", "mutate", "log"} {
		b, _ := servingBudget("mixed", op, writes, plain.ack[op])
		res.budgets = append(res.budgets, b)
	}
	pb, _ := servingBudget("mixed", "query", probes, plain.fresh)
	pb.op = "fresh-probe"
	res.budgets = append(res.budgets, pb)
	rb, _ := servingBudget("mixed", "query", reads, plain.reads.lat)
	rb.op = "read"
	res.budgets = append(res.budgets, rb)

	all := append(append(append([]breakdown{}, writes...), probes...), reads...)
	sums := map[string]float64{}
	ingestSelf := 0.0
	for _, b := range all {
		for l, v := range b.self {
			sums[l] += v
		}
		ingestSelf += b.self["api.rows"] + b.self["api.mutate"] + b.self["api.log"]
	}
	routed := float64(len(durs["router.api.query"]) + len(durs["router.api.rows"]) + len(durs["router.api.mutate"]) + len(durs["router.api.log"]))
	res.layer["router.proxied"] = routed
	res.layer["router.self_ms"] = ratio(sums["router.http"]+sums["router.api.query"]+sums["router.api.rows"]+sums["router.api.mutate"]+sums["router.api.log"], routed)
	res.layer["server.self_ms"] = ratio(sums["server.http"], float64(len(durs["server.http"])))
	res.layer["client.roundtrip_ms"] = ratio(sums["client.roundtrip"], float64(len(all)))
	res.layer["client.decode_ms"] = ratio(sums["client.call"], float64(len(all)))
	res.layer["client.resp_bytes"] = ratio(float64(traced.respBytes), float64(traced.responses))
	res.layer["client.gzip_share"] = ratio(float64(traced.gzipped), float64(traced.responses))
	res.layer["api.query_ms"] = durs["api.query"].mean()
	res.layer["api.rows_ms"] = durs["api.rows"].mean()
	res.layer["api.mutate_ms"] = durs["api.mutate"].mean()
	res.layer["api.log_ms"] = durs["api.log"].mean()
	res.layer["ingest.self_ms"] = ratio(ingestSelf, float64(len(writes)))
	res.layer["wal.journal_ms"] = durs["wal.journal"].mean()
	res.layer["replica.apply_ms"] = durs["replica.apply"].mean()
	if st, ok := sys.owner.wal.Status("olap"); ok {
		res.layer["wal.appends_per_sync"] = ratio(float64(st.Appends), float64(st.Syncs))
		res.layer["wal.bytes_per_user_byte"] = ratio(float64(st.Bytes), float64(traced.userBytes))
	}
	for _, hi := range sys.follower.node.Health().Interfaces {
		if hi.ID == "olap" && hi.Replication != nil {
			res.layer["replica.seeds"] = float64(hi.Replication.Seeds)
			res.layer["replica.catchups"] = float64(hi.Replication.CatchUps)
		}
	}
	res.layer["loadgen.lag_p99_ms"] = max(traced.writes.lag.quantile(0.99), traced.reads.lag.quantile(0.99))
	res.layer["loadgen.backlog_max"] = float64(max(traced.writes.backlogMax, traced.reads.backlogMax))
	res.layer["trace.overhead_frac"] = ratio(traced.fresh.median()-plain.fresh.median(), plain.fresh.median())

	// Engine work re-measured outside the request path, on the owner's
	// current snapshot: the per-epoch columnar rebuild, DML evaluation,
	// and the hot set's execution.
	h, _ := sys.owner.reg.Get("olap")
	cat := h.Catalog()
	if t, ok := cat.Table("ontime"); ok {
		var build samples
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			engine.BuildColumnar(t)
			build.add(time.Since(t0))
		}
		res.layer["engine.build_columnar_ms"] = build.median()
	}
	var dml samples
	for i, sql := range traced.mutates {
		if i >= 20 {
			break
		}
		stmt, err := sqlparser.ParseStatement(sql)
		if err != nil {
			continue
		}
		t0 := time.Now()
		_, _ = engine.EvalDML(cat, stmt)
		dml.add(time.Since(t0))
	}
	res.layer["engine.dml_eval_ms"] = dml.mean()
	col, row := engineSample(sys.hot, func(string) (*core.Interface, engine.Catalog) { return h.Iface(), cat })
	res.layer["engine.columnar_exec_ms"] = col.mean()
	res.layer["engine.row_exec_ms"] = row.mean()
	res.layer["engine.columnar_share"] = ratio(float64(len(col)), float64(len(col)+len(row)))
}
