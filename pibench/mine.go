package main

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interaction"
	"repro/internal/mapper"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/treediff"
	"repro/internal/workload"
)

const (
	mineLogN    = 10000 // the Figure 12 scale the batch phase mines
	minePrefix  = 1000  // entries the incremental miner starts from
	mineAppends = 100   // appends per incremental cycle
	mineBatch   = 8     // entries per append: the ingest default batch
	mineSeeds   = 500   // log seeds with a recorded fingerprint: [0, mineSeeds)
)

// mineLogSeed is the seed of the log the mine workload mines: the run's
// seed folded into the recorded range, so every run's fingerprint is
// checked against a recorded value.
func mineLogSeed(seed int64) int64 { return (seed%mineSeeds + mineSeeds) % mineSeeds }

// expectedMine holds "seed fingerprint" lines: the interface core.Generate
// mines from SDSSFullLog(10000, seed) for every seed in [0, mineSeeds),
// recorded with -record-mine.
//
//go:embed expected_mine.txt
var expectedMine string

// fingerprint renders what identifies a mined interface: its widgets
// (path, type and domain), its graph size and its cost.
func fingerprint(i *core.Interface) string {
	h := fnv.New64a()
	for _, w := range i.Widgets {
		fmt.Fprintf(h, "%s|%s|", w.Path, w.Type.Name)
		var vals []string
		for _, v := range w.Domain.Values() {
			if v == nil {
				vals = append(vals, "(absent)")
			} else {
				vals = append(vals, ast.SQL(v))
			}
		}
		sort.Strings(vals)
		fmt.Fprintf(h, "%s;", strings.Join(vals, ","))
	}
	return fmt.Sprintf("w%d-e%d-d%d-c%.4f-%016x",
		len(i.Widgets), len(i.Graph.Edges), i.Graph.NumDiffs(), i.Cost(), h.Sum64())
}

func expectedFingerprint(seed int64) (string, bool) {
	for _, line := range strings.Split(expectedMine, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == strconv.FormatInt(seed, 10) {
			return f[1], true
		}
	}
	return "", false
}

// recordMine prints the expected-fingerprint table for seeds [0, n).
func recordMine(n int) error {
	for seed := int64(0); seed < int64(n); seed++ {
		iface, err := core.Generate(workload.SDSSFullLog(mineLogN, seed), core.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Printf("%d %s\n", seed, fingerprint(iface))
	}
	return nil
}

type mineSetup struct {
	log   *qlog.Log
	batch *core.Interface
}

func setupMine(cfg config, res *result) (*mineSetup, error) {
	t0 := time.Now()
	lg := workload.SDSSFullLog(mineLogN, mineLogSeed(cfg.seed))
	res.layer["setup.dataset_ms"] = ms(time.Since(t0))
	t1 := time.Now()
	iface, err := core.Generate(lg, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("mine: generate: %w", err)
	}
	res.layer["setup.host_ms"] = ms(time.Since(t1))
	return &mineSetup{log: lg, batch: iface}, nil
}

func runMine(cfg config, res *result) error {
	var st *mineSetup
	err := setupRepeated(cfg, res, func() (func(), error) {
		s, err := setupMine(cfg, res)
		st = s
		return func() {}, err
	})
	if err != nil {
		return err
	}
	fp, logSeed := fingerprint(st.batch), mineLogSeed(cfg.seed)
	res.note("mine fingerprint %s (log seed %d)", fp, logSeed)
	want, ok := expectedFingerprint(logSeed)
	res.check(ok, "no recorded mine fingerprint for log seed %d in expected_mine.txt", logSeed)
	res.check(!ok || fp == want, "mined interface fingerprint %s, expected %s for log seed %d", fp, want, logSeed)
	res.note("request fingerprint %016x (log of %d entries, prefix %d, %d appends of %d per cycle)",
		hashStrings(st.log.SQLs()), mineLogN, minePrefix, mineAppends, mineBatch)

	runFor := cfg.seconds
	if cfg.trace {
		runFor /= 2 // the other half runs through the traced seams
	}
	gen, app, grown, err := mineTimed(cfg, res, st, runFor)
	if err != nil {
		return err
	}
	res.attempted += len(gen) + len(app)
	res.note("mine Generate calls (ms) %.0f", gen)
	res.e2e["qps"] = float64(mineLogN) / (gen.median() / 1000)
	res.e2e["p50_ms"] = app.median()
	res.named("mine_qps", res.e2e["qps"], "1/s", len(gen))
	res.named("mine_append_p50_ms", app.median(), "ms", len(app))
	res.named("mine_append_p90_ms", app.quantile(0.9), "ms", len(app))
	res.e2e["heap_live_mb"] = heapLiveMB()
	if cfg.trace {
		return mineTraced(cfg, res, st, gen, app, grown, runFor)
	}
	return nil
}

// mineCounts sizes both phases from the run length alone, not from how
// fast the host happens to be, so every run does the same work: a
// Generate per 3.3 s of run length (each takes about 1 s on a 2-core x86
// host) and an incremental cycle (about 4 s) per 6.5 s.
func mineCounts(runFor time.Duration) (gens, cycles int) {
	return max(2, int(runFor.Seconds()/3.3)), max(1, int(runFor.Seconds()/6.5))
}

// mineWindow is the stretch of the log one incremental cycle mines; each
// cycle takes the next stretch, so a run averages over several parts of
// the log instead of timing one part again.
const mineWindow = minePrefix + mineAppends*mineBatch

func windowBase(cycle int) int { return cycle % (mineLogN / mineWindow) * mineWindow }

// mineOrder interleaves the two phases so each is sampled across the
// whole run: -1 is one Generate call, c >= 0 is incremental cycle c.
func mineOrder(gens, cycles int) []int {
	var order []int
	for c := 0; c < cycles; c++ {
		for len(order)-c < (c+1)*gens/cycles {
			order = append(order, -1)
		}
		order = append(order, c)
	}
	return order
}

// mineTimed runs the batch phase (core.Generate at n = 10,000) and the
// incremental cycles (a fresh Miner on the prefix, grown by mineAppends
// 8-entry appends), as many of each as mineCounts gives, in mineOrder. It
// returns the fingerprint of each cycle's grown interface.
func mineTimed(cfg config, res *result, st *mineSetup, runFor time.Duration) (gen, app samples, grown []string, err error) {
	gens, cycles := mineCounts(runFor)
	for _, step := range mineOrder(gens, cycles) {
		if step < 0 {
			t0 := time.Now()
			iface, err := core.Generate(st.log, core.DefaultOptions())
			gen.add(time.Since(t0))
			if err != nil {
				return nil, nil, nil, fmt.Errorf("mine: generate: %w", err)
			}
			res.check(len(iface.Widgets) == len(st.batch.Widgets), "repeated Generate changed the widget count")
			continue
		}
		cycle := step
		base := windowBase(cycle)
		m, err := core.NewMiner(st.log.Slice(base, base+minePrefix), core.DefaultLiveOptions())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("mine: new miner: %w", err)
		}
		for i := 0; i < mineAppends; i++ {
			lo := base + minePrefix + i*mineBatch
			t0 := time.Now()
			_, as, err := m.Append(st.log.Entries[lo : lo+mineBatch])
			app.add(time.Since(t0))
			if err != nil || as.ParseErrors > 0 {
				res.failed++
			}
			res.counts["append.comparisons"] += float64(as.Comparisons)
			if as.FullRemine {
				res.counts["append.full_remines"]++
			}
			res.counts["appends"]++
		}
		got := fingerprint(m.Interface())
		grown = append(grown, got)
		if cycle == 0 {
			batch, err := core.Generate(st.log.Slice(base, base+mineWindow), core.DefaultOptions())
			if err != nil {
				return nil, nil, nil, fmt.Errorf("mine: generate grown log: %w", err)
			}
			want := fingerprint(batch)
			res.check(got == want, "grown Miner interface %s differs from Generate on the grown log %s", got, want)
		}
	}
	return gen, app, grown, nil
}

// mineTraced re-runs both phases through the pipeline's public seams —
// Log.Parse / sqlparser.Parse, interaction.MineWith / MineAppend with a
// timing Differ, mapper.State.AddDiffs and State.Widgets, and
// Interface.CanExpress for the coverage check — so each stage's time is
// measured from outside core. The composed interfaces must equal what
// core produced: the batch interface, and each cycle's grown Miner
// interface (grown). The recomposition follows the incremental path
// only; appends on which core fell back to a full re-mine are counted
// and reported.
func mineTraced(cfg config, res *result, st *mineSetup, genUntraced, appUntraced samples, grown []string, runFor time.Duration) error {
	opts := core.DefaultOptions()
	layers := map[string]samples{}
	tr := &tracer{}
	stage := func(trace, layer, op string, start, end time.Time) {
		tr.record(span{trace: trace, layer: layer, op: op, start: start, end: end})
	}
	var genTraced, appTraced samples
	gens, cycles := mineCounts(runFor)
	for _, step := range mineOrder(gens, cycles) {
		if step < 0 {
			trace := fmt.Sprintf("g-%d", len(genTraced))
			t0 := time.Now()
			asts, err := st.log.Parse()
			if err != nil {
				return fmt.Errorf("mine: parse: %w", err)
			}
			t1 := time.Now()
			d := &timingDiffer{next: plainDiffer{}}
			g, _ := interaction.MineWith(asts, opts.Miner, d)
			t2 := time.Now()
			state := mapper.NewState(opts.Library)
			state.AddDiffs(g.Diffs())
			t3 := time.Now()
			ws := state.Widgets()
			t4 := time.Now()
			genTraced.add(t4.Sub(t0))
			layers["generate/sqlparser"] = append(layers["generate/sqlparser"], ms(t1.Sub(t0)))
			layers["generate/treediff"] = append(layers["generate/treediff"], ms(d.busy))
			layers["generate/interaction"] = append(layers["generate/interaction"], ms(t2.Sub(t1)-d.busy))
			layers["generate/mapper.add_diffs"] = append(layers["generate/mapper.add_diffs"], ms(t3.Sub(t2)))
			layers["generate/mapper.merge"] = append(layers["generate/mapper.merge"], ms(t4.Sub(t3)))
			stage(trace, "mine.generate", "generate", t0, t4)
			stage(trace, "sqlparser.parse", "generate", t0, t1)
			stage(trace, "interaction.mine", "generate", t1, t2)
			stage(trace, "mapper.add_diffs", "generate", t2, t3)
			stage(trace, "mapper.merge", "generate", t3, t4)
			composed := &core.Interface{Widgets: ws, Initial: asts[0], Graph: g}
			res.check(fingerprint(composed) == fingerprint(st.batch), "seam-composed pipeline differs from core.Generate")
			continue
		}
		cycle := step
		base := windowBase(cycle)
		asts, err := st.log.Slice(base, base+minePrefix).Parse()
		if err != nil {
			return fmt.Errorf("mine: parse prefix: %w", err)
		}
		d := &timingDiffer{next: treediff.NewComparer(0)}
		g, _ := interaction.MineWith(asts, opts.Miner, d)
		state := mapper.NewState(opts.Library)
		state.AddDiffs(g.Diffs())
		iface := &core.Interface{Widgets: state.Widgets(), Initial: asts[0], Graph: g}
		for i := 0; i < mineAppends; i++ {
			trace := fmt.Sprintf("a-%d-%d", cycle, i)
			lo := base + minePrefix + i*mineBatch
			t0 := time.Now()
			var added []*ast.Node
			for _, e := range st.log.Entries[lo : lo+mineBatch] {
				n, err := sqlparser.Parse(e.SQL)
				if err != nil {
					return fmt.Errorf("mine: parse entry: %w", err)
				}
				added = append(added, n)
			}
			t1 := time.Now()
			d.busy, d.compares = 0, 0
			prev := len(g.Edges)
			interaction.MineAppend(g, added, opts.Miner, d)
			t2 := time.Now()
			var diffs []interaction.DiffRecord
			for _, e := range g.Edges[prev:] {
				diffs = append(diffs, e.Diffs...)
			}
			state.AddDiffs(diffs)
			t3 := time.Now()
			iface = &core.Interface{Widgets: state.Widgets(), Initial: g.Queries[0], Graph: g}
			t4 := time.Now()
			for _, q := range added {
				iface.CanExpress(q)
			}
			t5 := time.Now()
			appTraced.add(t5.Sub(t0))
			stage(trace, "mine.append", "append", t0, t5)
			stage(trace, "sqlparser.parse", "append", t0, t1)
			stage(trace, "interaction.mine_append", "append", t1, t2)
			stage(trace, "mapper.add_diffs", "append", t2, t3)
			stage(trace, "mapper.merge", "append", t3, t4)
			stage(trace, "core.coverage", "append", t4, t5)
			layers["append/sqlparser"] = append(layers["append/sqlparser"], ms(t1.Sub(t0)))
			layers["append/treediff"] = append(layers["append/treediff"], ms(d.busy))
			layers["append/interaction"] = append(layers["append/interaction"], ms(t2.Sub(t1)-d.busy))
			layers["append/mapper.add_diffs"] = append(layers["append/mapper.add_diffs"], ms(t3.Sub(t2)))
			layers["append/mapper.merge"] = append(layers["append/mapper.merge"], ms(t4.Sub(t3)))
			layers["append/core.coverage"] = append(layers["append/core.coverage"], ms(t5.Sub(t4)))
			layers["append/treediff.compares"] = append(layers["append/treediff.compares"], float64(d.compares))
		}
		got := fingerprint(iface)
		res.check(cycle < len(grown) && got == grown[cycle],
			"seam-composed append cycle %d interface %s differs from core.Miner's", cycle, got)
	}
	if n := res.counts["append.full_remines"]; n > 0 {
		res.note("core.Miner.Append fell back to a full re-mine on %.0f of %.0f untraced appends; the traced recomposition times the incremental path only",
			n, res.counts["appends"])
	}
	writeSpans(cfg, res, tr.take(), nil)

	mean := func(k string) float64 { return layers[k].mean() }
	res.layer["sqlparser.parse_ms"] = mean("append/sqlparser")
	res.layer["treediff.compare_ms"] = mean("append/treediff")
	res.layer["treediff.compares"] = mean("append/treediff.compares")
	res.layer["interaction.self_ms"] = mean("append/interaction")
	res.layer["interaction.edges"] = float64(st.batch.Stats.Edges)
	res.layer["interaction.diff_records"] = float64(st.batch.Stats.DiffRecords)
	res.layer["mapper.add_diffs_ms"] = mean("append/mapper.add_diffs")
	res.layer["mapper.merge_ms"] = mean("append/mapper.merge")
	res.layer["mapper.map_ms"] = mean("append/mapper.add_diffs") + mean("append/mapper.merge")
	res.layer["mapper.widgets"] = float64(len(st.batch.Widgets))
	res.layer["mapper.cost"] = st.batch.Cost()
	res.layer["core.coverage_ms"] = mean("append/core.coverage")
	res.layer["core.full_remine_ratio"] = ratio(res.counts["append.full_remines"], res.counts["appends"])
	res.layer["core.append_comparisons"] = ratio(res.counts["append.comparisons"], res.counts["appends"])

	for _, op := range []struct {
		name           string
		traced, plain  samples
		stages         []string
		layerPrefix    string
		untracedSource string
	}{
		{"generate", genTraced, genUntraced, []string{"sqlparser", "treediff", "interaction", "mapper.add_diffs", "mapper.merge"}, "generate/", "core.Generate"},
		{"append", appTraced, appUntraced, []string{"sqlparser", "treediff", "interaction", "mapper.add_diffs", "mapper.merge", "core.coverage"}, "append/", "core.Miner.Append"},
	} {
		b := budget{workload: "mine", op: op.name, n: len(op.traced),
			tracedMedian: op.traced.median(), untracedMedian: op.plain.median(),
			base: fmt.Sprintf("%s median over %d untraced calls; layers: mean self time over %d seam-composed calls", op.untracedSource, len(op.plain), len(op.traced))}
		for _, s := range op.stages {
			b.layers = append(b.layers, layerShare{s, mean(op.layerPrefix + s)})
		}
		res.budgets = append(res.budgets, b)
	}
	res.layer["trace.overhead_frac"] = ratio(appTraced.median()-appUntraced.median(), appUntraced.median())
	return nil
}

func hashStrings(ss []string) uint64 {
	h := fnv.New64a()
	for _, s := range ss {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
