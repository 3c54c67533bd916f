// Command pibench is the repository's benchmark: it runs one named
// workload from a seed against the system assembled in-process from the
// same public constructors cmd/pi-serve and cmd/pi-router use, checks
// the outputs, and prints its metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also goes through timing decorators at every layer seam and the
// metrics are the per-layer ones (see LAYERS.md).
//
// Usage (from the repository root):
//
//	bash pibench/run.sh --workload mine|read|mixed --seed N --seconds S --trace 0|1
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string // scratch space for data dirs, inside the checkout
}

// inflight is how many requests the load generator keeps in flight at
// most: the closed loop's two clients, and the open loop's two workers.
const inflight = 2

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload;
// each workload gives them the meaning documented in LAYERS.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"sqlparser.parse_ms", "ms"},
	{"treediff.compare_ms", "ms"},
	{"treediff.compares", "count"},
	{"interaction.self_ms", "ms"},
	{"interaction.edges", "count"},
	{"interaction.diff_records", "count"},
	{"mapper.map_ms", "ms"},
	{"mapper.add_diffs_ms", "ms"},
	{"mapper.merge_ms", "ms"},
	{"mapper.widgets", "count"},
	{"mapper.cost", "cost"},
	{"core.coverage_ms", "ms"},
	{"core.full_remine_ratio", "ratio"},
	{"core.append_comparisons", "count"},
	{"client.roundtrip_ms", "ms"},
	{"client.decode_ms", "ms"},
	{"client.resp_bytes", "bytes"},
	{"client.gzip_share", "ratio"},
	{"router.self_ms", "ms"},
	{"router.proxied", "count"},
	{"server.self_ms", "ms"},
	{"api.query_ms", "ms"},
	{"api.result_hit_ratio", "ratio"},
	{"api.plan_hit_ratio", "ratio"},
	{"api.rows_ms", "ms"},
	{"api.mutate_ms", "ms"},
	{"api.log_ms", "ms"},
	{"engine.columnar_exec_ms", "ms"},
	{"engine.row_exec_ms", "ms"},
	{"engine.columnar_share", "ratio"},
	{"engine.build_columnar_ms", "ms"},
	{"engine.dml_eval_ms", "ms"},
	{"wal.journal_ms", "ms"},
	{"wal.appends_per_sync", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"replica.apply_ms", "ms"},
	{"replica.seeds", "count"},
	{"replica.catchups", "count"},
	{"ingest.self_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"setup.dataset_ms", "ms"},
	{"setup.host_ms", "ms"},
	{"setup.seed_ms", "ms"},
	{"setup.snapshot_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// namedMetric is one of the workload-specific end-to-end figures
// (read_p99_ms, rows_ack_p90_ms, ...) printed in the report.
type namedMetric struct {
	name, unit string
	value      float64
	n          int // samples behind it
}

type result struct {
	failures  []string
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	counts    map[string]float64 // raw tallies behind ratios
	names     []namedMetric
	notes     []string
	budgets   []budget
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]float64{}}
}

// check records a correctness miss when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) named(name string, v float64, unit string, n int) {
	r.names = append(r.names, namedMetric{name, unit, v, n})
}

// setupReps is how many times a run builds its system: set-up time is
// reported as the median, and every build but the last is torn down.
const setupReps = 3

// setupRepeated runs build setupReps times, tearing down all but the
// last, and reports the median wall time as setup_s.
func setupRepeated(cfg config, res *result, build func() (teardown func(), err error)) error {
	var times samples
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		teardown, err := build()
		times.add(time.Since(t0))
		if err != nil {
			return err
		}
		if i < setupReps-1 {
			teardown()
			runtime.GC()
		}
	}
	res.e2e["setup_s"] = times.median() / 1000
	res.note("setup_s samples (ms) %v", times)
	// Set-up garbage would otherwise be collected at a different point
	// of the timed phase on every run.
	runtime.GC()
	return nil
}

func main() {
	wl := flag.String("workload", "", "workload to run: mine, read or mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.Int("record-mine", 0, "print the expected mine fingerprints for seeds [0, N) and exit")
	flag.Parse()

	if *record > 0 {
		if err := recordMine(*record); err != nil {
			fatal(err)
		}
		return
	}
	cfg := config{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1}
	if err := guard(cfg, *trace); err != nil {
		fatal(err)
	}
	wd, err := os.MkdirTemp(".bench_build", "pibench-")
	if err != nil {
		fatal(fmt.Errorf("work dir: %w", err))
	}
	cfg.workDir = wd
	defer os.RemoveAll(wd)

	stamp(cfg)
	res := newResult()
	gc0 := readGC()
	switch cfg.workload {
	case "mine":
		err = runMine(cfg, res)
	case "read":
		err = runRead(cfg, res)
	case "mixed":
		err = runMixed(cfg, res)
	}
	if err != nil {
		os.RemoveAll(wd)
		fatal(err)
	}
	gc1 := readGC()
	res.layer["runtime.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	res.layer["runtime.gc_cpu_frac"] = gc1.cpuFrac
	report(cfg, res)
	if len(res.failures) > 0 {
		os.RemoveAll(wd)
		os.Exit(1)
	}
}

// guard refuses runs whose load could not be generated honestly: more
// requests in flight, or more Go processors, than the machine has CPUs.
func guard(cfg config, trace int) error {
	switch cfg.workload {
	case "mine", "read", "mixed":
	default:
		return fmt.Errorf("unknown -workload %q (want mine, read or mixed)", cfg.workload)
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be positive, -trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", p, nproc)
	}
	if inflight > nproc {
		return fmt.Errorf("%d requests in flight exceed nproc %d", inflight, nproc)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

// stamp prints what a reader needs to compare two runs.
func stamp(cfg config) {
	commit := os.Getenv("PIBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("stamp go=%s GOMAXPROCS=%d nproc=%d commit=%s source=%s workload=%s seed=%d seconds=%d trace=%v inflight=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit, sourceHash(),
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, inflight)
	switch cfg.workload {
	case "read":
		fmt.Printf("stamp rates: open-loop %.0f reads/s (%d workers), closed loop %d clients, result/plan cache %d\n",
			readRate, inflight, inflight, cacheSize)
	case "mixed":
		fmt.Printf("stamp rates: writes %.2f/s on connection 1, reads %.0f/s on connection 2, then %d writes back to back; wal sync group commit %s on both shards; RF2, owner pinned\n",
			writeRate, mixedReadRate, len(writeCycle), walSync)
	}
}

// sourceHash identifies the program under test when the checkout is
// not a git repository: a digest of every Go source and module file
// outside the benchmark's own directory.
func sourceHash() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == "pibench" || p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

type gcState struct {
	cycles  uint32
	cpuFrac float64
}

func readGC() gcState {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcState{m.NumGC, m.GCCPUFraction}
}

// heapLiveMB forces a collection and returns the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable report, then the JSON result as the
// last line of standard output.
func report(cfg config, res *result) {
	for _, n := range res.notes {
		fmt.Println("note", n)
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	fmt.Printf("metric failed_frac %.6f ratio (%d of %d)\n", float64(res.failed)/float64(attempted), res.failed, attempted)
	for _, n := range res.names {
		fmt.Printf("metric %s %.4f %s (n=%d)\n", n.name, n.value, n.unit, n.n)
	}
	for _, d := range endToEnd {
		fmt.Printf("metric %s %.4f %s\n", d.name, res.e2e[d.name], d.unit)
	}
	if cfg.trace {
		for _, b := range res.budgets {
			b.print()
		}
		for _, d := range perLayer {
			fmt.Printf("layer %s %.4f %s\n", d.name, res.layer[d.name], d.unit)
		}
	}
	for _, f := range res.failures {
		fmt.Println("FAIL", f)
	}
	out := jsonResult{Correct: len(res.failures) == 0, Attempted: attempted, Failed: res.failed,
		Metrics: map[string]jsonMetric{}}
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
	}
	for _, d := range defs {
		out.Metrics[d.name] = jsonMetric{vals[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pibench:", err)
	os.Exit(1)
}
