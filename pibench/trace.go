package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/treediff"
)

// span is one timed interval at a layer boundary. Spans of one request
// share the trace id the client sent as Pi-Trace-Id; spans recorded on
// hops that do not forward the id (routed writes, replication pushes,
// journal appends) carry an empty trace and are attached to the write
// that contains them when the trace is analysed.
type span struct {
	trace string
	layer string // seam name, e.g. "server.http", "api.query", "wal.journal"
	op    string // operation kind: query, rows, mutate, log, apply, ...
	start time.Time
	end   time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs stay on the same code
// path without paying for span storage.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// opOfPath names the operation an HTTP request performs from its URL.
func opOfPath(p string) string {
	switch {
	case strings.HasSuffix(p, "/query"):
		return "query"
	case strings.HasSuffix(p, "/rows"):
		return "rows"
	case strings.HasSuffix(p, "/mutate"):
		return "mutate"
	case strings.HasSuffix(p, "/log"):
		return "log"
	case strings.HasSuffix(p, "/apply"):
		return "apply"
	}
	return "other"
}

// --- client side: a timing http.RoundTripper for pi/client.

// clientStats are the counts the timing transport keeps whether or not
// spans are recorded.
type clientStats struct {
	responses atomic.Int64
	gzipped   atomic.Int64
	bytes     atomic.Int64
}

type timingTransport struct {
	next  http.RoundTripper
	tr    *tracer
	stats *clientStats
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.tr.record(span{trace: req.Header.Get(obs.TraceHeader), layer: "client.roundtrip",
		op: opOfPath(req.URL.Path), start: start, end: time.Now()})
	if err != nil {
		return resp, err
	}
	t.stats.responses.Add(1)
	if resp.Uncompressed || resp.Header.Get("Content-Encoding") == "gzip" {
		t.stats.gzipped.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.stats.bytes}
	return resp, nil
}

// CloseIdleConnections forwards the optional method http.Client uses.
func (t *timingTransport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// --- server side: a timing http.Handler around a server's full
// middleware stack (the ResponseWriter passes through untouched).

type timingHandler struct {
	next  http.Handler
	layer string // "router.http" or "server.http"
	tr    *tracer
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	op := opOfPath(r.URL.Path)
	layer := h.layer
	if op == "apply" {
		layer = "replica.apply"
	}
	h.tr.record(span{trace: r.Header.Get(obs.TraceHeader), layer: layer, op: op, start: start, end: time.Now()})
}

// --- the api.Servicer seam: a decorator that times every call and
// forwards every optional interface the wrapped value implements.

type tracedSvc struct {
	api.Servicer
	prefix string // "router.api" or "api"
	tr     *tracer
}

func (s *tracedSvc) rec(trace, op string, start time.Time) {
	s.tr.record(span{trace: trace, layer: s.prefix + "." + op, op: op, start: start, end: time.Now()})
}

func (s *tracedSvc) Query(id string, req api.QueryRequest) (*api.QueryResponse, error) {
	defer s.rec("", "query", time.Now())
	return s.Servicer.Query(id, req)
}

func (s *tracedSvc) IngestLog(id string, entries []qlog.Entry, flush bool) (*api.IngestAck, error) {
	defer s.rec("", "log", time.Now())
	return s.Servicer.IngestLog(id, entries, flush)
}

func (s *tracedSvc) AppendRows(id string, req api.RowsRequest, flush bool) (*api.RowsAck, error) {
	defer s.rec("", "rows", time.Now())
	return s.Servicer.AppendRows(id, req, flush)
}

func (s *tracedSvc) MutateRows(id string, req api.MutateRequest) (*api.MutateAck, error) {
	defer s.rec("", "mutate", time.Now())
	return s.Servicer.MutateRows(id, req)
}

type queryIntoer interface {
	QueryInto(id string, req api.QueryRequest, resp *api.QueryResponse) error
}

// tracedCtxSvc adds the context-carrying query seam.
type tracedCtxSvc struct{ *tracedSvc }

func (s tracedCtxSvc) QueryIntoCtx(ctx context.Context, id string, req api.QueryRequest, resp *api.QueryResponse) error {
	defer s.rec(obs.TraceID(ctx), "query", time.Now())
	return s.Servicer.(api.CtxQuerier).QueryIntoCtx(ctx, id, req, resp)
}

// tracedIntoSvc adds the allocation-free QueryInto seam too.
type tracedIntoSvc struct{ tracedCtxSvc }

func (s tracedIntoSvc) QueryInto(id string, req api.QueryRequest, resp *api.QueryResponse) error {
	defer s.rec("", "query", time.Now())
	return s.Servicer.(queryIntoer).QueryInto(id, req, resp)
}

// traceServicer wraps svc when tracing is on; otherwise it returns svc
// itself, so untraced runs serve through exactly the production value.
func traceServicer(svc api.Servicer, prefix string, tr *tracer) api.Servicer {
	if tr == nil {
		return svc
	}
	base := &tracedSvc{Servicer: svc, prefix: prefix, tr: tr}
	_, ctxOK := svc.(api.CtxQuerier)
	_, intoOK := svc.(queryIntoer)
	switch {
	case ctxOK && intoOK:
		return tracedIntoSvc{tracedCtxSvc{base}}
	case ctxOK:
		return tracedCtxSvc{base}
	}
	return base
}

// --- the durability seam: a timing ingest.Journal installed over the
// persister.

type tracedJournal struct {
	next ingest.Journal
	tr   *tracer
}

func (j *tracedJournal) Append(id string, p ingest.Publication) error {
	start := time.Now()
	err := j.next.Append(id, p)
	j.tr.record(span{layer: "wal.journal", op: "journal", start: start, end: time.Now()})
	return err
}

// --- the mining seam: a timing interaction.Differ.

type timingDiffer struct {
	next interface {
		Compare(l, r *ast.Node) treediff.Result
		CompareLCA(l, r *ast.Node) treediff.Result
	}
	busy     time.Duration
	compares int
}

func (d *timingDiffer) Compare(l, r *ast.Node) treediff.Result {
	start := time.Now()
	res := d.next.Compare(l, r)
	d.busy += time.Since(start)
	d.compares++
	return res
}

func (d *timingDiffer) CompareLCA(l, r *ast.Node) treediff.Result {
	start := time.Now()
	res := d.next.CompareLCA(l, r)
	d.busy += time.Since(start)
	d.compares++
	return res
}

// plainDiffer calls treediff directly, like the miner's default.
type plainDiffer struct{}

func (plainDiffer) Compare(l, r *ast.Node) treediff.Result    { return treediff.Compare(l, r) }
func (plainDiffer) CompareLCA(l, r *ast.Node) treediff.Result { return treediff.CompareLCA(l, r) }

// --- analysis: nest spans into per-request trees and sum self time per
// layer for each root operation.

// breakdown is one request as the load generator saw it: the client
// call (layer "client.call") plus the time it waited for its slot, with
// the self time of every layer under it.
type breakdown struct {
	trace string
	op    string
	miss  bool               // the response reported a result-cache miss
	total float64            // ms, from the scheduled send time
	self  map[string]float64 // ms per layer, including "loadgen.wait"
}

// nest groups spans into requests by trace id, each sorted by start
// (the enclosing span first on ties), and returns the parent of every
// span within its group (-1 for a root).
//
// Hops that drop the trace id only happen inside writes, and at most one
// write is in flight: each such orphan joins the write call (a
// "client.call" span whose op is in writeOps) that contains it.
func nest(spans []span, writeOps map[string]bool) (byTrace map[string][]span, parents map[string][]int) {
	byTrace = map[string][]span{}
	var orphans []span
	for _, s := range spans {
		if s.trace == "" {
			orphans = append(orphans, s)
			continue
		}
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	type window struct {
		trace      string
		start, end time.Time
	}
	var writes []window
	for tr, ss := range byTrace {
		for _, s := range ss {
			if s.layer == "client.call" && writeOps[s.op] {
				writes = append(writes, window{tr, s.start, s.end})
			}
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].start.Before(writes[j].start) })
	for _, o := range orphans {
		i := sort.Search(len(writes), func(i int) bool { return writes[i].start.After(o.start) }) - 1
		if i >= 0 && !o.end.After(writes[i].end) {
			byTrace[writes[i].trace] = append(byTrace[writes[i].trace], o)
		}
	}
	parents = map[string][]int{}
	for tr, ss := range byTrace {
		sort.Slice(ss, func(i, j int) bool {
			if !ss[i].start.Equal(ss[j].start) {
				return ss[i].start.Before(ss[j].start)
			}
			return ss[i].end.After(ss[j].end)
		})
		// Each span's parent is the innermost open span that contains it.
		par := make([]int, len(ss))
		var stack []int
		for i, s := range ss {
			for len(stack) > 0 && !ss[stack[len(stack)-1]].end.After(s.start) {
				stack = stack[:len(stack)-1]
			}
			par[i] = -1
			if len(stack) > 0 {
				par[i] = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
		parents[tr] = par
	}
	return byTrace, parents
}

// analyse returns one breakdown per client call: the self time (own
// duration minus children) of every layer under it. waits maps a root's
// trace id to the open-loop wait charged to it.
func analyse(spans []span, waits map[string]time.Duration, writeOps map[string]bool) []breakdown {
	byTrace, parents := nest(spans, writeOps)
	var out []breakdown
	for tr, ss := range byTrace {
		if ss[0].layer != "client.call" {
			continue // spans of a request the load generator did not time
		}
		b := breakdown{trace: tr, op: ss[0].op, self: map[string]float64{}}
		b.total = ms(ss[0].dur() + waits[tr])
		b.self["loadgen.wait"] = ms(waits[tr])
		selfs := make([]time.Duration, len(ss))
		for i, s := range ss {
			selfs[i] += s.dur()
			if p := parents[tr][i]; p >= 0 {
				selfs[p] -= s.dur()
			}
		}
		for i, s := range ss {
			b.self[s.layer] += ms(selfs[i])
		}
		out = append(out, b)
	}
	return out
}

// spanRecord is one line of the span file a traced run writes.
type spanRecord struct {
	Trace   string `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // id of the enclosing span, -1 for a root
	Name    string `json:"name"`
	Op      string `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes every span of a traced run, one JSON object a line,
// to .bench_build/spans/<workload>-seed<seed>.jsonl in the checkout.
// Spans whose trace id was dropped and that no write contains are left
// out, as in the analysis.
func writeSpans(cfg config, res *result, spans []span, writeOps map[string]bool) {
	byTrace, parents := nest(spans, writeOps)
	traces := make([]string, 0, len(byTrace))
	for tr := range byTrace {
		traces = append(traces, tr)
	}
	sort.Strings(traces)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	n := 0
	for _, tr := range traces {
		base := n
		for i, s := range byTrace[tr] {
			parent := parents[tr][i]
			if parent >= 0 {
				parent += base
			}
			_ = enc.Encode(spanRecord{tr, n, parent, s.layer, s.op, s.start.UnixNano(), s.end.UnixNano()})
			n++
		}
	}
	dir := filepath.Join(".bench_build", "spans")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		res.note("spans not written: %v", err)
		return
	}
	res.note("spans: %d of %d recorded written to %s", n, len(spans), path)
}
