package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/widgets"
	"repro/pi/client"
)

// cacheSize is the per-interface result/plan cache capacity the service
// runs with (pi-serve's default).
const cacheSize = api.DefaultCacheSize

// serverOptions mirror pi-serve's and pi-router's: text request log,
// the process metrics registry and a slow-query ring. Request-log lines
// are formatted and discarded, so the benchmark's output stays its own.
func serverOptions(ring *obs.SlowRing) []server.Option {
	return []server.Option{
		server.WithLogger(log.New(io.Discard, "", log.LstdFlags)),
		server.WithLogFormat(server.LogText),
		server.WithMetrics(obs.Default),
		server.WithSlowRing(ring),
	}
}

func newSlowRing() *obs.SlowRing { return obs.NewSlowRing(256, 250*time.Millisecond, 0) }

// listener is one HTTP server on a loopback port.
type listener struct {
	url string
	hs  *http.Server
	ln  net.Listener
}

func listen() (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &listener{url: "http://" + ln.Addr().String(), ln: ln}, nil
}

// serve starts serving h (wrapped in a timing handler when tracing) on
// the listener with the production server's timeouts.
func (l *listener) serve(s *server.Server, layer string, tr *tracer) {
	l.hs = s.HTTPServer("")
	if tr != nil {
		l.hs.Handler = &timingHandler{next: l.hs.Handler, layer: layer, tr: tr}
	}
	go func() { _ = l.hs.Serve(l.ln) }()
}

func (l *listener) close() {
	if l.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = l.hs.Shutdown(ctx)
	} else {
		l.ln.Close()
	}
}

// conn is one load-generator connection: a pi/client over its own
// transport, so each lane holds its own keep-alive connection.
type conn struct {
	c      *client.Client
	tr     *tracer
	stats  *clientStats
	transp *http.Transport
}

func newConn(base string, tr *tracer, conns int) (*conn, error) {
	transp := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	stats := &clientStats{}
	hc := &http.Client{Transport: &timingTransport{next: transp, tr: tr, stats: stats}}
	c, err := client.New(base, client.WithHTTPClient(hc), client.WithRetries(0))
	if err != nil {
		return nil, err
	}
	return &conn{c: c, tr: tr, stats: stats, transp: transp}, nil
}

func (c *conn) close() { c.transp.CloseIdleConnections() }

// call runs one client operation under a trace id and records its span.
func (c *conn) call(trace, op string, fn func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(obs.WithTrace(context.Background(), trace), 60*time.Second)
	defer cancel()
	start := time.Now()
	err := fn(ctx)
	c.tr.record(span{trace: trace, layer: "client.call", op: op, start: start, end: time.Now()})
	return err
}

// --- widget-state pools.

// pageRows is the page size every widget-state request asks for.
const pageRows = 100

// meanRows is the mean first-page row count of states.
func meanRows(states []state) float64 {
	n := 0
	for _, st := range states {
		n += st.rows
	}
	return ratio(float64(n), float64(len(states)))
}

// state is one validated widget state of one interface.
type state struct {
	id   string
	req  api.QueryRequest
	sql  string
	rows int // rows on the first page of its answer at set-up
}

// genStates draws widget states from the interface's mined domains:
// one to three widgets, each set to a domain value (an integer inside a
// slider's range, an option, or absent). A state is kept when it binds
// on every interface in ifaces, its bound SQL is new, and it executes on
// cat; the rest are dropped and counted.
func genStates(id string, ifaces []*core.Interface, cat engine.Catalog, r *rand.Rand, want int) ([]state, int, error) {
	iface := ifaces[0]
	if len(iface.Widgets) == 0 {
		return nil, 0, fmt.Errorf("%s: mined interface has no widgets", id)
	}
	seen := map[string]bool{}
	var out []state
	dropped := 0
	for tries := 0; len(out) < want && tries < want*20; tries++ {
		k := 1 + r.Intn(min(3, len(iface.Widgets)))
		var bs []api.WidgetBinding
		for _, wi := range r.Perm(len(iface.Widgets))[:k] {
			bs = append(bs, bindingFor(iface.Widgets[wi].Widget.Path.String(), iface.Widgets[wi].Domain, r))
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].Path < bs[j].Path })
		q, err := api.Bind(iface, bs)
		if err != nil {
			dropped++
			continue
		}
		sql := ast.SQL(q)
		if seen[sql] {
			continue
		}
		seen[sql] = true
		ok := true
		for _, other := range ifaces[1:] {
			if q2, err := api.Bind(other, bs); err != nil || ast.SQL(q2) != sql {
				ok = false
				break
			}
		}
		var t *engine.Table
		if ok {
			if t, err = execFast(cat, q); err != nil {
				ok = false
			}
		}
		if !ok {
			dropped++
			continue
		}
		out = append(out, state{id: id, req: api.QueryRequest{Widgets: bs, Limit: pageRows}, sql: sql, rows: min(t.NumRows(), pageRows)})
	}
	if len(out) == 0 {
		return nil, dropped, fmt.Errorf("%s: no widget state binds and executes", id)
	}
	return out, dropped, nil
}

func bindingFor(path string, d *widgets.Domain, r *rand.Rand) api.WidgetBinding {
	b := api.WidgetBinding{Path: path}
	if d.IsNumericRange() {
		lo, hi := d.Range()
		v := lo + float64(r.Intn(int(hi-lo)+1))
		b.Number = &v
		return b
	}
	vals := d.Values()
	v := vals[r.Intn(len(vals))]
	if v == nil {
		b.Absent = true
	} else {
		b.Value = v
	}
	return b
}

// execFast runs a bound query the way the service would: columnar when
// it compiles, the row interpreter otherwise.
func execFast(cat engine.Catalog, q *ast.Node) (*engine.Table, error) {
	if col, ok := engine.CompileColumnar(q); ok {
		if res, ran, err := engine.ExecColumnar(cat, col); ran {
			return res, err
		}
	}
	return engine.Exec(cat, q)
}

// engineSample re-executes each state's bound query outside the request
// path — CompileColumnar, then ExecColumnar or the row interpreter — and
// returns the columnar and row execution times.
func engineSample(states []state, lookup func(id string) (*core.Interface, engine.Catalog)) (col, row samples) {
	for _, st := range states {
		iface, cat := lookup(st.id)
		q, err := api.Bind(iface, st.req.Widgets)
		if err != nil {
			continue
		}
		t0 := time.Now()
		if cp, ok := engine.CompileColumnar(q); ok {
			if _, ran, _ := engine.ExecColumnar(cat, cp); ran {
				col.add(time.Since(t0))
				continue
			}
		}
		t0 = time.Now()
		_, _ = engine.Exec(cat, q)
		row.add(time.Since(t0))
	}
	return col, row
}

// --- response checks.

// sample is a served response kept for the row-path re-execution check.
type sample struct {
	st   state
	resp *api.QueryResponse
}

// verifyRowPath re-executes each sampled state's bound SQL on the row
// interpreter against cat and compares the first page and row count.
func verifyRowPath(res *result, ifaceOf func(id string) *core.Interface, catOf func(id string) engine.Catalog, ss []sample) {
	for _, s := range ss {
		q, err := api.Bind(ifaceOf(s.st.id), s.st.req.Widgets)
		if err != nil {
			res.check(false, "%s: sampled state no longer binds: %v", s.st.id, err)
			continue
		}
		want, err := engine.Exec(catOf(s.st.id), q)
		if err != nil {
			res.check(false, "%s: row path failed on %s: %v", s.st.id, s.st.sql, err)
			continue
		}
		res.check(s.resp.SQL == ast.SQL(q), "%s: served SQL %q, bound SQL %q", s.st.id, s.resp.SQL, ast.SQL(q))
		res.check(s.resp.RowCount == len(want.Rows), "%s: served %d rows, row path %d for %s", s.st.id, s.resp.RowCount, len(want.Rows), s.st.sql)
		hi := min(len(want.Rows), s.resp.Offset+len(s.resp.Rows))
		res.check(canonJSON(s.resp.Rows) == canonJSON(rowValues(want, s.resp.Offset, hi)),
			"%s: served rows differ from the row path for %s", s.st.id, s.st.sql)
	}
}

func rowValues(t *engine.Table, lo, hi int) [][]any {
	out := make([][]any, 0, hi-lo)
	for _, row := range t.Rows[lo:hi] {
		jr := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case engine.KindNumber:
				jr[j] = v.Num
			case engine.KindString:
				jr[j] = v.Str
			case engine.KindBool:
				jr[j] = v.Bool
			}
		}
		out = append(out, jr)
	}
	return out
}

// canonJSON renders rows through a JSON round trip, so values decoded
// by the client and values converted here compare alike.
func canonJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "!" + err.Error()
	}
	var back any
	if err := json.Unmarshal(b, &back); err != nil {
		return "!" + err.Error()
	}
	b, _ = json.Marshal(back)
	return string(b)
}
