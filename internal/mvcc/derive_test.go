package mvcc_test

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

var deriveSeed = flag.Int64("derive.seed", 0, "run TestDerivedReadStructuresMatchRebuild for this seed only")

// TestDerivedReadStructuresMatchRebuild is the differential property
// test for epoch derivation: seeded random sequences of appends,
// UPDATEs, DELETEs and Compacts over a store table, with adversarial
// values (NULL into a column that had none, NaN, "5" next to 5,
// booleans, new dictionary strings, a string into a numeric column).
// After every publish the snapshot must agree with a from-scratch
// rebuild three ways: every cell of its (derived or lazily built)
// projection equals engine.BuildColumnar over its rows; every index
// lookup equals a scan; and ExecColumnar equals Exec for a star, a
// filter, grouped count/sum and min/max shapes. The previous snapshot
// is re-checked too, since appends extend the arrays it shares. A
// failure names its seed; -derive.seed=N reruns just that sequence.
func TestDerivedReadStructuresMatchRebuild(t *testing.T) {
	builds := obs.Default.CounterVec("pi_columnar_builds_total", "", "kind")
	full0, derived0 := builds.With("full").Value(), builds.With("derived").Value()
	seeds := make([]int64, 40)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *deriveSeed != 0 {
		seeds = []int64{*deriveSeed}
	}
	ran := 0
	for _, seed := range seeds {
		ran += runDeriveSeed(t, seed)
		if t.Failed() {
			return
		}
	}
	if ran == 0 {
		t.Fatal("no query ever ran on the columnar path")
	}
	if *deriveSeed == 0 && (builds.With("derived").Value() == derived0 || builds.With("full").Value() == full0) {
		t.Fatalf("sequences never exercised both paths: full +%d, derived +%d",
			builds.With("full").Value()-full0, builds.With("derived").Value()-derived0)
	}
}

var deriveCols = []string{"k", "s", "x"}

// deriveGen draws cell values: mostly each column's canonical kind,
// and with probability bad one of the adversarial values.
type deriveGen struct {
	r     *rand.Rand
	bad   float64
	fresh int
}

func (g *deriveGen) cell(ci int) engine.Value {
	if g.r.Float64() < g.bad {
		switch g.r.Intn(8) {
		case 0:
			return engine.Null()
		case 1:
			return engine.Num(math.NaN())
		case 2:
			return engine.Str("5")
		case 3:
			return engine.Num(5)
		case 4:
			return engine.Boolean(g.r.Intn(2) == 0)
		case 5:
			g.fresh++
			return engine.Str(fmt.Sprintf("new%d", g.fresh))
		case 6:
			return engine.Str("NaN")
		default:
			return engine.Str("zz")
		}
	}
	switch ci {
	case 0:
		return engine.Num(float64(g.r.Intn(6)))
	case 1:
		return engine.Str([]string{"a", "b", "c", "d"}[g.r.Intn(4)])
	default:
		return engine.Num(float64(g.r.Intn(100)) / 4)
	}
}

func (g *deriveGen) row() []engine.Value {
	out := make([]engine.Value, len(deriveCols))
	for ci := range out {
		out[ci] = g.cell(ci)
	}
	return out
}

func runDeriveSeed(t *testing.T, seed int64) (ran int) {
	r := rand.New(rand.NewSource(seed))
	g := &deriveGen{r: r, bad: r.Float64() * 0.12}
	tab := engine.NewTable("t", deriveCols...)
	for i := 0; i < 20; i++ {
		g0 := deriveGen{r: r} // canonical seed rows
		tab.MustAddRow(g0.row()...)
	}
	db := engine.NewDB()
	db.AddTable(tab)
	st := store.FromDB(db)
	for _, c := range deriveCols {
		st.EnableIndex("t", c)
	}

	fail := func(step int, op, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d (%s): %s\nreproduce: go test ./internal/mvcc -run TestDerivedReadStructuresMatchRebuild -derive.seed=%d",
			seed, step, op, fmt.Sprintf(format, args...), seed)
	}
	prev := st.Snapshot()
	ran += checkSnapshot(t, prev, r, func(f string, a ...any) { fail(0, "seed", f, a...) })
	for step := 1; step <= 80 && !t.Failed(); step++ {
		ids, _ := prev.RowIDs("t")
		pick := func() uint64 { return ids[r.Intn(len(ids))] }
		var op string
		var err error
		switch n := r.Intn(10); {
		case n < 4 || len(ids) < 6:
			rows := make([][]engine.Value, 1+r.Intn(4))
			for i := range rows {
				rows[i] = g.row()
			}
			op = fmt.Sprintf("append %v", rows)
			_, err = st.AppendRows("t", rows)
		case n < 6:
			ups := make([]store.RowUpdate, 1+r.Intn(3))
			for i := range ups {
				ups[i] = store.RowUpdate{RowID: pick(), Vals: g.row()}
			}
			op = fmt.Sprintf("update %v", ups)
			_, err = st.MutateRows("t", ups, nil)
		case n < 8:
			dels := []uint64{pick()}
			if r.Intn(2) == 0 {
				if d := pick(); d != dels[0] {
					dels = append(dels, d)
				}
			}
			op = fmt.Sprintf("delete %v", dels)
			_, err = st.MutateRows("t", nil, dels)
		case n < 9:
			// Update a row and delete it in the same set, next to a
			// plain update: the replacement version is born retired.
			id, other := pick(), pick()
			ups := []store.RowUpdate{{RowID: id, Vals: g.row()}}
			if other != id {
				ups = append(ups, store.RowUpdate{RowID: other, Vals: g.row()})
			}
			op = fmt.Sprintf("update+delete %v / %d", ups, id)
			_, err = st.MutateRows("t", ups, []uint64{id})
		default:
			op = "compact"
			st.Compact()
			continue // not a publish
		}
		if err != nil {
			fail(step, op, "write: %v", err)
			return ran
		}
		cur := st.Snapshot()
		ran += checkSnapshot(t, cur, r, func(f string, a ...any) { fail(step, op, f, a...) })
		checkCells(prev, func(f string, a ...any) { fail(step, op, "previous snapshot: "+f, a...) })
		prev = cur
	}
	return ran
}

func sameValue(a, b engine.Value) bool {
	return a.Kind == b.Kind && math.Float64bits(a.Num) == math.Float64bits(b.Num) && a.Str == b.Str && a.Bool == b.Bool
}

// cellOf reconstructs one cell from a projection's typed vectors.
func cellOf(ct *engine.ColumnarTable, ci, i int) engine.Value {
	col := ct.Column(ci)
	switch col.Kind {
	case engine.ColNum:
		if col.Nulls != nil && col.Nulls[i] {
			return engine.Null()
		}
		return engine.Num(col.Nums[i])
	case engine.ColStr:
		if col.Codes[i] < 0 {
			return engine.Null()
		}
		return engine.Str(col.Dict[col.Codes[i]])
	default:
		return col.Vals[i]
	}
}

// checkCells: the snapshot's projection reconstructs every cell equal
// to a from-scratch BuildColumnar over its rows, and to the rows.
func checkCells(snap *store.View, fail func(string, ...any)) {
	tab, _ := snap.Table("t")
	ct, _ := snap.Columnar("t")
	ref := engine.BuildColumnar(tab)
	if ct.N != len(tab.Rows) || ref.N != ct.N {
		fail("projection has %d rows, rebuild %d, table %d", ct.N, ref.N, len(tab.Rows))
		return
	}
	for i, row := range tab.Rows {
		for ci := range deriveCols {
			got, want := cellOf(ct, ci, i), cellOf(ref, ci, i)
			if !sameValue(got, want) || !sameValue(want, row[ci]) {
				fail("cell (%d, %s): projection %#v, rebuild %#v, row %#v", i, deriveCols[ci], got, want, row[ci])
				return
			}
		}
	}
}

// isNaNCell reports whether v coerces to a NaN number — equal to every
// number under engine.Equal, which no index can serve.
func isNaNCell(v engine.Value) bool {
	f, ok := v.AsNumber()
	return ok && f != f
}

func checkSnapshot(t *testing.T, snap *store.View, r *rand.Rand, fail func(string, ...any)) (ran int) {
	t.Helper()
	checkCells(snap, fail)
	if t.Failed() {
		return 0
	}
	tab, _ := snap.Table("t")

	// Index lookups equal a scan for every key present plus probes.
	probes := []engine.Value{engine.Num(5), engine.Str("5"), engine.Boolean(true), engine.Str("zz"),
		engine.Null(), engine.Num(math.NaN()), engine.Str("a"), engine.Num(2.25)}
	for ci, col := range deriveCols {
		keys := append([]engine.Value(nil), probes...)
		nanVisible := false
		for _, row := range tab.Rows {
			keys = append(keys, row[ci])
			nanVisible = nanVisible || isNaNCell(row[ci])
		}
		for _, key := range keys {
			var want []int32
			for i, row := range tab.Rows {
				if engine.Equal(row[ci], key) {
					want = append(want, int32(i))
				}
			}
			got, ok := snap.IndexLookup("t", col, key)
			if !ok {
				if _, num := key.AsNumber(); isNaNCell(key) || (num && nanVisible) {
					continue // legitimately left to the scan kernels
				}
				fail("lookup %s = %#v declined", col, key)
				return ran
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail("lookup %s = %#v: index %v, scan %v", col, key, got, want)
				return ran
			}
		}
	}

	// ExecColumnar ≡ Exec on the snapshot.
	k := r.Intn(6)
	s := []string{"a", "b", "c", "d", "zz"}[r.Intn(5)]
	for _, sql := range []string{
		"SELECT * FROM t",
		fmt.Sprintf("SELECT k, s, x FROM t WHERE k = %d AND x > %d", k, r.Intn(25)),
		"SELECT s, count(*), sum(x) FROM t GROUP BY s",
		fmt.Sprintf("SELECT k, count(x), sum(k) FROM t WHERE s = '%s' GROUP BY k", s),
		fmt.Sprintf("SELECT min(x), max(x), min(s), max(k) FROM t WHERE k = %d", k),
	} {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan, ok := engine.CompileColumnar(q)
		if !ok {
			t.Fatalf("%s does not compile to a columnar plan", sql)
		}
		col, didRun, colErr := engine.ExecColumnar(snap, plan)
		if !didRun {
			continue
		}
		ran++
		row, rowErr := engine.Exec(snap, q)
		if fmt.Sprint(colErr) != fmt.Sprint(rowErr) {
			fail("%s: columnar error %v, row error %v", sql, colErr, rowErr)
			return ran
		}
		if colErr != nil {
			continue
		}
		if fmt.Sprint(col.Cols) != fmt.Sprint(row.Cols) || len(col.Rows) != len(row.Rows) {
			fail("%s: columnar %v x %d rows, row path %v x %d rows", sql, col.Cols, len(col.Rows), row.Cols, len(row.Rows))
			return ran
		}
		for i := range row.Rows {
			for j := range row.Rows[i] {
				if !sameValue(col.Rows[i][j], row.Rows[i][j]) {
					fail("%s: row %d col %d: columnar %#v, row path %#v", sql, i, j, col.Rows[i][j], row.Rows[i][j])
					return ran
				}
			}
		}
	}
	return ran
}
