package mvcc

import (
	"math"
	"testing"

	"repro/internal/engine"
)

// lookupSet runs a Lookup and returns the positions as a plain slice,
// failing the test when the index refuses to serve the column.
func lookupSet(t *testing.T, v *View, col string, key engine.Value) []int32 {
	t.Helper()
	pos, ok := v.Lookup(col, key)
	if !ok {
		t.Fatalf("Lookup(%s, %v) not served", col, key)
	}
	return pos
}

// scanSet is the oracle: positions whose column satisfies SQL equality
// with key, by scanning the materialized rows the way the filter
// kernels would.
func scanSet(v *View, col int, key engine.Value) []int32 {
	var out []int32
	for i, row := range v.Table().Rows {
		if engine.Equal(row[col], key) {
			out = append(out, int32(i))
		}
	}
	return out
}

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexMatchesScanAcrossEpochs pins the epoch-chain guarantee the
// tentpole rests on: after interleaved appends, updates and deletes, a
// lookup at any published epoch returns exactly what a scan of that
// epoch's rows returns — the pinned view never sees post-pin entries,
// the head never misses them.
func TestIndexMatchesScanAcrossEpochs(t *testing.T) {
	wt := NewTable("t", []string{"k", "x"})
	if !wt.EnableIndex("k") {
		t.Fatal("EnableIndex(k) = false")
	}
	ids := wt.Append([][]engine.Value{
		{engine.Num(1), engine.Num(10)},
		{engine.Num(2), engine.Num(20)},
		{engine.Num(1), engine.Num(30)},
		{engine.Str("a"), engine.Num(40)},
	}, 1)
	v1 := wt.Publish(1)

	// Epoch 2: update row 0's key 1 -> 2, delete the string row.
	if err := wt.Mutate(
		[]Update{{RowID: ids[0], Vals: []engine.Value{engine.Num(2), engine.Num(10)}}},
		[]uint64{ids[3]}, 2); err != nil {
		t.Fatal(err)
	}
	v2 := wt.Publish(2)

	// Epoch 3: append more rows, one sharing key 2.
	wt.Append([][]engine.Value{
		{engine.Num(2), engine.Num(50)},
		{engine.Str("a"), engine.Num(60)},
	}, 3)
	v3 := wt.Publish(3)

	keys := []engine.Value{
		engine.Num(1), engine.Num(2), engine.Str("a"),
		engine.Str("2"), // numeric string: coerces, must hit key 2
		engine.Num(99),  // absent
	}
	for vi, v := range []*View{v1, v2, v3} {
		for _, key := range keys {
			got := lookupSet(t, v, "k", key)
			want := scanSet(v, 0, key)
			if !sameSet(got, want) {
				t.Errorf("epoch %d key %v: index %v, scan %v", vi+1, key, got, want)
			}
		}
	}

	// The pinned epoch-1 view still answers its original row set after
	// everything above: key 1 lives at two positions, the string row at
	// one.
	if got := lookupSet(t, v1, "k", engine.Num(1)); len(got) != 2 {
		t.Fatalf("pinned view key 1 positions = %v, want 2 entries", got)
	}
	if got := lookupSet(t, v1, "k", engine.Str("a")); len(got) != 1 {
		t.Fatalf("pinned view key a positions = %v, want 1 entry", got)
	}
	// And the head no longer serves the deleted string row's old
	// position but does serve the appended one.
	if got := lookupSet(t, v3, "k", engine.Str("a")); len(got) != 1 {
		t.Fatalf("head key a positions = %v, want the appended row only", got)
	}
}

// TestIndexUnindexableKeys: NULL keys are an empty (served) result,
// NaN keys fall back to the scan kernels, and NULL/NaN cell values
// never enter the sorted runs. A visible NaN cell equals every number
// under engine.Equal, so numeric lookups decline to the scan while one
// is visible and are served again once it is deleted.
func TestIndexUnindexableKeys(t *testing.T) {
	wt := NewTable("t", []string{"k"})
	wt.EnableIndex("k")
	ids := wt.Append([][]engine.Value{
		{engine.Null()},
		{engine.Num(math.NaN())},
		{engine.Num(5)},
		{engine.Str("a")},
	}, 1)
	v := wt.Publish(1)

	if pos, ok := v.Lookup("k", engine.Null()); !ok || len(pos) != 0 {
		t.Fatalf("NULL key: pos=%v ok=%v, want empty served result", pos, ok)
	}
	if _, ok := v.Lookup("k", engine.Num(math.NaN())); ok {
		t.Fatal("NaN key must not be served by the index")
	}
	if _, ok := v.Lookup("missing", engine.Num(1)); ok {
		t.Fatal("unindexed column must not be served")
	}
	if _, ok := v.Lookup("k", engine.Num(5)); ok {
		t.Fatalf("key 5 served while a NaN cell (equal to 5 under engine.Equal) is visible; scan = %v", scanSet(v, 0, engine.Num(5)))
	}
	if got := lookupSet(t, v, "k", engine.Str("a")); !sameSet(got, scanSet(v, 0, engine.Str("a"))) {
		t.Fatalf("key a positions = %v, want %v", got, scanSet(v, 0, engine.Str("a")))
	}

	if err := wt.Mutate(nil, []uint64{ids[1]}, 2); err != nil {
		t.Fatal(err)
	}
	v2 := wt.Publish(2)
	if got := lookupSet(t, v2, "k", engine.Num(5)); !sameSet(got, []int32{1}) {
		t.Fatalf("key 5 positions after deleting the NaN row = %v, want [1]", got)
	}
	if _, ok := v.Lookup("k", engine.Num(5)); ok {
		t.Fatal("the pinned epoch-1 view must keep declining: its NaN cell is still visible")
	}
}

// TestIndexMergeThreshold drives the tail past the merge threshold and
// checks (a) lookups stay correct across the fold and (b) a view
// snapshotted before the merge still answers from its own run.
func TestIndexMergeThreshold(t *testing.T) {
	wt := NewTable("t", []string{"k", "x"})
	wt.EnableIndex("k")
	wt.Append(numRows(10, 0), 1)
	early := wt.Publish(1)

	// Push well past the 64-entry tail threshold in several publishes.
	epoch := uint64(1)
	for b := 0; b < 5; b++ {
		epoch++
		wt.Append(numRows(40, float64(10+40*b)), epoch)
		wt.Publish(epoch)
	}
	head := wt.Publish(epoch)

	for _, k := range []float64{0, 9, 10, 57, 133, 209} {
		got := lookupSet(t, head, "k", engine.Num(k))
		want := scanSet(head, 0, engine.Num(k))
		if !sameSet(got, want) {
			t.Errorf("post-merge key %v: index %v, scan %v", k, got, want)
		}
	}
	// The pre-merge view still sees exactly its 10 rows.
	if got := lookupSet(t, early, "k", engine.Num(5)); !sameSet(got, []int32{5}) {
		t.Fatalf("pre-merge view key 5 = %v, want [5]", got)
	}
	if got := lookupSet(t, early, "k", engine.Num(57)); len(got) != 0 {
		t.Fatalf("pre-merge view sees post-pin key 57 at %v", got)
	}
}

// TestIndexCompactRebuild: compaction drops retired versions from the
// arena and rebuilds the index; head lookups stay exact and a pinned
// pre-compaction view keeps its own snapshot.
func TestIndexCompactRebuild(t *testing.T) {
	wt := NewTable("t", []string{"k", "x"})
	wt.EnableIndex("k")
	ids := wt.Append(numRows(8, 0), 1)
	v1 := wt.Publish(1)
	if err := wt.Mutate(
		[]Update{{RowID: ids[2], Vals: []engine.Value{engine.Num(100), engine.Num(2)}}},
		[]uint64{ids[5], ids[6]}, 2); err != nil {
		t.Fatal(err)
	}
	wt.Publish(2)
	if dropped := wt.Compact(); dropped != 3 {
		t.Fatalf("Compact dropped %d versions, want 3 (one superseded, two deleted)", dropped)
	}
	head := wt.Publish(3)

	for _, k := range []float64{0, 2, 5, 100} {
		got := lookupSet(t, head, "k", engine.Num(k))
		want := scanSet(head, 0, engine.Num(k))
		if !sameSet(got, want) {
			t.Errorf("post-compact key %v: index %v, scan %v", k, got, want)
		}
	}
	// v1 predates the compaction AND the mutation; its lookups answer
	// the original rows.
	if got := lookupSet(t, v1, "k", engine.Num(5)); !sameSet(got, []int32{5}) {
		t.Fatalf("pinned view key 5 = %v after compact, want [5]", got)
	}
}

// TestIndexedColsReporting: EnableIndex is idempotent, rejects unknown
// columns and reports lowercased names.
func TestIndexedColsReporting(t *testing.T) {
	wt := NewTable("t", []string{"Alpha", "Beta"})
	if wt.EnableIndex("nope") {
		t.Fatal("EnableIndex on a missing column returned true")
	}
	if !wt.EnableIndex("ALPHA") || !wt.EnableIndex("alpha") {
		t.Fatal("EnableIndex not case-insensitive/idempotent")
	}
	cols := wt.IndexedCols()
	if len(cols) != 1 || cols[0] != "alpha" {
		t.Fatalf("IndexedCols = %v, want [alpha]", cols)
	}
}
