package engine

import "strings"

// ColumnKind classifies one column of a ColumnarTable.
type ColumnKind int

const (
	// ColNum is a column whose every value is a canonical number or
	// NULL: stored as a []float64 with a validity mask.
	ColNum ColumnKind = iota
	// ColStr is a column whose every value is a canonical string or
	// NULL: dictionary-encoded as per-row codes into a deduplicated
	// dict, so predicates evaluate once per distinct value instead of
	// once per row.
	ColStr
	// ColMixed is anything else (booleans, mixed kinds, non-canonical
	// values): kept as boxed Values. Mixed columns can still be
	// projected and filtered through the generic per-row path, but the
	// typed kernels (group-by value ids, dictionary predicates) skip
	// them.
	ColMixed
)

// Column is one typed column vector of a ColumnarTable.
type Column struct {
	Kind ColumnKind

	// ColNum layout.
	Nums  []float64
	Nulls []bool // nil when the column has no NULLs

	// ColStr layout. Codes[i] indexes Dict; -1 encodes NULL.
	Codes []int32
	Dict  []string
	codes map[string]int32 // Dict inverse, kept for Derive's dictionary extension

	// ColMixed layout.
	Vals []Value
}

// ColumnarTable is a read-only columnar projection of a Table: typed
// column vectors the vectorized kernels (colexec.go) scan instead of
// walking [][]Value rows through the AST evaluator. BuildColumnar makes
// one from scratch; Derive makes the next data epoch's from the
// previous one in O(delta) for appends. Either way it is immutable
// once published, so it is safe to share across any number of
// concurrent executions — the same discipline as the epoch snapshots
// it is derived from.
type ColumnarTable struct {
	Name string
	Cols []string
	N    int // row count

	cols   []Column
	byName map[string]int // lowercased first-occurrence column name -> index
}

// ColumnarProvider is implemented by catalogs that can serve a cached
// columnar projection of a table (a *DB, or a store snapshot). The
// columnar executor only runs against catalogs that provide one —
// building the projection per query would cost more than it saves.
type ColumnarProvider interface {
	Columnar(name string) (*ColumnarTable, bool)
}

// IndexedCatalog is implemented by catalogs that maintain secondary
// indexes (store snapshots over the MVCC row store). IndexLookup
// returns the positions — ascending row indices into Table(table) —
// whose value in col satisfies SQL equality with key, or ok=false when
// no index covers the column (callers fall back to a vector scan).
// Implementations must agree exactly with Equal semantics, including
// cross-kind numeric coercion ("5" = 5).
type IndexedCatalog interface {
	IndexLookup(table, col string, key Value) ([]int32, bool)
}

// BuildColumnar converts a row-major table into its columnar
// projection. Classification is strict: a column is numeric only if
// every value is byte-identical to Num(v.Num) or Null(), and a string
// column only if every value is byte-identical to Str(v.Str) or
// Null(), so values the kernels reconstruct are provably identical to
// the originals. Anything else stays boxed (ColMixed).
func BuildColumnar(t *Table) *ColumnarTable {
	ct := &ColumnarTable{
		Name:   t.Name,
		Cols:   t.Cols,
		N:      len(t.Rows),
		cols:   make([]Column, len(t.Cols)),
		byName: make(map[string]int, len(t.Cols)),
	}
	for i, c := range t.Cols {
		key := strings.ToLower(c)
		if _, dup := ct.byName[key]; !dup {
			ct.byName[key] = i
		}
	}
	for ci := range t.Cols {
		ct.cols[ci] = buildColumn(t.Rows, ci)
	}
	return ct
}

func buildColumn(rows [][]Value, ci int) Column {
	allNum, allStr := true, true
	for _, r := range rows {
		v := r[ci]
		if v == (Value{Kind: KindNull}) {
			continue
		}
		if v != Num(v.Num) {
			allNum = false
		}
		if v != Str(v.Str) {
			allStr = false
		}
		if !allNum && !allStr {
			break
		}
	}
	switch {
	case allNum:
		col := Column{Kind: ColNum, Nums: make([]float64, len(rows))}
		for i, r := range rows {
			v := r[ci]
			if v.IsNull() {
				if col.Nulls == nil {
					col.Nulls = make([]bool, len(rows))
				}
				col.Nulls[i] = true
				continue
			}
			col.Nums[i] = v.Num
		}
		return col
	case allStr:
		col := Column{Kind: ColStr, Codes: make([]int32, len(rows)), codes: make(map[string]int32)}
		for i, r := range rows {
			v := r[ci]
			if v.IsNull() {
				col.Codes[i] = -1
				continue
			}
			col.Codes[i] = col.code(v.Str)
		}
		return col
	default:
		col := Column{Kind: ColMixed, Vals: make([]Value, len(rows))}
		for i, r := range rows {
			col.Vals[i] = r[ci]
		}
		return col
	}
}

// code returns s's dictionary code, appending s to the dictionary when
// it is new.
func (col *Column) code(s string) int32 {
	c, ok := col.codes[s]
	if !ok {
		c = int32(len(col.Dict))
		col.Dict = append(col.Dict, s)
		col.codes[s] = c
	}
	return c
}

// fits reports whether v can join the column without changing the
// kind BuildColumnar would have classified it as: canonical numbers
// (NaN excluded) in ColNum, canonical strings in ColStr, canonical
// NULLs in either, anything in ColMixed.
func (col *Column) fits(v Value) bool {
	switch {
	case col.Kind == ColMixed || v == (Value{Kind: KindNull}):
		return true
	case col.Kind == ColNum:
		return v == Num(v.Num)
	default:
		return v == Str(v.Str)
	}
}

// Derive returns the projection of the table whose rows are ct's rows
// minus the positions in drop (ascending), followed by added — the
// epoch-to-epoch step of a versioned store, so a new data epoch never
// pays a full BuildColumnar. Old dictionary entries keep their codes
// (no value is re-boxed, re-classified or re-hashed); kept runs are
// copied, or, for a pure append (empty drop), the vectors are extended
// past ct.N in place, sharing ct's backing arrays. ct stays valid for
// its readers, who never look past ct.N, but must not be derived from
// again. ok=false, with ct untouched, when an added value would change
// a column's kind (a string into a numeric column, NaN, a boolean):
// the caller rebuilds with BuildColumnar.
func (ct *ColumnarTable) Derive(drop []int32, added [][]Value) (*ColumnarTable, bool) {
	for _, r := range added {
		for ci := range ct.cols {
			if !ct.cols[ci].fits(r[ci]) {
				return nil, false
			}
		}
	}
	n := ct.N - len(drop) + len(added)
	out := &ColumnarTable{Name: ct.Name, Cols: ct.Cols, N: n, cols: make([]Column, len(ct.cols)), byName: ct.byName}
	for ci := range ct.cols {
		src := &ct.cols[ci]
		col := Column{Kind: src.Kind, Dict: src.Dict, codes: src.codes}
		switch src.Kind {
		case ColNum:
			col.Nums = keepRuns(src.Nums, drop, len(added))
			if src.Nulls != nil {
				col.Nulls = keepRuns(src.Nulls, drop, len(added))
			}
			for _, r := range added {
				if r[ci].Kind == KindNull {
					if col.Nulls == nil {
						col.Nulls = make([]bool, len(col.Nums), n)
					}
					col.Nums = append(col.Nums, 0)
					col.Nulls = append(col.Nulls, true)
					continue
				}
				col.Nums = append(col.Nums, r[ci].Num)
				if col.Nulls != nil {
					col.Nulls = append(col.Nulls, false)
				}
			}
		case ColStr:
			col.Codes = keepRuns(src.Codes, drop, len(added))
			for _, r := range added {
				c := int32(-1)
				if r[ci].Kind != KindNull {
					c = col.code(r[ci].Str)
				}
				col.Codes = append(col.Codes, c)
			}
		default:
			col.Vals = keepRuns(src.Vals, drop, len(added))
			for _, r := range added {
				col.Vals = append(col.Vals, r[ci])
			}
		}
		out.cols[ci] = col
	}
	return out, true
}

// keepRuns returns src without the positions in drop (ascending), with
// room for extra more elements plus an eighth of slack, so the appends
// that follow a mutation extend in place too. An empty drop returns
// src itself, so appends extend its backing array in place.
func keepRuns[T any](src []T, drop []int32, extra int) []T {
	if len(drop) == 0 {
		return src
	}
	n := len(src) - len(drop)
	out := make([]T, 0, n+extra+n/8)
	prev := 0
	for _, d := range drop {
		out = append(out, src[prev:d]...)
		prev = int(d) + 1
	}
	return append(out, src[prev:]...)
}

// Column returns the column vector at position ci. Callers must treat
// it as read-only.
func (ct *ColumnarTable) Column(ci int) *Column { return &ct.cols[ci] }

// colIndexOf resolves a column name (case-insensitive, first
// occurrence wins — the same rule the row-at-a-time binding lookup
// applies) to its position, or -1.
func (ct *ColumnarTable) colIndexOf(name string) int {
	if i, ok := ct.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// valueAt reconstructs the Value at (column ci, row i). For ColNum and
// ColStr columns the reconstruction is byte-identical to the original
// by the strict classification in BuildColumnar.
func (ct *ColumnarTable) valueAt(ci int, i int32) Value {
	col := &ct.cols[ci]
	switch col.Kind {
	case ColNum:
		if col.Nulls != nil && col.Nulls[i] {
			return Null()
		}
		return Num(col.Nums[i])
	case ColStr:
		code := col.Codes[i]
		if code < 0 {
			return Null()
		}
		return Str(col.Dict[code])
	default:
		return col.Vals[i]
	}
}
