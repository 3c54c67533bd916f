// Package mvcc is the versioned row storage under internal/store: every
// row of a table is a chain of RowVersions carrying (rowid,
// begin-epoch, end-epoch) visibility metadata, so a snapshot taken at
// data epoch E sees exactly the rows that were live at E. Appends,
// updates and deletes all publish in O(rows-touched) — an UPDATE or
// DELETE retires the old version by stamping its end epoch and (for
// updates) appends a replacement version, never rewriting the table —
// while readers pinned to older epochs keep serving their exact row
// set race-free: Begin and Vals are immutable after append, and the
// end epoch moves exactly once, from "live" to an epoch strictly
// greater than any epoch a pinned reader filters by.
//
// The split mirrors internal/store's reader/writer discipline:
//
//   - Table is the writer-side state (version arena, live-row index,
//     rowid allocator). All its methods are called with the store's
//     writer lock held.
//   - View is the immutable per-epoch read handle the store publishes.
//     Its read structures — the flattened visible rows as a plain
//     *engine.Table, the arena-slot → row-position map behind index
//     lookups, and the columnar projection — are built lazily once
//     per view on a cold start, and from then on Publish derives each
//     new view's structures from the previous view's: O(delta) for
//     appends, one typed pass for updates and deletes. The query
//     engine keeps executing against ordinary tables and the
//     epoch-keyed result caches above stay correct by construction.
package mvcc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// RowVersion is one immutable version of one row. Begin, RowID and
// Vals never change after the version is appended; end is stamped at
// most once (zero means "still live") with an epoch strictly greater
// than the begin epoch, which is what makes concurrent visibility
// checks against old epochs race-free.
type RowVersion struct {
	RowID uint64         // stable row identity across versions
	Begin uint64         // first epoch this version is visible at
	Vals  []engine.Value // the row payload; immutable

	end atomic.Uint64 // 0 = live; otherwise first epoch NOT visible at
}

// End returns the retirement epoch (0 while live).
func (rv *RowVersion) End() uint64 { return rv.end.Load() }

// Live reports whether the version has not been retired.
func (rv *RowVersion) Live() bool { return rv.end.Load() == 0 }

// VisibleAt reports whether the version is part of the row set at
// epoch e: born at or before e, and not retired at or before e.
func (rv *RowVersion) VisibleAt(e uint64) bool {
	if rv.Begin > e {
		return false
	}
	end := rv.end.Load()
	return end == 0 || end > e
}

// retire stamps the end epoch. Called only by the writer (under the
// store lock), and only once per version.
func (rv *RowVersion) retire(epoch uint64) { rv.end.Store(epoch) }

// Update is one row replacement in a mutation set: the row identified
// by RowID gets a new version holding Vals.
type Update struct {
	RowID uint64
	Vals  []engine.Value
}

// Table is the writer-side versioned table. Every method is called
// with the owning store's writer lock held; readers never touch a
// Table — they hold Views.
type Table struct {
	Name string
	Cols []string

	versions []*RowVersion        // the arena, in append order
	live     map[uint64]int32     // rowid -> arena slot of its current live version
	retired  []int32              // arena slots retired since the last publish
	nextID   uint64               // next rowid to assign
	mutGen   uint64               // bumped by every Mutate publish
	head     *View                // most recently published view; nil after a Compact
	indexes  map[string]*colIndex // secondary indexes (index.go), keyed by lowercased column
}

// NewTable returns an empty writer table. RowIDs start at 1.
func NewTable(name string, cols []string) *Table {
	return &Table{Name: name, Cols: cols, live: map[uint64]int32{}, nextID: 1}
}

// push appends one version to the arena as the live version of its
// rowid and indexes it.
func (t *Table) push(rv *RowVersion) {
	slot := int32(len(t.versions))
	t.versions = append(t.versions, rv)
	t.live[rv.RowID] = slot
	t.indexAdd(rv, slot)
}

// Seed returns a writer table pre-populated with rows that are all
// live from epoch `begin` on, carrying the given rowids — the restore
// path, where identity must round-trip so replicated mutations keep
// applying after a crash. ids may be nil (fresh sequential ids are
// assigned); nextID/mutGen of zero derive sane defaults.
func Seed(name string, cols []string, rows [][]engine.Value, ids []uint64, nextID, mutGen, begin uint64) (*Table, error) {
	t := NewTable(name, cols)
	if ids != nil && len(ids) != len(rows) {
		return nil, fmt.Errorf("mvcc: table %q: %d rows but %d rowids", name, len(rows), len(ids))
	}
	var maxID uint64
	for i, r := range rows {
		id := uint64(i) + 1
		if ids != nil {
			id = ids[i]
		}
		if id > maxID {
			maxID = id
		}
		if _, dup := t.live[id]; dup {
			return nil, fmt.Errorf("mvcc: table %q: duplicate rowid %d", name, id)
		}
		t.push(&RowVersion{RowID: id, Begin: begin, Vals: r})
	}
	t.nextID = maxID + 1
	if nextID > t.nextID {
		t.nextID = nextID
	}
	t.mutGen = mutGen
	return t, nil
}

// NextID returns the next rowid the table would assign.
func (t *Table) NextID() uint64 { return t.nextID }

// MutGen returns the mutation generation: how many Mutate publishes
// the table has absorbed. The differential-snapshot cutter compares it
// against the last save to decide whether a tail-append delta is still
// sound.
func (t *Table) MutGen() uint64 { return t.mutGen }

// LiveCount returns the number of live rows (without materializing).
func (t *Table) LiveCount() int { return len(t.live) }

// VersionCount returns the arena length, live and retired versions
// both — Compact shrinks it.
func (t *Table) VersionCount() int { return len(t.versions) }

// Append adds rows as new live versions beginning at epoch, assigning
// sequential rowids, and returns the assigned ids. RowIDs are assigned
// in row order, so the owner, its followers and the restore path all
// converge on the same identities from the same publication stream.
func (t *Table) Append(rows [][]engine.Value, epoch uint64) []uint64 {
	ids := make([]uint64, len(rows))
	for i, r := range rows {
		id := t.nextID
		t.nextID++
		t.push(&RowVersion{RowID: id, Begin: epoch, Vals: r})
		ids[i] = id
	}
	return ids
}

// Mutate applies one mutation set at epoch: every update retires the
// row's current version and appends a replacement (same rowid, new
// begin), every delete just retires. Cost is O(rows touched) — the
// arena and the untouched rows are never copied. A rowid that has no
// live version is an error (on the owner that's a caller bug; on a
// follower it means the copy diverged), and nothing is applied
// partially: validation runs before the first retire.
func (t *Table) Mutate(updates []Update, deletes []uint64, epoch uint64) error {
	for _, u := range updates {
		if _, ok := t.live[u.RowID]; !ok {
			return fmt.Errorf("mvcc: table %q: update of unknown rowid %d", t.Name, u.RowID)
		}
		if len(u.Vals) != len(t.Cols) {
			return fmt.Errorf("mvcc: table %q has %d columns, update of rowid %d has %d",
				t.Name, len(t.Cols), u.RowID, len(u.Vals))
		}
	}
	for _, id := range deletes {
		if _, ok := t.live[id]; !ok {
			return fmt.Errorf("mvcc: table %q: delete of unknown rowid %d", t.Name, id)
		}
	}
	for _, u := range updates {
		t.retire(t.live[u.RowID], epoch)
		t.push(&RowVersion{RowID: u.RowID, Begin: epoch, Vals: u.Vals})
	}
	for _, id := range deletes {
		t.retire(t.live[id], epoch)
		delete(t.live, id)
	}
	t.mutGen++
	return nil
}

// retire stamps the version in slot as ending at epoch and records
// the slot for the next publish's derivation.
func (t *Table) retire(slot int32, epoch uint64) {
	t.versions[slot].retire(epoch)
	t.retired = append(t.retired, slot)
}

// Publish caps the arena at its current length and returns the
// immutable view of the table at epoch. Every read structure the
// previous head has built is derived for the new view here, under the
// writer lock, instead of being left as a lazy O(table) rebuild for
// the next reader: a pure append extends the head's rows, positions
// and column vectors in O(batch), sharing their backing arrays; an
// UPDATE or DELETE copies their kept runs once and appends the new
// versions. After a Compact there is no head to derive from, and a
// value that breaks a column's kind leaves the projection to the lazy
// engine.BuildColumnar.
func (t *Table) Publish(epoch uint64) *View {
	v := &View{
		name:     t.Name,
		cols:     t.Cols,
		epoch:    epoch,
		versions: t.versions[:len(t.versions):len(t.versions)],
		indexes:  t.snapIndexes(),
	}
	if t.head != nil {
		t.derive(t.head, v)
	}
	t.retired = t.retired[:0]
	t.head = v
	return v
}

// derive precomputes v's materialization and columnar projection from
// the head h's, for each one h has built. The delta is the arena slots
// added since h (kept when visible at v's epoch) and the slots retired
// since h (dropped at their position in h).
func (t *Table) derive(h, v *View) {
	hm := h.mat.Load()
	if hm == nil {
		return // the projection is built from the materialization, so neither exists
	}
	base := len(h.versions)
	var drop []int32
	for _, s := range t.retired {
		if int(s) < base && hm.pos[s] >= 0 {
			drop = append(drop, hm.pos[s])
		}
	}
	slices.Sort(drop)

	ids := keepRuns(hm.ids, drop, len(v.versions)-base)
	rows := keepRuns(hm.tab.Rows, drop, len(v.versions)-base)
	pos := hm.pos
	if len(drop) > 0 {
		pos = make([]int32, base, len(v.versions)+len(v.versions)/8)
		d := 0
		for s, p := range hm.pos {
			if p >= 0 {
				for d < len(drop) && drop[d] < p {
					d++
				}
				if d < len(drop) && drop[d] == p {
					p = -1
				} else {
					p -= int32(d)
				}
			}
			pos[s] = p
		}
	}
	kept := len(rows)
	for _, rv := range v.versions[base:] {
		if !rv.VisibleAt(v.epoch) {
			pos = append(pos, -1)
			continue
		}
		pos = append(pos, int32(len(rows)))
		rows = append(rows, rv.Vals)
		ids = append(ids, rv.RowID)
	}
	v.mat.Store(&matState{tab: &engine.Table{Name: t.Name, Cols: t.Cols, Rows: rows}, ids: ids, pos: pos})

	if hc := h.col.Load(); hc != nil {
		if c, ok := hc.Derive(drop, rows[kept:]); ok {
			v.col.Store(c)
			mxColDerived.Inc()
		}
	}
}

// keepRuns returns src without the positions in drop (ascending), with
// room for extra more elements plus an eighth of slack, so the appends
// that follow a mutation extend in place too. An empty drop returns
// src itself, so appends extend its backing array past the head's length.
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

// Compact folds fully-superseded versions out of the arena: a fresh
// versions slice keeps only the live versions (same *RowVersion
// structs — retirement stamps already written stay visible to old
// views, which hold their own slice of the old arena). Relative order
// of live rows is preserved, so the visible row order of the head
// epoch is unchanged and persistence captures are byte-identical
// before and after. No epoch or mutation-generation bump: compaction
// is pure memory reclamation, invisible to readers and replicas. It
// renumbers the arena slots, so the next publish has no head to derive
// its read structures from and builds them lazily instead.
// Returns how many retired versions were dropped.
func (t *Table) Compact() int {
	if len(t.versions) == len(t.live) {
		return 0
	}
	kept := make([]*RowVersion, 0, len(t.live))
	for _, rv := range t.versions {
		if rv.Live() {
			t.live[rv.RowID] = int32(len(kept))
			kept = append(kept, rv)
		}
	}
	dropped := len(t.versions) - len(kept)
	t.versions = kept
	t.retired = t.retired[:0]
	t.head = nil
	// Rebuild indexes over the surviving versions: retired entries drop
	// out. Safe for every future epoch (a retired version's end is <=
	// the current epoch, so no later view could see it anyway); views
	// already published keep their own snapshots of the old runs.
	for _, ix := range t.indexes {
		ix.rebuild(t.versions)
	}
	return dropped
}

// matState is a view's cached materialization: the flattened visible
// rows, the rowid aligned with each row, and the row position of each
// arena slot (-1 where the slot's version is not visible) — the map
// index lookups translate through, sized by the arena, which Compact
// bounds. Built or derived at most once per view and published
// atomically, so Table(), RowIDs() and Lookup always agree on row
// order.
type matState struct {
	tab *engine.Table
	ids []uint64
	pos []int32
}

// View is one immutable published table version: the arena prefix as
// of the publish, filtered by visibility at the view's epoch. Views
// are safe for concurrent use; read structures not derived at publish
// are built lazily with double-checked locking.
type View struct {
	name     string
	cols     []string
	epoch    uint64
	versions []*RowVersion
	indexes  map[string]ixSnap // per-publish secondary index snapshots (index.go)

	mu  sync.Mutex // serializes the one-time lazy builds
	mat atomic.Pointer[matState]
	col atomic.Pointer[engine.ColumnarTable]
}

// Name returns the table's declared (original-case) name.
func (v *View) Name() string { return v.name }

// Epoch returns the data epoch the view was published at.
func (v *View) Epoch() uint64 { return v.epoch }

// Table returns the flattened visible rows as a plain *engine.Table —
// the drop-in execution target for engine.Exec. Publish derives it
// from the previous view's when that one was materialized; otherwise
// the first call per view pays one O(arena) scan. Later calls return
// the cached table. Callers must treat the result as immutable.
func (v *View) Table() *engine.Table { return v.materialize().tab }

// RowIDs returns the rowid for each row of Table(), index-aligned —
// how the DML path maps "row i matched the predicate" to a stable
// identity that followers and the WAL replay can re-apply.
func (v *View) RowIDs() []uint64 { return v.materialize().ids }

// NumRows returns the visible row count (materializing if needed).
func (v *View) NumRows() int { return len(v.materialize().ids) }

func (v *View) materialize() *matState {
	if m := v.mat.Load(); m != nil {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m := v.mat.Load(); m != nil {
		return m
	}
	rows := make([][]engine.Value, 0, len(v.versions))
	ids := make([]uint64, 0, len(v.versions))
	pos := make([]int32, len(v.versions))
	for s, rv := range v.versions {
		if !rv.VisibleAt(v.epoch) {
			pos[s] = -1
			continue
		}
		pos[s] = int32(len(rows))
		rows = append(rows, rv.Vals)
		ids = append(ids, rv.RowID)
	}
	m := &matState{tab: &engine.Table{Name: v.name, Cols: v.cols, Rows: rows}, ids: ids, pos: pos}
	v.mat.Store(m)
	return m
}
