package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
)

// compatRecords is one publication of every payload kind: a re-mined
// log batch, a two-table row append, a rowid-keyed mutation set and a
// bare epoch bump. testdata/compat/live.wal holds them as a segment
// written by the build before the publication types were unified
// (ingest.Publication and wal.Record were separate structs then).
func compatRecords() []Record {
	return []Record{
		{Seq: 1, Epoch: 2, Entries: []qlog.Entry{
			{SQL: "SELECT a FROM t WHERE x = 5", Client: "c1", Seq: 4},
			{SQL: "SELECT a FROM t WHERE x = 6", Seq: 5},
		}},
		{Seq: 2, Epoch: 3, Rows: []TableRows{
			{Table: "t", Rows: [][]engine.Value{
				{engine.Num(510), engine.Num(51)},
				{engine.Str("s"), engine.Null()},
			}},
			{Table: "u", Rows: [][]engine.Value{{engine.Boolean(true)}}},
		}},
		{Seq: 3, Epoch: 4, Muts: []store.TableMutation{{
			Table:   "t",
			Updates: []store.RowUpdate{{RowID: 3, Vals: []engine.Value{engine.Num(-7), engine.Num(3)}}},
			Deletes: []uint64{9, 12},
		}}},
		{Seq: 4, Epoch: 5},
	}
}

// TestPriorFormatSegmentReplays pins on-disk compatibility of the one
// publication record: a segment written by the earlier build replays
// into exactly the publications it recorded, and re-encoding each one
// reproduces the logged frame byte for byte.
func TestPriorFormatSegmentReplays(t *testing.T) {
	src := filepath.Join("testdata", "compat", "live.wal", segName(1))
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(LogDir(dir, "live"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(LogDir(dir, "live"), segName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManager(dir, Options{})
	defer m.Close()
	got := collect(t, m, "live", 0)
	if want := compatRecords(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v\nwant %+v", got, want)
	}

	off := len(segMagic)
	for _, rec := range got {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, raw[off:off+len(frame)]) {
			t.Fatalf("seq %d re-encodes differently from the logged frame", rec.Seq)
		}
		off += len(frame)
	}
	if off != len(raw) {
		t.Fatalf("segment has %d trailing bytes", len(raw)-off)
	}
}
