package replica

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
	"repro/internal/wal"
)

// compatEvents are the streamed events testdata/compat holds, encoded
// by the build before the publication types were unified (Event.Pub
// was an ingest.Publication then, with its own TableRows).
func compatEvents() map[string]Event {
	return map[string]Event{
		"event-entries.gob": {ID: "live", Term: 3, Owner: testOwner, Pub: wal.Record{Seq: 1, Epoch: 2, Entries: []qlog.Entry{
			{SQL: "SELECT a FROM t WHERE x = 5", Client: "c1", Seq: 4},
			{SQL: "SELECT a FROM t WHERE x = 6", Seq: 5},
		}}},
		"event-rows.gob": {ID: "live", Term: 3, Owner: testOwner, Pub: wal.Record{Seq: 2, Epoch: 3, Rows: []wal.TableRows{
			{Table: "t", Rows: [][]engine.Value{
				{engine.Num(510), engine.Num(51)},
				{engine.Str("s"), engine.Null()},
			}},
			{Table: "u", Rows: [][]engine.Value{{engine.Boolean(true)}}},
		}}},
		"event-muts.gob": {ID: "live", Term: 3, Owner: testOwner, Pub: wal.Record{Seq: 3, Epoch: 4, Muts: []store.TableMutation{{
			Table:   "t",
			Updates: []store.RowUpdate{{RowID: 3, Vals: []engine.Value{engine.Num(-7), engine.Num(3)}}},
			Deletes: []uint64{9, 12},
		}}}},
		"event-bump.gob": {ID: "live", Term: 4, Owner: "http://promoted.test", Pub: wal.Record{Seq: 4, Epoch: 5}},
	}
}

// priorEvent has the earlier build's Event shape: the same field
// names around payload types of its own.
type priorEvent struct {
	ID    string
	Term  uint64
	Owner string
	Pub   struct {
		Seq     uint64
		Epoch   uint64
		Entries []qlog.Entry
		Rows    []struct {
			Table string
			Rows  [][]engine.Value
		}
		Muts []store.TableMutation
	}
}

// TestPriorFormatEventsDecode pins wire compatibility of the one
// publication record in both directions of a mixed-version fleet:
// events the earlier build encoded decode into exactly the events it
// sent, and events this build encodes decode losslessly into the
// earlier build's shape. (The bytes themselves differ: gob names the
// payload's type on the wire, and that name changed; gob matches
// fields by name, which is what the decoders rely on.)
func TestPriorFormatEventsDecode(t *testing.T) {
	for name, want := range compatEvents() {
		raw, err := os.ReadFile(filepath.Join("testdata", "compat", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEvent(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decoded to %+v\nwant %+v", name, got, want)
		}

		enc, err := EncodeEvent(want)
		if err != nil {
			t.Fatal(err)
		}
		var old priorEvent
		if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(&old); err != nil {
			t.Fatalf("%s: earlier build cannot decode this build's event: %v", name, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(old); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeEvent(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("%s lost data through the earlier build's shape: %+v", name, back)
		}
	}
}
