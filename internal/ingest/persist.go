package ingest

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wal"
)

// PersistOptions configure a Persister.
type PersistOptions struct {
	// Live are the mining options used when restoring (the saved log is
	// mined once at boot to rebuild the interface and the incremental
	// miner state). Zero value selects core.DefaultLiveOptions.
	Live core.LiveOptions
	// Funcs, when set, is called for every restored interface so the
	// caller can re-attach table-valued functions — code that a
	// snapshot file cannot carry (pi-serve re-binds the synthetic SDSS
	// UDF to the restored Galaxy table here).
	Funcs func(id string, st *store.Store)
	// WAL is the write-ahead log every acked publish is journaled to
	// before its ack returns (walpersist.go); restore replays the
	// logged tail on top of the newest save — zero acked-then-lost
	// across a SIGKILL. Nil opens a strict log over the data dir
	// (every ack waits for its fsync); pass a manager to choose the
	// group-commit window and the segment size.
	WAL *wal.Manager
	// CompactEvery bounds the delta chain: after this many differential
	// saves the next save rewrites the full base snapshot and drops the
	// chain. Default 64.
	CompactEvery int
}

// Persister is the durable snapshot/restore coordinator over an
// ingester's feeds: it journals every acked publish to the WAL,
// SaveAll writes every live-hosted interface's (log, dataset, epoch)
// into the data dir as a base snapshot plus differential deltas
// through internal/store's checksummed atomic writer, and Restore
// re-hosts whatever the dir holds — the saved log re-mines to exactly
// the interface that was serving, the dataset rows load instead of
// being regenerated, and the logged tail replays on top, so a
// SIGKILLed server comes back at its exact acked state without the
// original log or workload generator. Implements api.Persister.
type Persister struct {
	dir  string
	ing  *Ingester
	opts PersistOptions

	// saveMu serializes every durable-state mutation: SaveAll (the
	// periodic ticker, the HTTP snapshot endpoint and the shutdown
	// snapshot can all fire concurrently), the manifest map, Adopt and
	// replication-state persists.
	saveMu sync.Mutex

	// manifests mirrors the on-disk manifest per interface. Guarded by
	// saveMu.
	manifests map[string]*store.Manifest

	// replState, when set, reports an interface's live replication
	// control state at save time so it persists in the manifest.
	// Guarded by saveMu.
	replState func(id string) *store.ReplState
}

// NewPersister returns a persister writing snapshots under dir and
// installs it as the ingester's durability journal: every acked
// publish is logged before the ack returns.
func NewPersister(dir string, ing *Ingester, opts PersistOptions) *Persister {
	if opts.Live.Generate.Library == nil {
		opts.Live = core.DefaultLiveOptions()
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 64
	}
	if opts.WAL == nil {
		opts.WAL = wal.NewManager(dir, wal.Options{})
	}
	p := &Persister{dir: dir, ing: ing, opts: opts, manifests: map[string]*store.Manifest{}}
	ing.SetJournal(p)
	return p
}

// Dir returns the data directory.
func (p *Persister) Dir() string { return p.dir }

// Close syncs and closes the write-ahead log; an ack journaled after
// Close fails.
func (p *Persister) Close() error { return p.opts.WAL.Close() }

// SaveAll persists every live feed. Buffered log entries and rows are
// flushed first, so the snapshot reflects everything acknowledged to
// clients. Implements api.Persister.
func (p *Persister) SaveAll() (*api.SnapshotResult, error) {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	start := time.Now()
	p.ing.FlushAll()

	p.ing.mu.RLock()
	ids := make([]string, 0, len(p.ing.feeds))
	for id := range p.ing.feeds {
		ids = append(ids, id)
	}
	p.ing.mu.RUnlock()
	sort.Strings(ids)

	res := &api.SnapshotResult{Dir: p.dir, Interfaces: []api.SnapshotInterface{}}
	for _, id := range ids {
		row, err := p.saveOne(id)
		if err != nil {
			return nil, err
		}
		res.Interfaces = append(res.Interfaces, row)
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// RemoveSnapshot deletes the interface's durable state — manifest,
// base, delta chain and log directory — so an unhosted interface does
// not resurrect on the next boot; files that never existed are fine.
// Implements api.SnapshotRemover.
func (p *Persister) RemoveSnapshot(id string) error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	if err := store.RemoveManifest(p.dir, id); err != nil {
		return fmt.Errorf("ingest: remove snapshot %q: %w", id, err)
	}
	delete(p.manifests, id)
	if err := p.opts.WAL.Remove(id); err != nil {
		return fmt.Errorf("ingest: remove snapshot %q: %w", id, err)
	}
	return nil
}

// Restore re-hosts every interface the data dir holds a manifest for:
// base + delta chain, then the WAL tail replayed on top (walpersist.go).
// Returns what came back; a missing or empty dir restores nothing
// (first boot). A snapshot that fails its checksum or decode is an
// error — serving silently without an interface the operator expects
// is worse than failing loudly. Implements api.Persister.
func (p *Persister) Restore() (*api.RestoreResult, error) {
	ids, orphans, err := p.scanDataDir()
	if err != nil {
		return nil, err
	}
	if len(orphans) > 0 {
		// A WAL directory with no base to replay onto holds acked writes
		// this process cannot reconstruct. Refuse to serve as if they
		// never happened.
		return nil, fmt.Errorf("ingest: restore: WAL logs %v have no snapshot or manifest to replay onto; "+
			"the interfaces were acked writes this data dir cannot reconstruct", orphans)
	}
	res := &api.RestoreResult{Dir: p.dir, Interfaces: []api.SnapshotInterface{}}
	for _, id := range ids {
		snap, err := p.restoreOne(id)
		if err != nil {
			return nil, err
		}
		res.Interfaces = append(res.Interfaces, snapshotRow(snap, 0))
	}
	return res, nil
}

// snapshotRow summarizes a snapshot for results.
func snapshotRow(snap *store.Snapshot, bytes int64) api.SnapshotInterface {
	rows := 0
	for _, t := range snap.Tables {
		rows += len(t.Rows)
	}
	return api.SnapshotInterface{
		ID:         snap.ID,
		Epoch:      snap.Epoch,
		DataEpoch:  snap.DataEpoch,
		LogEntries: len(snap.Log),
		Rows:       rows,
		Bytes:      bytes,
	}
}
