package ingest

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/api"
	"repro/internal/store"
	"repro/internal/wal"
)

// This file is the persister's write-ahead-log half. The durability
// contract it implements:
//
//   - Every acked publish (log batch, row append, mutation, epoch
//     bump) is in the WAL before the ack returns — the persister is
//     the ingester's Journal, and the journal fires under the feed
//     lock before the submission's ack on owners and before the apply
//     ack on followers.
//   - A periodic save costs O(rows since the last save): it cuts a
//     delta off the copy-on-write version chain (store.CutDelta),
//     links it into the manifest, and truncates the WAL segments the
//     save made redundant. Every CompactEvery saves, a full base
//     rewrite drops the chain. A base is written under a fresh name
//     and only the manifest's atomic rename commits it, so a crash
//     inside a save leaves the previous chain intact.
//   - Restore = newest base + delta chain + WAL tail replayed through
//     Ingester.Apply, the call followers use. The acked state comes
//     back exactly; a torn final record (crash mid-append) was never
//     acked and is truncated, not applied.
//   - Replication control state (role, term, owner, follower
//     positions) rides in the manifest, so a restarted shard answers
//     ownership questions from the term it actually held.

// Append implements Journal: one acked publication into the WAL,
// synchronously, before the ack returns. Sequence numbers the log
// already holds are no-ops, which is what makes restore-time replay
// (driving the same Apply call that journals live traffic) safe.
func (p *Persister) Append(id string, rec wal.Record) error {
	if err := p.opts.WAL.Append(id, rec); err != nil {
		return api.Errf(api.CodeWALFailed, http.StatusInternalServerError,
			"wal append %q seq %d: %v", id, rec.Seq, err)
	}
	return nil
}

// SetReplStateSource wires the replication manager's live state into
// saves, so manifests carry current roles, terms and follower
// positions.
func (p *Persister) SetReplStateSource(fn func(id string) *store.ReplState) {
	p.saveMu.Lock()
	p.replState = fn
	p.saveMu.Unlock()
}

// ReplStates returns the replication control state the manifests held
// at restore, keyed by interface — the shard node feeds these back
// into its replication manager at boot.
func (p *Persister) ReplStates() map[string]*store.ReplState {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	out := map[string]*store.ReplState{}
	for id, m := range p.manifests {
		if m.Replication != nil {
			out[id] = m.Replication
		}
	}
	return out
}

// WALStatus implements api.WALStatuser for /healthz rows.
func (p *Persister) WALStatus(id string) (*api.WALInfo, bool) {
	st, ok := p.opts.WAL.Status(id)
	if !ok {
		return nil, false
	}
	info := &api.WALInfo{
		Segments:  st.Segments,
		Bytes:     st.Bytes,
		LastSeq:   st.LastSeq,
		SyncedSeq: st.SyncedSeq,
		Truncated: st.Truncated,
	}
	p.saveMu.Lock()
	if m := p.manifests[id]; m != nil && st.LastSeq > m.Seq {
		info.Lag = st.LastSeq - m.Seq
	} else if m == nil {
		info.Lag = st.LastSeq
	}
	p.saveMu.Unlock()
	return info, true
}

// replStateLocked fetches the live replication state for a manifest
// write. Caller holds saveMu.
func (p *Persister) replStateLocked(id string) *store.ReplState {
	if p.replState == nil {
		return nil
	}
	return p.replState(id)
}

// saveOne captures one feed's state under its lock (Capture shares
// only immutable data — a log copy and published table versions), then
// writes it with the lock released, so the disk write never blocks
// ingestion or serving: a differential delta when the manifest chain
// allows it, a full base rewrite when it does not (no manifest yet,
// chain at the compaction bound, or a chain the capture no longer
// continues). Caller holds saveMu (via SaveAll).
func (p *Persister) saveOne(id string) (api.SnapshotInterface, error) {
	snap, err := p.ing.Capture(id)
	if err != nil {
		return api.SnapshotInterface{}, err
	}
	m := p.manifests[snap.ID]
	rs := p.replStateLocked(snap.ID)

	if m != nil && len(m.Deltas) < p.opts.CompactEvery && snap.Seq >= m.Seq {
		if snap.Seq == m.Seq {
			// Nothing published since the last save; just refresh the
			// replication state if it moved.
			if rs != nil && !replStateEqual(rs, m.Replication) {
				m.Replication = rs
				if err := store.SaveManifest(p.dir, m); err != nil {
					return api.SnapshotInterface{}, fmt.Errorf("ingest: save %q: %w", snap.ID, err)
				}
			}
			return snapshotRow(snap, 0), nil
		}
		d, err := store.CutDelta(snap, m.Seq, m.LogLen, m.TableRows, m.TableMuts)
		if err == nil {
			size, name, err := store.SaveDelta(p.dir, d)
			if err != nil {
				return api.SnapshotInterface{}, fmt.Errorf("ingest: save %q: %w", snap.ID, err)
			}
			m.Deltas = append(m.Deltas, name)
			m.Seq, m.Epoch, m.DataEpoch = snap.Seq, snap.Epoch, snap.DataEpoch
			m.LogLen, m.TableRows, m.TableMuts = store.CoveredCounts(snap)
			if rs != nil {
				m.Replication = rs
			}
			if err := store.SaveManifest(p.dir, m); err != nil {
				return api.SnapshotInterface{}, fmt.Errorf("ingest: save %q: %w", snap.ID, err)
			}
			// The save covers everything through snap.Seq: segments the
			// replay path no longer needs can go. Best-effort — a failed
			// truncation only costs replay time.
			_ = p.opts.WAL.Truncate(snap.ID, snap.Seq)
			return snapshotRow(snap, size), nil
		}
		// A chain the capture does not continue (a table shrank — only
		// possible through paths outside the append discipline) falls
		// through to a full rewrite rather than failing the save loop.
	}
	return p.saveFull(snap, rs)
}

// saveFull writes a full base snapshot under a fresh name and commits
// it with a fresh manifest, then removes the superseded base and delta
// chain. A crash before the manifest rename leaves the previous chain
// committed and the new base unreferenced. Caller holds saveMu.
func (p *Persister) saveFull(snap *store.Snapshot, rs *store.ReplState) (api.SnapshotInterface, error) {
	old := p.manifests[snap.ID]
	prev := ""
	if old != nil {
		prev = old.Base
	}
	base := store.BaseName(snap.ID, snap.Seq, prev)
	bytes, err := store.Save(p.dir, base, snap)
	if err != nil {
		return api.SnapshotInterface{}, fmt.Errorf("ingest: save %q: %w", snap.ID, err)
	}
	logLen, tableRows, tableMuts := store.CoveredCounts(snap)
	m := &store.Manifest{
		ID:          snap.ID,
		Base:        base,
		Seq:         snap.Seq,
		Epoch:       snap.Epoch,
		DataEpoch:   snap.DataEpoch,
		LogLen:      logLen,
		TableRows:   tableRows,
		TableMuts:   tableMuts,
		Replication: rs,
	}
	if rs == nil && old != nil {
		m.Replication = old.Replication
	}
	if err := store.SaveManifest(p.dir, m); err != nil {
		return api.SnapshotInterface{}, fmt.Errorf("ingest: save %q: %w", snap.ID, err)
	}
	p.manifests[snap.ID] = m
	if old != nil {
		for _, name := range append(old.Deltas, old.Base) {
			_ = os.Remove(filepath.Join(p.dir, name))
		}
	}
	_ = p.opts.WAL.Truncate(snap.ID, snap.Seq)
	// A full rewrite is the point where no delta will ever again be cut
	// against pre-rewrite state, so superseded MVCC row versions (old
	// UPDATE/DELETE residue) can fold out of the live store's arenas.
	if st, err := p.ing.Store(snap.ID); err == nil {
		st.Compact()
	}
	return snapshotRow(snap, bytes), nil
}

func replStateEqual(a, b *store.ReplState) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Role != b.Role || a.Term != b.Term || a.Owner != b.Owner || len(a.Followers) != len(b.Followers) {
		return false
	}
	for addr, seq := range a.Followers {
		if b.Followers[addr] != seq {
			return false
		}
	}
	return true
}

// Adopt durably installs an externally-sourced snapshot — a migration
// accept or a replication seed — as this node's truth for the
// interface: full base + manifest written synchronously (the caller
// has not acked the transfer yet), the old delta chain dropped, and
// the WAL reset to the snapshot's sequence, because the old log tail
// described state the snapshot wholesale replaced.
func (p *Persister) Adopt(snap *store.Snapshot, rs *store.ReplState) error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	if _, err := p.saveFull(snap, rs); err != nil {
		return fmt.Errorf("ingest: adopt %q: %w", snap.ID, err)
	}
	if err := p.opts.WAL.Reset(snap.ID, snap.Seq); err != nil {
		return fmt.Errorf("ingest: adopt %q: %w", snap.ID, err)
	}
	return nil
}

// PersistReplState rewrites one interface's manifest with its current
// replication control state — the replication manager calls this on
// control-plane changes (promote, demote, fence, term adoption), so a
// crash right after a failover remembers who won. An interface with
// no manifest yet (nothing saved) is skipped: the first save captures
// the state. Errors are returned for the caller to surface but leave
// the in-memory state authoritative.
func (p *Persister) PersistReplState(id string) error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	m := p.manifests[id]
	if m == nil || p.replState == nil {
		return nil
	}
	rs := p.replState(id)
	if replStateEqual(rs, m.Replication) {
		return nil
	}
	m.Replication = rs
	if err := store.SaveManifest(p.dir, m); err != nil {
		return fmt.Errorf("ingest: persist replication state of %q: %w", id, err)
	}
	return nil
}

// CatchUp returns the owner's logged publications with sequence in
// (fromSeq, head], so a follower that restarted at fromSeq re-syncs
// from the stream instead of taking a full snapshot seed. ok=false
// means the log does not cover the range (truncated past it, too far
// behind to be worth shipping record by record, or unreadable) and
// the caller should fall back to a seed.
func (p *Persister) CatchUp(id string, fromSeq uint64) ([]wal.Record, bool) {
	const maxCatchUp = 4096
	var pubs []wal.Record
	err := p.opts.WAL.Replay(id, fromSeq, func(rec wal.Record) error {
		if len(pubs) >= maxCatchUp {
			return fmt.Errorf("wal: catch-up range exceeds %d records", maxCatchUp)
		}
		pubs = append(pubs, rec)
		return nil
	})
	if err != nil {
		return nil, false
	}
	// The chain must start exactly one past the follower's position —
	// a gap means truncation outran the follower and only a seed helps.
	if len(pubs) > 0 && pubs[0].Seq != fromSeq+1 {
		return nil, false
	}
	return pubs, true
}

// restoreOne rebuilds one interface to its exact acked state: the
// manifest's base + delta chain, hosted at its saved epoch, then every
// logged publication past the save replayed through Ingester.Apply —
// the call followers use (the registry bumps the epoch by exactly one
// per swap, so the logged epochs verify lockstep). The journal
// re-offer inside each apply is a sequence-idempotent no-op.
func (p *Persister) restoreOne(id string) (*store.Snapshot, error) {
	m, err := store.LoadManifest(p.dir, id)
	if err == nil && m == nil {
		err = fmt.Errorf("ingest: restore %q: manifest vanished during restore", id)
	}
	if err != nil {
		return nil, err
	}
	snap, err := store.RestoreChain(p.dir, m)
	if err != nil {
		return nil, err
	}
	if _, err := p.ing.HostSnapshot(snap, p.opts.Live, p.opts.Funcs, snap.Epoch); err != nil {
		return nil, fmt.Errorf("ingest: restore %q: %w", id, err)
	}
	p.saveMu.Lock()
	p.manifests[id] = m
	p.saveMu.Unlock()

	err = p.opts.WAL.Replay(id, m.Seq, func(rec wal.Record) error { return p.ing.Apply(id, rec) })
	if err != nil {
		return nil, fmt.Errorf("ingest: restore %q: replay WAL tail: %w", id, err)
	}
	// Report the replayed position, not the save's.
	if seq, err := p.ing.Seq(id); err == nil {
		snap.Seq = seq
	}
	if h, ok := p.ing.reg.Get(id); ok {
		snap.Epoch = h.Epoch()
	}
	return snap, nil
}

// scanDataDir enumerates restorable interfaces (those with a manifest
// — a base no manifest names was never committed) and orphaned WAL
// directories (log but no manifest).
func (p *Persister) scanDataDir() (ids []string, orphans []string, err error) {
	entries, err := os.ReadDir(p.dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: restore: %w", err)
	}
	have := map[string]bool{}
	walDirs := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasSuffix(name, ".wal"):
			walDirs[strings.TrimSuffix(name, ".wal")] = true
		case e.IsDir():
		case strings.HasSuffix(name, ".manifest.json"):
			have[strings.TrimSuffix(name, ".manifest.json")] = true
		}
	}
	for id := range have {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for id := range walDirs {
		if !have[id] {
			orphans = append(orphans, id)
		}
	}
	sort.Strings(orphans)
	return ids, orphans, nil
}
