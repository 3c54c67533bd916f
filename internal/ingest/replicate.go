package ingest

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wal"
)

// This file is the ingestion side of the replication contract
// (internal/replica): the owner's ack path publishes every
// epoch-bumping flush as a wal.Record through an optional hook, and
// followers land those records — the exact batches, in the exact
// order — through Apply, the same call restore uses to replay the
// WAL tail. Because the hook fires under the same per-feed lock every
// write path publishes under, records carry per-interface monotone
// sequence numbers for free, and a hook error fails the submission's
// ack: a write is only ever acknowledged after the replication layer
// has had its say (replicate-before-ack).

// Publication is the one publication record (see wal.Record): the
// WAL journals it, the replication stream carries it and restore
// replays it. The alias keeps the ingestion-side name for callers
// that spell it that way.
type Publication = wal.Record

// PublishHook observes every epoch-bumping publish of every owned
// feed, synchronously, under the feed lock (keep it fast; serving
// reads never take that lock, but further writes to the interface
// do). Returning an error fails the triggering submission's ack — the
// replication layer uses that to refuse acks after it has been fenced
// off by a newer owner.
type PublishHook func(id string, rec wal.Record) error

// SetPublishHook installs (or with nil, clears) the publish hook.
func (ing *Ingester) SetPublishHook(h PublishHook) {
	ing.hookMu.Lock()
	ing.hook = h
	ing.hookMu.Unlock()
}

func (ing *Ingester) publishHook() PublishHook {
	ing.hookMu.RLock()
	h := ing.hook
	ing.hookMu.RUnlock()
	return h
}

// firePublish stamps the record with the feed's next sequence number
// and current epoch, journals it and runs the replication hook — in
// that order, so a write is durable locally before it fans out, and an
// ack implies both. Caller holds f.mu and has already published the
// swap.
func (ing *Ingester) firePublish(f *feed, rec wal.Record) error {
	f.seq++
	rec.Seq, rec.Epoch = f.seq, f.hosted.Epoch()
	if err := ing.journalLocked(f, rec); err != nil {
		return err
	}
	h := ing.publishHook()
	if h == nil {
		return nil
	}
	if err := h(f.hosted.ID, rec); err != nil {
		f.lastError = err.Error()
		return err
	}
	return nil
}

// ErrReplicaDiverged reports a follower apply that cannot reproduce
// the owner's record (sequence gap, epoch drift, or a batch the
// local miner rejects): the follower needs a fresh seed. Matched with
// errors.Is.
var ErrReplicaDiverged = errors.New("replica diverged from owner stream")

// Seq returns the interface's current replication sequence number.
func (ing *Ingester) Seq(id string) (uint64, error) {
	f, err := ing.feed(id)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq, nil
}

// PublishBump publishes a bare epoch bump through the replication
// hook — the promotion path uses it so cursors minted against the
// ex-owner expire, with surviving followers bumping in lockstep.
// Returns the new epoch and sequence number.
func (ing *Ingester) PublishBump(id string) (uint64, uint64, error) {
	f, err := ing.feed(id)
	if err != nil {
		return 0, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return 0, 0, fmt.Errorf("ingest: interface %q %w", id, ErrNoFeed)
	}
	if _, err := f.hosted.Swap(f.hosted.Iface(), nil); err != nil {
		return 0, 0, fmt.Errorf("ingest: bump %q: %w", id, err)
	}
	if err := ing.firePublish(f, wal.Record{}); err != nil {
		return f.hosted.Epoch(), f.seq, err
	}
	return f.hosted.Epoch(), f.seq, nil
}

// Apply lands one published record on a follower feed, whether it
// arrives on the replication stream or from the WAL tail at restore:
// the record must sit at exactly the next sequence number, its
// payload — a log batch to re-mine, table rows to append, rowid-keyed
// mutations, or nothing for a bare epoch bump — applies to the feed,
// one swap publishes it, and the resulting epoch must match the
// owner's. Apply bypasses the submission buffer and the publish hook
// (replication is one hop deep, never chained), but journals the
// applied record, so a restarted follower replays to this position
// instead of demanding a full re-seed; a journal failure refuses the
// apply, and replay-time re-offers are sequence-idempotent no-ops.
func (ing *Ingester) Apply(id string, rec wal.Record) error {
	f, err := ing.feed(id)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return fmt.Errorf("ingest: interface %q %w", id, ErrNoFeed)
	}
	if rec.Seq != f.seq+1 {
		return fmt.Errorf("ingest: %q apply seq %d does not follow local seq %d: %w",
			id, rec.Seq, f.seq, ErrReplicaDiverged)
	}
	iface, data, err := f.applyPayload(rec)
	if err == nil {
		_, err = f.hosted.Swap(iface, data)
	}
	if err != nil {
		f.lastError = err.Error()
		return fmt.Errorf("ingest: %q apply seq %d: %v: %w", id, rec.Seq, err, ErrReplicaDiverged)
	}
	f.seq = rec.Seq
	if cur := f.hosted.Epoch(); rec.Epoch != 0 && cur != rec.Epoch {
		return fmt.Errorf("ingest: %q at epoch %d after apply, owner at %d: %w",
			id, cur, rec.Epoch, ErrReplicaDiverged)
	}
	rec.Epoch = f.hosted.Epoch()
	return ing.journalLocked(f, rec)
}

// applyPayload applies a record's payload to the feed's miner and
// store and returns what the swap publishes: the (re-)mined interface
// and, when rows or mutations landed, the new store snapshot (a nil
// catalog keeps the serving data). Caller holds f.mu.
func (f *feed) applyPayload(rec wal.Record) (*core.Interface, engine.Catalog, error) {
	iface := f.hosted.Iface()
	if len(rec.Entries) > 0 {
		mined, st, err := f.miner.Append(rec.Entries)
		f.accepted += uint64(len(rec.Entries))
		f.dropped += uint64(st.ParseErrors)
		if err != nil {
			return nil, nil, fmt.Errorf("re-mine: %v", err)
		}
		if st.FullRemine {
			f.fullRemines++
		}
		if st.Added == 0 {
			// The owner bumped its epoch for this batch; a deterministic
			// re-mine that adds nothing here means the replica drifted.
			return nil, nil, fmt.Errorf("mined no entries the owner published")
		}
		f.flushes++
		iface = mined
	}
	for _, tr := range rec.Rows {
		if _, err := f.store.AppendRows(tr.Table, tr.Rows); err != nil {
			return nil, nil, fmt.Errorf("rows to %q: %v", tr.Table, err)
		}
		f.rowsAppended += uint64(len(tr.Rows))
	}
	for _, tm := range rec.Muts {
		if _, err := f.store.MutateRows(tm.Table, tm.Updates, tm.Deletes); err != nil {
			return nil, nil, fmt.Errorf("mutations to %q: %v", tm.Table, err)
		}
		f.rowsMutated += uint64(len(tm.Updates) + len(tm.Deletes))
	}
	if len(rec.Rows) == 0 && len(rec.Muts) == 0 {
		return iface, nil, nil
	}
	if len(rec.Rows) > 0 {
		f.rowFlushes++
	}
	if len(rec.Muts) > 0 {
		f.mutations++
	}
	return iface, f.store.Snapshot(), nil
}
