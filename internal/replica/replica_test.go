package replica

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/store"
)

const (
	testSelf  = "http://self.test"
	testOwner = "http://owner.test"
)

// hostFixture hosts a tiny mined interface "live" on a fresh ingester.
func hostFixture(t *testing.T) (*api.Registry, *ingest.Ingester) {
	t.Helper()
	tbl := engine.NewTable("t", "a", "x")
	for i := 1; i <= 20; i++ {
		if err := tbl.AddRow(engine.Num(float64(i*10)), engine.Num(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	l := &qlog.Log{}
	for i := 1; i <= 4; i++ {
		l.Append(fmt.Sprintf("SELECT a FROM t WHERE x = %d", i), "")
	}
	reg := api.NewRegistry()
	ing := ingest.New(reg, ingest.Options{})
	if _, err := ing.Host("live", "replica test", l, db, core.DefaultLiveOptions()); err != nil {
		t.Fatal(err)
	}
	return reg, ing
}

// newTestManager builds a manager over a hosted fixture, recording
// every Persist callback.
func newTestManager(t *testing.T, maxPending int) (*Manager, *api.Registry, *[]string) {
	t.Helper()
	reg, ing := hostFixture(t)
	var mu sync.Mutex
	persisted := &[]string{}
	m, err := NewManager(Config{
		Self: testSelf, Ing: ing, Reg: reg, MaxPending: maxPending,
		Persist: func(id string) {
			mu.Lock()
			*persisted = append(*persisted, id)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, reg, persisted
}

// bump is the next valid publication on the fixture: a bare epoch bump
// one past the follower's applied sequence.
func bump(t *testing.T, reg *api.Registry, seq uint64) ingest.Publication {
	t.Helper()
	h, ok := reg.Get("live")
	if !ok {
		t.Fatal("fixture not hosted")
	}
	return ingest.Publication{Seq: seq, Epoch: h.Epoch() + 1}
}

func apiCode(err error) (string, string) {
	var e *api.Error
	if errors.As(err, &e) {
		return e.Code, e.Addr
	}
	return "", ""
}

// TestApplyFencing pins the follower-side fencing table of
// Manager.Apply: which events are refused, with what structured code
// and believed owner, and what state each leaves behind.
func TestApplyFencing(t *testing.T) {
	type want struct {
		code, addr string // "" code: the apply succeeds
		term       uint64
		owner      string
		stale      bool
		seq        uint64
		persisted  int
	}
	cases := []struct {
		name  string
		setup func(m *Manager) // runs after the fixture follows testOwner at term 5
		ev    func(t *testing.T, reg *api.Registry) Event
		want  want
	}{
		{
			name: "older term is not_owner with the believed owner",
			ev: func(t *testing.T, reg *api.Registry) Event {
				return Event{ID: "live", Term: 4, Owner: "http://old.test", Pub: bump(t, reg, 1)}
			},
			want: want{code: api.CodeNotOwner, addr: testOwner, term: 5, owner: testOwner},
		},
		{
			name: "newer term is adopted and persisted",
			ev: func(t *testing.T, reg *api.Registry) Event {
				return Event{ID: "live", Term: 6, Owner: "http://new.test", Pub: bump(t, reg, 1)}
			},
			want: want{term: 6, owner: "http://new.test", seq: 1, persisted: 1},
		},
		{
			name: "same term with a different owner is split brain",
			ev: func(t *testing.T, reg *api.Registry) Event {
				return Event{ID: "live", Term: 5, Owner: "http://rogue.test", Pub: bump(t, reg, 1)}
			},
			want: want{code: api.CodeNotOwner, addr: testOwner, term: 5, owner: testOwner},
		},
		{
			name: "stale follower is replica_out_of_sync",
			setup: func(m *Manager) {
				s := m.lookup("live")
				s.mu.Lock()
				s.stale = true
				s.mu.Unlock()
			},
			ev: func(t *testing.T, reg *api.Registry) Event {
				return Event{ID: "live", Term: 5, Owner: testOwner, Pub: bump(t, reg, 1)}
			},
			want: want{code: api.CodeReplicaOutOfSync, term: 5, owner: testOwner, stale: true},
		},
		{
			name: "seq gap marks the follower stale",
			ev: func(t *testing.T, reg *api.Registry) Event {
				return Event{ID: "live", Term: 5, Owner: testOwner, Pub: bump(t, reg, 2)}
			},
			want: want{code: api.CodeReplicaOutOfSync, term: 5, owner: testOwner, stale: true},
		},
		{
			name: "in-order event from the owner applies",
			ev: func(t *testing.T, reg *api.Registry) Event {
				return Event{ID: "live", Term: 5, Owner: testOwner, Pub: bump(t, reg, 1)}
			},
			want: want{term: 5, owner: testOwner, seq: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, reg, persisted := newTestManager(t, 0)
			m.RestoreState("live", &store.ReplState{Role: api.RoleFollower, Term: 5, Owner: testOwner}, 0)
			if tc.setup != nil {
				tc.setup(m)
			}
			h, _ := reg.Get("live")
			epoch0 := h.Epoch()
			err := m.Apply(tc.ev(t, reg))
			code, addr := apiCode(err)
			if tc.want.code == "" && err != nil {
				t.Fatalf("apply: %v", err)
			}
			if code != tc.want.code {
				t.Fatalf("apply error code = %q (%v), want %q", code, err, tc.want.code)
			}
			if tc.want.addr != "" && addr != tc.want.addr {
				t.Fatalf("not_owner carries %q, want %q", addr, tc.want.addr)
			}
			info := m.Info("live")
			if info.Role != api.RoleFollower || info.Term != tc.want.term || info.Owner != tc.want.owner ||
				info.Stale != tc.want.stale || info.Seq != tc.want.seq {
				t.Fatalf("state after apply = role %s term %d owner %q stale %v seq %d, want follower term %d owner %q stale %v seq %d",
					info.Role, info.Term, info.Owner, info.Stale, info.Seq,
					tc.want.term, tc.want.owner, tc.want.stale, tc.want.seq)
			}
			wantEpoch := epoch0
			if tc.want.seq > 0 {
				wantEpoch++
			}
			if got := h.Epoch(); got != wantEpoch {
				t.Fatalf("epoch after apply = %d, want %d", got, wantEpoch)
			}
			if len(*persisted) != tc.want.persisted {
				t.Fatalf("persist callbacks = %v, want %d", *persisted, tc.want.persisted)
			}
		})
	}
}

// TestApplyOnOwnerIsNotOwner: a shard that owns the interface refuses
// a streamed event and names itself as the owner.
func TestApplyOnOwnerIsNotOwner(t *testing.T) {
	m, reg, _ := newTestManager(t, 0)
	m.ensure("live")
	err := m.Apply(Event{ID: "live", Term: 1, Owner: testOwner, Pub: bump(t, reg, 1)})
	if code, addr := apiCode(err); code != api.CodeNotOwner || addr != testSelf {
		t.Fatalf("apply on owner = %v (code %q addr %q), want not_owner at %s", err, code, addr, testSelf)
	}
	if seq, _ := m.cfg.Ing.Seq("live"); seq != 0 {
		t.Fatalf("owner applied a streamed event: seq %d", seq)
	}
}

// TestApplyUnknownInterface: no follower copy here is not_found.
func TestApplyUnknownInterface(t *testing.T) {
	m, _, _ := newTestManager(t, 0)
	err := m.Apply(Event{ID: "ghost", Term: 1, Owner: testOwner})
	if code, _ := apiCode(err); code != api.CodeNotFound {
		t.Fatalf("apply to unknown interface = %v, want not_found", err)
	}
}

// TestPublishPendingOverflowMarksStale: publishes that outrun a seed
// in flight buffer up to MaxPending; one more marks the follower stale
// (for a fresh re-seed) instead of growing the buffer, and the ack of
// the triggering write still succeeds.
func TestPublishPendingOverflowMarksStale(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-release
		http.Error(w, `{"code":"internal","error":"seed refused"}`, http.StatusInternalServerError)
	}))
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(func() { unblock(); ts.Close() })

	const maxPending = 2
	m, _, _ := newTestManager(t, maxPending)
	if err := m.SetTargets("live", []string{ts.URL}); err != nil {
		t.Fatal(err)
	}
	<-arrived // the seed transfer is in flight and held

	hook := m.Hook()
	for seq := uint64(1); seq <= maxPending+1; seq++ {
		if err := hook("live", ingest.Publication{Seq: seq, Epoch: seq + 1}); err != nil {
			t.Fatalf("publish seq %d failed the ack: %v", seq, err)
		}
		s := m.lookup("live")
		s.mu.Lock()
		fo := s.followers[ts.URL]
		mode, pending := fo.mode, len(fo.pending)
		s.mu.Unlock()
		if seq <= maxPending {
			if mode != fSeeding || pending != int(seq) {
				t.Fatalf("after seq %d: mode %d pending %d, want seeding with %d buffered", seq, mode, pending, seq)
			}
			continue
		}
		if mode != fStale || pending != 0 {
			t.Fatalf("after overflow: mode %d pending %d, want stale with the buffer dropped", mode, pending)
		}
	}
	info := m.Info("live")
	if len(info.Followers) != 1 || info.Followers[0].Synced ||
		!strings.Contains(info.Followers[0].Error, "outpaced") {
		t.Fatalf("follower row after overflow = %+v", info.Followers)
	}

	// The held seed then fails; the follower stays stale for the next
	// refresh to re-seed.
	unblock()
	ts.Close()
	s := m.lookup("live")
	s.mu.Lock()
	mode := s.followers[ts.URL].mode
	s.mu.Unlock()
	if mode != fStale {
		t.Fatalf("follower mode after the failed seed = %d, want stale", mode)
	}
}
