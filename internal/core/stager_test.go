package core

import (
	"bytes"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"agingpred/internal/monitor"
)

// shardOfDigest is the FNV-64a digest of ShardOf over IDs 0–4095 for every
// shard count 1–16 (one byte per assignment, shard counts outermost). It was
// recorded from the two per-package copies ShardOf replaced — the fleet's
// instance→shard and serve's session→shard hashes, which agreed — so no
// instance or session changes shard.
const shardOfDigest = 0xf9138a40ae8f8aac

// TestShardOf pins the shard assignment bit for bit and checks it is stable
// and spreads 4096 consecutive IDs over every one of 8 shards.
func TestShardOf(t *testing.T) {
	h := fnv.New64a()
	for shards := 1; shards <= 16; shards++ {
		for id := uint64(0); id < 4096; id++ {
			h.Write([]byte{byte(ShardOf(id, shards))})
		}
	}
	if got := h.Sum64(); got != shardOfDigest {
		t.Fatalf("ShardOf digest %#016x, want %#016x: instances or sessions would change shard", got, uint64(shardOfDigest))
	}
	counts := make([]int, 8)
	for id := uint64(0); id < 4096; id++ {
		s := ShardOf(id, 8)
		if s != ShardOf(id, 8) {
			t.Fatalf("shard assignment of %d is not stable", id)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no IDs", s)
		}
	}
}

// cloneModel round-trips m through its persistence encoding: a distinct
// *Model that predicts identically, i.e. a new "epoch" without retraining.
func cloneModel(t testing.TB, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := DecodeModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// servedBy returns the eviction predicate of a shard whose sessions are ss.
func servedBy(ss []*Session) func(*Model) bool {
	return func(m *Model) bool {
		for _, s := range ss {
			if s.Model() == m {
				return true
			}
		}
		return false
	}
}

// TestStagerPredictsPerModel checks a two-model Stager against scalar
// Session.Observe: every row comes back in its model's group, tagged and in
// staging order, with the scalar prediction's bits; and Predict empties the
// groups.
func TestStagerPredictsPerModel(t *testing.T) {
	a := trainedOn(t, Config{})
	b := cloneModel(t, a)
	cps := leakSeries("stager", 80, 1.8, 0.25).Checkpoints
	const n = 6
	staged, scalar := make([]*Session, n), make([]*Session, n)
	for i := range staged {
		m := a
		if i%3 == 1 {
			m = b
		}
		staged[i], scalar[i] = m.NewSession(), m.NewSession()
	}
	st := NewStager[int](2) // smaller than a group: rows grow past capacity
	for tick := range cps {
		for i, s := range staged {
			st.Stage(s, &cps[tick], i)
		}
		var seen []int
		st.Predict(func(tags []int, preds []Prediction, err error) {
			if err != nil {
				t.Fatal(err)
			}
			m := staged[tags[0]].Model()
			for k, i := range tags {
				if staged[i].Model() != m {
					t.Fatalf("tick %d: session %d grouped with another model's rows", tick, i)
				}
				want, err := scalar[i].Observe(cps[tick])
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(preds[k].TTFSec) != math.Float64bits(want.TTFSec) {
					t.Fatalf("tick %d session %d: staged %v s, scalar %v s", tick, i, preds[k].TTFSec, want.TTFSec)
				}
			}
			seen = append(seen, tags...)
		})
		if want := []int{0, 2, 3, 5, 1, 4}; !slices.Equal(seen, want) {
			t.Fatalf("tick %d: rows came back as %v, want %v (groups in creation order, rows in staging order)", tick, seen, want)
		}
		st.Predict(func([]int, []Prediction, error) { t.Fatal("Predict did not empty the groups") })
	}
}

// TestStagerEviction is the eviction rule, tested once for both callers with
// two models swapped back and forth: a group with nothing staged is dropped
// when no session of the shard serves its model.
func TestStagerEviction(t *testing.T) {
	a := trainedOn(t, Config{})
	b := cloneModel(t, a)
	cp := leakSeries("evict", 1, 1.8, 0.25).Checkpoints[0]

	t.Run("fleet", func(t *testing.T) {
		// The fleet stages a tick, evicts, then sweeps. Instance 0 is the
		// holdout: down (nothing staged) while its session stays on the old
		// epoch.
		ss := []*Session{a.NewSession(), a.NewSession(), a.NewSession()}
		st := NewStager[int](len(ss))
		tick := func(down int) {
			for i, s := range ss {
				if i != down {
					st.Stage(s, &cp, i)
				}
			}
			st.Evict(servedBy(ss))
			st.Predict(func([]int, []Prediction, error) {})
		}
		tick(-1)
		old, cur := a, b
		for swap := 1; swap <= 4; swap++ {
			for i := range ss {
				ss[i] = cur.NewSession()
			}
			tick(-1)
			if got := st.Models(); !slices.Equal(got, []*Model{cur}) {
				t.Fatalf("swap %d: groups %v, want only the current epoch's", swap, got)
			}
			old, cur = cur, old
		}
		// Everyone but the down holdout moves on: the old epoch idles but
		// its group is kept while the holdout's session serves it.
		for i := 1; i < len(ss); i++ {
			ss[i] = cur.NewSession()
		}
		tick(0)
		if got := st.Models(); !slices.Equal(got, []*Model{old, cur}) {
			t.Fatalf("with a down holdout: groups %v, want the old epoch's kept", got)
		}
		tick(0) // still down, still kept
		if got := len(st.Models()); got != 2 {
			t.Fatalf("holdout still down: %d groups, want 2", got)
		}
		// The holdout comes back on the new epoch: the old group goes.
		ss[0] = cur.NewSession()
		tick(-1)
		if got := st.Models(); !slices.Equal(got, []*Model{cur}) {
			t.Fatalf("after the holdout moved on: groups %v, want only the current epoch's", got)
		}
	})

	t.Run("serve", func(t *testing.T) {
		// Serve flushes, then evicts with nothing staged after a RESET (a
		// session adopts the current epoch) or an eviction (it leaves).
		ss := []*Session{a.NewSession(), a.NewSession()}
		st := NewStager[int](len(ss))
		flush := func() {
			for i, s := range ss {
				st.Stage(s, &cp, i)
			}
			st.Predict(func([]int, []Prediction, error) {})
		}
		flush()
		ss[0] = b.NewSession() // RESET onto the hot-swapped epoch
		flush()
		st.Evict(servedBy(ss))
		if got := st.Models(); !slices.Equal(got, []*Model{a, b}) {
			t.Fatalf("after one RESET: groups %v, want both epochs (session 1 still on a)", got)
		}
		ss[1] = b.NewSession() // the last session on a RESETs too
		st.Evict(servedBy(ss))
		if got := st.Models(); !slices.Equal(got, []*Model{b}) {
			t.Fatalf("after the last RESET: groups %v, want only b", got)
		}
		ss[0] = a.NewSession() // swapped back: a's group is rebuilt on demand
		flush()
		ss = ss[:1] // session 1 (on b) is evicted
		st.Evict(servedBy(ss))
		if got := st.Models(); !slices.Equal(got, []*Model{a}) {
			t.Fatalf("after evicting b's last session: groups %v, want only a", got)
		}
		ss = ss[:0] // the shard empties
		st.Evict(servedBy(ss))
		if got := len(st.Models()); got != 0 {
			t.Fatalf("empty shard keeps %d groups, want 0", got)
		}
	})

	t.Run("staged groups are kept", func(t *testing.T) {
		st := NewStager[int](1)
		st.Stage(a.NewSession(), &cp, 0)
		st.Evict(func(*Model) bool { return false })
		if got := st.Models(); !slices.Equal(got, []*Model{a}) {
			t.Fatalf("a group with rows staged was evicted: groups %v", got)
		}
	})
}

// TestStagerZeroAllocs pins steady-state Stage + Predict + Evict at zero
// allocations with two epochs live — the state of an adaptive fleet
// mid-swap and of a hot-swapped batched server — with fresh closures passed
// to Predict and Evict every sweep, as the callers do.
func TestStagerZeroAllocs(t *testing.T) {
	a := trainedOn(t, Config{})
	b := cloneModel(t, a)
	cps := leakSeries("allocs", 200, 1.8, 0.25).Checkpoints
	ss := make([]*Session, 8)
	for i := range ss {
		m := a
		if i%2 == 1 {
			m = b
		}
		ss[i] = m.NewSession()
	}
	st := NewStager[int](len(ss))
	var sum float64
	sweep := func(cp *monitor.Checkpoint) {
		for i, s := range ss {
			st.Stage(s, cp, i)
		}
		st.Evict(func(m *Model) bool {
			for _, s := range ss {
				if s.Model() == m {
					return true
				}
			}
			return false
		})
		st.Predict(func(tags []int, preds []Prediction, err error) {
			if err != nil {
				t.Fatal(err)
			}
			for k := range tags {
				sum += preds[k].TTFSec
			}
		})
	}
	for i := range cps {
		sweep(&cps[i])
	}
	cp := cps[len(cps)-1]
	allocs := testing.AllocsPerRun(100, func() {
		cp.TimeSec += 15
		sweep(&cp)
	})
	if allocs != 0 {
		t.Fatalf("two-epoch Stage+Predict+Evict allocates %.1f times per sweep, want 0", allocs)
	}
	if got := len(st.Models()); got != 2 {
		t.Fatalf("%d groups live, want 2", got)
	}
}
