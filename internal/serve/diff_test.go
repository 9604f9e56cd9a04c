package serve

// The differential test layer for batched serving: a batched server, a scalar
// server and a local reference session replay the same random fleet streams
// and every prediction must agree bit-for-bit — across batch windows, frozen
// and adaptive modes, crash→RESOLVE→RESET cycles, and hot model swaps landing
// mid-run. This is the serve-path counterpart of internal/difftest, which
// pins the in-process batch engine the batcher is built on.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
)

// batchedConfig is the batched-mode counterpart of the default test server:
// two shards so session→shard fan-out is exercised even on one CPU, and a
// short window so deadline flushes happen within test time.
func batchedConfig(model *core.Model, batch int) Config {
	return Config{Model: model, Batch: batch, BatchWindow: 200 * time.Microsecond, BatchShards: 2}
}

// diffStream replays one fleet instance through any number of served
// connections plus a local reference, pipelined, and fails the test on the
// first reply whose bits differ from the reference (or whose sequence number
// comes back out of order).
type diffStream struct {
	model  *core.Model
	conns  []Conn
	replay *fleet.Replay
	ref    *core.Session
	seq    uint32
	// pending predictions per staged checkpoint, oldest first.
	pending []pendingPred
}

type pendingPred struct {
	seq  uint32
	want core.Prediction
}

func newDiffStream(model *core.Model, seed uint64, conns ...Conn) *diffStream {
	return &diffStream{
		model:  model,
		conns:  conns,
		replay: fleet.NewReplay(seed, fleet.Specs(seed, 1)[0]),
		ref:    model.NewSession(),
	}
}

// step advances the replay by one checkpoint: observe on the reference, send
// to every connection. Returns true when the instance crashed instead (the
// caller resolves and resets).
func (d *diffStream) step(t testing.TB) (crashed bool) {
	t.Helper()
	var cp monitor.Checkpoint
	if d.replay.Step(&cp) {
		return true
	}
	d.observe(t, &cp)
	return false
}

// observe runs one checkpoint through the reference and sends it to every
// connection.
func (d *diffStream) observe(t testing.TB, cp *monitor.Checkpoint) {
	t.Helper()
	want, err := d.ref.Observe(*cp)
	if err != nil {
		t.Fatalf("reference observe: %v", err)
	}
	d.seq++
	for i, c := range d.conns {
		if err := c.Send(d.seq, cp); err != nil {
			t.Fatalf("conn %d send seq %d: %v", i, d.seq, err)
		}
	}
	d.pending = append(d.pending, pendingPred{seq: d.seq, want: want})
}

// drain collects n pending replies (all of them when n < 0) from every
// connection, verifying order and bit-identity against the reference.
func (d *diffStream) drain(t testing.TB, n int) {
	t.Helper()
	if n < 0 || n > len(d.pending) {
		n = len(d.pending)
	}
	for k := 0; k < n; k++ {
		p := d.pending[k]
		for i, c := range d.conns {
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("conn %d recv seq %d: %v", i, p.seq, err)
			}
			if got.Seq != p.seq {
				t.Fatalf("conn %d: reply seq %d, want %d (per-session order broken)", i, got.Seq, p.seq)
			}
			if math.Float64bits(got.TimeSec) != math.Float64bits(p.want.TimeSec) ||
				math.Float64bits(got.TTFSec) != math.Float64bits(p.want.TTFSec) ||
				got.CrashExpected != p.want.CrashExpected {
				t.Fatalf("conn %d seq %d: served (t=%v ttf=%v crash=%v) != reference (t=%v ttf=%v crash=%v)",
					i, p.seq, got.TimeSec, got.TTFSec, got.CrashExpected,
					p.want.TimeSec, p.want.TTFSec, p.want.CrashExpected)
			}
		}
	}
	d.pending = d.pending[n:]
}

// boundary drains everything, then resolves and resets every connection and
// the reference — one crash/rejuvenation stream boundary.
func (d *diffStream) boundary(t testing.TB, kind ResolveKind, crashTimeSec float64) {
	t.Helper()
	d.drain(t, -1)
	for i, c := range d.conns {
		if err := c.Resolve(kind, crashTimeSec); err != nil {
			t.Fatalf("conn %d resolve: %v", i, err)
		}
		if err := c.Reset(); err != nil {
			t.Fatalf("conn %d reset: %v", i, err)
		}
	}
	d.replay.Restart()
	d.ref = d.model.NewSession()
}

// longStream replays one fleet instance over and over on a running clock,
// n checkpoints in all: a stream far longer than any one run-to-crash, with
// no boundary of its own.
func longStream(seed uint64, n int) []monitor.Checkpoint {
	replay := fleet.NewReplay(seed, fleet.Specs(seed, 1)[0])
	cps := make([]monitor.Checkpoint, 0, n)
	offset, last := 0.0, 0.0
	for len(cps) < n {
		var cp monitor.Checkpoint
		if replay.Step(&cp) {
			replay.Restart()
			offset = last
			continue
		}
		cp.TimeSec += offset
		last = cp.TimeSec
		cps = append(cps, cp)
	}
	return cps
}

// TestLongConnectionServeDifferential drives one connection per server —
// scalar and batched, frozen and adaptive — through more than three times
// the feature windows' 4096-push sum recomputation, with RESETs at uneven
// positions, and checks every served prediction bit for bit against one
// local reference session that is recycled through Reset, never rebuilt.
// The stream segments between RESETs cross the recomputation once and twice
// in a row, so this pins served bits ≡ local reference and reset ≡ fresh
// over the wire at lengths the other differentials never reach.
func TestLongConnectionServeDifferential(t *testing.T) {
	model := goldenModel(t)
	cps := longStream(90, 3*4096+1200)
	resets := map[int]bool{1: true, 777: true, 4990: true}
	for _, mode := range []string{"frozen", "adaptive"} {
		t.Run(mode, func(t *testing.T) {
			scalarCfg := Config{Model: model}
			batchedCfg := batchedConfig(model, 7)
			if mode == "adaptive" {
				// Retraining is disabled by an unreachable freshness bar, as in
				// TestBatchedServeDifferential: bit-identity is under test.
				for _, cfg := range []*Config{&scalarCfg, &batchedCfg} {
					sup, err := adapt.NewSupervisor(adapt.Config{MinFreshRuns: 1 << 30}, model)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Model, cfg.Supervisor = nil, sup
				}
			}
			var conns []Conn
			for _, cfg := range []Config{scalarCfg, batchedCfg} {
				c, err := Dial(startServer(t, cfg).TCPAddr(), "")
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				conns = append(conns, c)
			}
			d := newDiffStream(model, 0, conns...)
			for i := range cps {
				if resets[i] {
					d.drain(t, -1)
					for k, c := range conns {
						if err := c.Resolve(ResolveCensored, 0); err != nil {
							t.Fatalf("conn %d resolve: %v", k, err)
						}
						if err := c.Reset(); err != nil {
							t.Fatalf("conn %d reset: %v", k, err)
						}
					}
					d.ref.Reset()
				}
				d.observe(t, &cps[i])
				if len(d.pending) >= 32 {
					d.drain(t, 16)
				}
			}
			d.drain(t, -1)
		})
	}
}

// TestBatchedServeDifferential is the tentpole's proof: batched server vs
// scalar server vs local reference, bit-for-bit, over random fleet streams
// with pipelined windows, at batch sizes 1, 7 and 64, in frozen and adaptive
// modes, with crash→RESOLVE→RESET cycles in the mix.
func TestBatchedServeDifferential(t *testing.T) {
	model := goldenModel(t)
	for _, mode := range []string{"frozen", "adaptive"} {
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch-%d", mode, batch), func(t *testing.T) {
				scalarCfg := Config{Model: model}
				batchedCfg := batchedConfig(model, batch)
				if mode == "adaptive" {
					// One Supervisor per server (streams are server-local), both
					// pinned to epoch 1: bit-identity is the contract under test,
					// so retraining is disabled by an unreachable freshness bar.
					for _, cfg := range []*Config{&scalarCfg, &batchedCfg} {
						sup, err := adapt.NewSupervisor(adapt.Config{MinFreshRuns: 1 << 30}, model)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Model, cfg.Supervisor = nil, sup
					}
				}
				scalar := startServer(t, scalarCfg)
				batched := startServer(t, batchedCfg)

				const conns = 4
				var wg sync.WaitGroup
				for w := 0; w < conns; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						seed := uint64(40 + w)
						sc, err := Dial(scalar.TCPAddr(), "")
						if err != nil {
							t.Errorf("conn %d scalar dial: %v", w, err)
							return
						}
						defer sc.Close()
						bc, err := Dial(batched.TCPAddr(), "")
						if err != nil {
							t.Errorf("conn %d batched dial: %v", w, err)
							return
						}
						defer bc.Close()
						d := newDiffStream(model, seed, sc, bc)
						for i := 0; i < 300; i++ {
							if d.step(t) {
								d.boundary(t, ResolveCrash, d.replay.TimeSec())
								continue
							}
							if len(d.pending) >= 16 {
								d.drain(t, 8)
							}
							if (i+1)%100 == 0 {
								d.boundary(t, ResolveCensored, 0)
							}
						}
						d.drain(t, -1)
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// TestBatchedHotSwapDifferential pins hot reload under batching: SwapModel
// lands mid-run on a batched server, reaches each session only at its next
// RESET, and every reply is bit-identical to a reference session of whichever
// epoch the reply says produced it.
func TestBatchedHotSwapDifferential(t *testing.T) {
	m1 := goldenModel(t)
	m2, err := fleet.TrainModel(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, batchedConfig(m1, 7))

	// Phase 1 streams against epoch 1 with dual references (one per epoch),
	// so verification is immune to when exactly the swap lands relative to
	// each connection's resets; once every connection checks in, the main
	// goroutine swaps, and phase 2 must run entirely on epoch 2.
	const conns = 2
	var wg, phase1 sync.WaitGroup
	phase1.Add(conns)
	swapped := make(chan struct{})
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := Dial(srv.TCPAddr(), "")
			if err != nil {
				phase1.Done()
				t.Errorf("conn %d dial: %v", w, err)
				return
			}
			defer conn.Close()
			seed := uint64(60 + w)
			replay := fleet.NewReplay(seed, fleet.Specs(seed, 1)[0])
			ref1, ref2 := m1.NewSession(), m2.NewSession()
			var cp monitor.Checkpoint
			seq := uint32(0)
			type wants struct {
				seq    uint32
				w1, w2 core.Prediction
			}
			var pending []wants
			failed := false
			drain := func(n int) {
				if n < 0 || n > len(pending) {
					n = len(pending)
				}
				for k := 0; k < n && !failed; k++ {
					got, err := conn.Recv()
					if err != nil {
						t.Errorf("conn %d recv: %v", w, err)
						failed = true
						return
					}
					if got.Seq != pending[k].seq {
						t.Errorf("conn %d: reply seq %d, want %d", w, got.Seq, pending[k].seq)
						failed = true
						return
					}
					want := pending[k].w1
					if got.Epoch >= 2 {
						want = pending[k].w2
					}
					if math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) ||
						math.Float64bits(got.TimeSec) != math.Float64bits(want.TimeSec) {
						t.Errorf("conn %d seq %d epoch %d: served ttf %v != reference %v",
							w, got.Seq, got.Epoch, got.TTFSec, want.TTFSec)
						failed = true
						return
					}
				}
				pending = pending[n:]
			}
			boundary := func(kind ResolveKind, crashTimeSec float64) {
				drain(-1)
				conn.Resolve(kind, crashTimeSec)
				conn.Reset()
				replay.Restart()
				ref1, ref2 = m1.NewSession(), m2.NewSession()
			}
			for i := 0; i < 200 && !failed; i++ {
				if replay.Step(&cp) {
					boundary(ResolveCrash, replay.TimeSec())
					continue
				}
				w1, err1 := ref1.Observe(cp)
				w2, err2 := ref2.Observe(cp)
				if err1 != nil || err2 != nil {
					t.Errorf("conn %d reference observe: %v %v", w, err1, err2)
					failed = true
					break
				}
				seq++
				if err := conn.Send(seq, &cp); err != nil {
					t.Errorf("conn %d send: %v", w, err)
					failed = true
					break
				}
				pending = append(pending, wants{seq: seq, w1: w1, w2: w2})
				if len(pending) >= 12 {
					drain(6)
				}
				if (i+1)%64 == 0 {
					boundary(ResolveCensored, 0)
				}
			}
			drain(-1)
			phase1.Done()
			if failed {
				return
			}
			// Phase 2: the swap has been published; the boundary reset adopts
			// it, and from here every reply must carry epoch 2 with bits of a
			// fresh m2 session.
			<-swapped
			boundary(ResolveCensored, 0)
			for i := 0; i < 64 && !failed; i++ {
				if replay.Step(&cp) {
					boundary(ResolveCrash, replay.TimeSec())
					continue
				}
				want, err := ref2.Observe(cp)
				if err != nil {
					t.Errorf("conn %d m2 reference observe: %v", w, err)
					return
				}
				ref1.Observe(cp) // keep the pair in lockstep for boundary()
				seq++
				if err := conn.Send(seq, &cp); err != nil {
					t.Errorf("conn %d post-swap send: %v", w, err)
					return
				}
				got, err := conn.Recv()
				if err != nil {
					t.Errorf("conn %d post-swap recv: %v", w, err)
					return
				}
				if got.Epoch != 2 {
					t.Errorf("conn %d post-swap reply on epoch %d, want 2", w, got.Epoch)
					return
				}
				if math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) {
					t.Errorf("conn %d post-swap seq %d: served ttf %v != m2 reference %v",
						w, got.Seq, got.TTFSec, want.TTFSec)
					return
				}
			}
		}(w)
	}
	phase1.Wait()
	if !t.Failed() {
		if _, err := srv.SwapModel(m2); err != nil {
			t.Errorf("SwapModel: %v", err)
		}
	}
	close(swapped)
	wg.Wait()
}

// TestBatchedRaceStress is the -race workout the batcher answers to: many
// connections interleaving CHECKPOINT/PREDICT/RESOLVE/RESET while deadline
// flushes fire (senders pause mid-window), a hot swap lands mid-run, and a
// drain starts while traffic is still flowing — no mismatches, no deadlock,
// and the session table returns to zero.
func TestBatchedRaceStress(t *testing.T) {
	m1 := goldenModel(t)
	m2, err := fleet.TrainModel(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Model: m1, Batch: 8, BatchWindow: 100 * time.Microsecond, BatchShards: 2})

	const conns = 8
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := Dial(srv.TCPAddr(), "")
			if err != nil {
				t.Errorf("conn %d dial: %v", w, err)
				return
			}
			defer conn.Close()
			seed := uint64(80 + w)
			replay := fleet.NewReplay(seed, fleet.Specs(seed, 1)[0])
			ref1, ref2 := m1.NewSession(), m2.NewSession()
			var cp monitor.Checkpoint
			seq := uint32(0)
			for i := 0; ; i++ {
				if crashed := replay.Step(&cp); crashed {
					conn.Resolve(ResolveCrash, replay.TimeSec())
					if err := conn.Reset(); err != nil {
						return
					}
					replay.Restart()
					ref1, ref2 = m1.NewSession(), m2.NewSession()
					continue
				}
				w1, _ := ref1.Observe(cp)
				w2, _ := ref2.Observe(cp)
				seq++
				if err := conn.Send(seq, &cp); err != nil {
					return // drain raced the write; the refusal check below is done
				}
				got, err := conn.Recv()
				if err != nil {
					var se *ServerError
					if errors.As(err, &se) && se.Code == ErrCodeDraining && srv.Draining() {
						return // clean drain refusal mid-stream
					}
					if srv.Draining() {
						return // connection torn down by drain completion
					}
					t.Errorf("conn %d recv seq %d: %v", w, seq, err)
					return
				}
				want := w1
				if got.Epoch >= 2 {
					want = w2
				}
				if math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) {
					t.Errorf("conn %d seq %d epoch %d: ttf %v != reference %v",
						w, got.Seq, got.Epoch, got.TTFSec, want.TTFSec)
					return
				}
				if i%17 == 16 {
					// Go quiet past the batch window so the deadline flush path
					// runs under load, not just the size path.
					time.Sleep(300 * time.Microsecond)
				}
				if i%50 == 49 {
					conn.Resolve(ResolveCensored, 0)
					if err := conn.Reset(); err != nil {
						return
					}
					replay.Restart()
					ref1, ref2 = m1.NewSession(), m2.NewSession()
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	if _, err := srv.SwapModel(m2); err != nil {
		t.Fatalf("SwapModel: %v", err)
	}
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain deadlocked or timed out: %v", err)
	}
	wg.Wait()
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("sessions_active after drain: %d, want 0", n)
	}
	if v, ok := srvActiveSessionsMetric(); !ok || v != 0 {
		t.Fatalf("agingpred_serve_sessions_active after drain: %v (ok=%v), want 0", v, ok)
	}
}
