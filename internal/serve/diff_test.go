package serve

// The differential test layer for batched serving: a batched server, a scalar
// server and a local reference session replay the same random fleet streams
// and every prediction must agree bit-for-bit — across batch windows, frozen
// and adaptive modes, crash→RESOLVE→RESET cycles, and hot model swaps landing
// mid-run. This is the serve-path counterpart of internal/difftest, which
// pins the in-process batch engine the batcher is built on.

import (
	"context"
	"fmt"
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

// instance returns a replay of the seed's one-instance fleet population.
func instance(seed uint64) *fleet.Replay {
	return fleet.NewReplay(seed, fleet.Specs(seed, 1)[0])
}

// play replays src through p, one stream per entry of segments (its length
// in checkpoint intervals).
func play(p *Player, src Source, segments ...int) error {
	for _, ticks := range segments {
		if err := p.Replay(src, ticks); err != nil {
			return err
		}
	}
	return nil
}

// allVerified reports a tally in which some reply went unchecked or differed
// from its reference.
func allVerified(t Tally) error {
	switch {
	case t.Mismatches > 0:
		return fmt.Errorf("%d of %d replies differ from the reference; first: %v", t.Mismatches, t.Predictions, t.Mismatch)
	case t.Predictions == 0 || t.Verified != t.Predictions:
		return fmt.Errorf("%d of %d replies verified (%d skipped)", t.Verified, t.Predictions, t.Skipped)
	}
	return nil
}

// longStream replays one fleet instance over and over on a running clock,
// n checkpoints in all: a stream far longer than any one run-to-crash, with
// no boundary of its own.
func longStream(seed uint64, n int) []monitor.Checkpoint {
	replay := instance(seed)
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
// positions, and checks every served prediction bit for bit against a local
// reference session that starts fresh at every RESET. The stream segments
// between RESETs cross the recomputation once and twice in a row, so this
// pins served bits ≡ local reference and reset ≡ fresh over the wire at
// lengths the other differentials never reach.
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
			for k, cfg := range []Config{scalarCfg, batchedCfg} {
				c, err := Dial(startServer(t, cfg).TCPAddr(), "")
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				p := NewPlayer(c, 32, map[uint32]*core.Model{1: model})
				for i := range cps {
					if resets[i] {
						if err := p.Boundary(ResolveCensored, 0); err != nil {
							t.Fatalf("conn %d boundary: %v", k, err)
						}
					}
					if err := p.Send(&cps[i]); err != nil {
						t.Fatalf("conn %d send: %v", k, err)
					}
				}
				if err := p.Drain(); err != nil {
					t.Fatalf("conn %d drain: %v", k, err)
				}
				if err := allVerified(p.Tally); err != nil {
					t.Fatalf("conn %d: %v", k, err)
				}
			}
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
				// Four connections per server, each replaying its own instance
				// as three 100-interval streams with up to 16 checkpoints in
				// flight; scalar and batched replies are both checked against
				// the local reference.
				var wg sync.WaitGroup
				for _, srv := range []*Server{startServer(t, scalarCfg), startServer(t, batchedCfg)} {
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							conn, err := Dial(srv.TCPAddr(), "")
							if err != nil {
								t.Errorf("conn %d dial: %v", w, err)
								return
							}
							defer conn.Close()
							p := NewPlayer(conn, 16, map[uint32]*core.Model{1: model})
							err = play(p, instance(uint64(40+w)), 100, 100, 100)
							if err == nil {
								err = allVerified(p.Tally)
							}
							if err != nil {
								t.Errorf("batch %d conn %d: %v", srv.cfg.Batch, w, err)
							}
						}()
					}
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
		go func() {
			defer wg.Done()
			conn, err := Dial(srv.TCPAddr(), "")
			if err != nil {
				phase1.Done()
				t.Errorf("conn %d dial: %v", w, err)
				return
			}
			defer conn.Close()
			src := instance(uint64(60 + w))
			p := NewPlayer(conn, 12, map[uint32]*core.Model{1: m1, 2: m2})
			err = play(p, src, 64, 64, 64, 8)
			if err == nil {
				err = allVerified(p.Tally)
			}
			phase1.Done()
			if err != nil {
				t.Errorf("conn %d: %v", w, err)
				return
			}
			// Phase 2: the swap has been published; the boundary reset adopts
			// it, and from here every reply must carry epoch 2 (an epoch-1
			// reply has no reference and counts as skipped) with bits of a
			// fresh m2 session.
			<-swapped
			p.SetRefs(map[uint32]*core.Model{2: m2})
			err = p.Boundary(ResolveCensored, 0)
			if err == nil {
				err = p.Replay(src, 64)
			}
			if err == nil {
				err = allVerified(p.Tally)
			}
			if err != nil {
				t.Errorf("conn %d post-swap: %v", w, err)
			}
		}()
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
		go func() {
			defer wg.Done()
			conn, err := Dial(srv.TCPAddr(), "")
			if err != nil {
				t.Errorf("conn %d dial: %v", w, err)
				return
			}
			defer conn.Close()
			// Lockstep 50-interval streams until the drain ends the run.
			p := NewPlayer(conn, 1, map[uint32]*core.Model{1: m1, 2: m2})
			src := &pausingSource{Replay: instance(uint64(80 + w))}
			for err == nil {
				err = p.Replay(src, 50)
			}
			if !srv.Draining() {
				// Drain refusals and torn-down connections end the run
				// cleanly; anything before the drain is a failure.
				t.Errorf("conn %d: %v", w, err)
			}
			if p.Mismatches > 0 {
				t.Errorf("conn %d: %d mismatches; first: %v", w, p.Mismatches, p.Mismatch)
			}
		}()
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

// pausingSource goes quiet past the batch window every 17th interval, so the
// deadline flush path runs under load, not just the size path.
type pausingSource struct {
	*fleet.Replay
	steps int
}

func (s *pausingSource) Step(cp *monitor.Checkpoint) bool {
	if s.steps++; s.steps%17 == 0 {
		time.Sleep(300 * time.Microsecond)
	}
	return s.Replay.Step(cp)
}
