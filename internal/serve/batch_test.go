package serve

// Batch-window edge cases, each pinned with a typed-error or bit-identity
// assertion: a lone straggler flushed by the deadline, session eviction
// landing between stage and flush (CLOSE and idle timeout), and a drain
// starting while a batch is staged. Plus the interleaving fuzz target: any
// schedule of stage/flush/evict across connections must preserve each
// session's reply order and bit-identity.

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
	"agingpred/internal/obs"
)

func srvActiveSessionsMetric() (float64, bool) {
	return obs.Default.Value("agingpred_serve_sessions_active")
}

// refFirstPrediction computes the local-reference prediction for the first
// checkpoint of a replayed instance — what a batched server must answer,
// whatever flush path delivered it.
func refFirstPrediction(t *testing.T, model *core.Model, seed uint64) (monitor.Checkpoint, core.Prediction) {
	t.Helper()
	var cp monitor.Checkpoint
	if instance(seed).Step(&cp) {
		t.Fatal("instance crashed on its first checkpoint")
	}
	want, err := model.NewSession().Observe(cp)
	if err != nil {
		t.Fatal(err)
	}
	return cp, want
}

func assertBits(t *testing.T, got Prediction, want core.Prediction) {
	t.Helper()
	if math.Float64bits(got.TimeSec) != math.Float64bits(want.TimeSec) ||
		math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) ||
		got.CrashExpected != want.CrashExpected {
		t.Fatalf("served (t=%v ttf=%v crash=%v) != reference (t=%v ttf=%v crash=%v)",
			got.TimeSec, got.TTFSec, got.CrashExpected, want.TimeSec, want.TTFSec, want.CrashExpected)
	}
}

// TestBatchDeadlineStraggler pins the flush-on-deadline path: a single
// connection stages one row into a 64-row batch that will never fill, and the
// deadline flush must still deliver the bit-identical prediction — counted
// under the "deadline" flush cause.
func TestBatchDeadlineStraggler(t *testing.T) {
	model := goldenModel(t)
	srv := startServer(t, Config{Model: model, Batch: 64, BatchWindow: 20 * time.Millisecond, BatchShards: 1})
	conn, err := Dial(srv.TCPAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cp, want := refFirstPrediction(t, model, 21)
	before := mFlushDeadline.Value()
	if err := conn.Send(1, &cp); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	assertBits(t, got, want)
	if after := mFlushDeadline.Value(); after <= before {
		t.Fatalf("deadline flush counter did not move (%d -> %d): straggler was flushed by something else", before, after)
	}
}

// TestBatchCloseBetweenStageAndFlush pins eviction-by-CLOSE mid-batch: with a
// window far longer than the test, a CHECKPOINT immediately followed by CLOSE
// (one pipelined write, so both land before any flush) must still produce the
// prediction — the control op flushes first — then the CLOSE echo, then EOF.
func TestBatchCloseBetweenStageAndFlush(t *testing.T) {
	model := goldenModel(t)
	srv := startServer(t, Config{Model: model, Batch: 64, BatchWindow: time.Minute, BatchShards: 1})
	nc, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	cp, want := refFirstPrediction(t, model, 22)
	wire, _ := AppendFrame(nil, &Frame{Type: FrameHello, Version: ProtocolVersion})
	wire, _ = AppendFrame(wire, &Frame{Type: FrameCheckpoint, Seq: 1, Vec: *cp.Vec()})
	wire, _ = AppendFrame(wire, &Frame{Type: FrameClose})
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}

	fr := newFrameReader(nc, DefaultMaxFrameBytes)
	var f Frame
	if err := fr.Next(&f); err != nil || f.Type != FrameWelcome {
		t.Fatalf("WELCOME: %v %s", err, f.Type)
	}
	if err := fr.Next(&f); err != nil || f.Type != FramePredict {
		t.Fatalf("PREDICT before CLOSE echo: %v %s", err, f.Type)
	}
	assertBits(t, Prediction{TimeSec: f.TimeSec, TTFSec: f.TTFSec, CrashExpected: f.CrashExpected}, want)
	if err := fr.Next(&f); err != nil || f.Type != FrameClose {
		t.Fatalf("CLOSE echo: %v %s", err, f.Type)
	}
	waitFor(t, time.Second, func() bool { return srv.Sessions() == 0 })
}

// TestBatchIdleEvictionMidBatch pins eviction-by-idle-timeout mid-batch: the
// staged row's window (one minute) will not expire before the idle timeout
// (100ms) evicts the session, and the eviction must flush first — the client
// gets its prediction, then the typed idle refusal.
func TestBatchIdleEvictionMidBatch(t *testing.T) {
	model := goldenModel(t)
	srv := startServer(t, Config{
		Model: model, Batch: 64, BatchWindow: time.Minute, BatchShards: 1,
		IdleTimeout: 100 * time.Millisecond,
	})
	conn, err := Dial(srv.TCPAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cp, want := refFirstPrediction(t, model, 23)
	if err := conn.Send(1, &cp); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil {
		t.Fatalf("prediction before idle eviction: %v", err)
	}
	assertBits(t, got, want)
	_, err = conn.Recv()
	var se *ServerError
	if !errors.As(err, &se) || se.Code != ErrCodeIdle {
		t.Fatalf("after idle eviction: got %v, want *ServerError{idle}", err)
	}
	waitFor(t, time.Second, func() bool { return srv.Sessions() == 0 })
}

// TestBatchDrainWithStagedBatch pins a drain starting while a batch is
// staged: the staged row's prediction is delivered (drain flushes, it does
// not drop), then the typed draining refusal, and Drain itself completes with
// the session table at zero.
func TestBatchDrainWithStagedBatch(t *testing.T) {
	model := goldenModel(t)
	srv := startServer(t, Config{Model: model, Batch: 64, BatchWindow: time.Minute, BatchShards: 1})
	conn, err := Dial(srv.TCPAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cp, want := refFirstPrediction(t, model, 24)
	framesBefore, _ := obs.Default.Value(`agingpred_serve_frames_total{transport="tcp"}`)
	if err := conn.Send(1, &cp); err != nil {
		t.Fatal(err)
	}
	type recvResult struct {
		got Prediction
		err error
	}
	results := make(chan recvResult, 2)
	go func() {
		got, err := conn.Recv()
		results <- recvResult{got, err}
		got, err = conn.Recv()
		results <- recvResult{got, err}
	}()
	// Recv flushed the checkpoint; wait until the server has decoded (and so
	// staged) it before draining, so the drain genuinely races a staged batch.
	waitFor(t, time.Second, func() bool {
		frames, _ := obs.Default.Value(`agingpred_serve_frames_total{transport="tcp"}`)
		return frames > framesBefore
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain with a staged batch: %v", err)
	}

	first := <-results
	if first.err != nil {
		t.Fatalf("staged prediction dropped by drain: %v", first.err)
	}
	assertBits(t, first.got, want)
	second := <-results
	var se *ServerError
	if !errors.As(second.err, &se) || se.Code != ErrCodeDraining {
		t.Fatalf("after drain: got %v, want *ServerError{draining}", second.err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("sessions after drain: %d", n)
	}
}

// FuzzBatcherInterleaving drives a batched server with an arbitrary
// interleaving of stage (CHECKPOINT), flush triggers (size, deadline via
// pauses, control frames) and evictions (CLOSE) across three connections, and
// asserts the invariant the batcher exists to preserve: every session's
// replies arrive in its own send order, bit-identical to a local reference.
func FuzzBatcherInterleaving(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xc6, 0x20, 0x21, 0xe6, 0x45, 0x66, 0x07})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x06, 0x06, 0x06, 0x06, 0x05, 0x00, 0x06})
	f.Add([]byte{0x20, 0x40, 0x00, 0x27, 0x47, 0x07, 0x20, 0x26})
	model := goldenModel(f)
	srv, err := Start(Config{
		Model: model, TCPAddr: "127.0.0.1:0",
		Batch: 4, BatchWindow: 100 * time.Microsecond, BatchShards: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		const conns = 3
		type pendingPred struct {
			seq  uint32
			want core.Prediction
		}
		type connState struct {
			conn    Conn
			replay  *fleet.Replay
			ref     *core.Session
			seq     uint32
			pending []pendingPred
			closed  bool
		}
		states := make([]*connState, conns)
		state := func(i int) *connState {
			if states[i] == nil {
				conn, err := Dial(srv.TCPAddr(), "")
				if err != nil {
					t.Fatalf("dial conn %d: %v", i, err)
				}
				seed := uint64(200 + i)
				states[i] = &connState{
					conn:   conn,
					replay: instance(seed),
					ref:    model.NewSession(),
				}
			}
			return states[i]
		}
		recvOne := func(c *connState) {
			if len(c.pending) == 0 {
				return
			}
			got, err := c.conn.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			p := c.pending[0]
			c.pending = c.pending[1:]
			if got.Seq != p.seq {
				t.Fatalf("reply seq %d, want %d: per-session order broken", got.Seq, p.seq)
			}
			if math.Float64bits(got.TTFSec) != math.Float64bits(p.want.TTFSec) ||
				math.Float64bits(got.TimeSec) != math.Float64bits(p.want.TimeSec) {
				t.Fatalf("seq %d: served ttf %v != reference %v", p.seq, got.TTFSec, p.want.TTFSec)
			}
		}
		restart := func(c *connState) {
			c.replay.Restart()
			c.ref = model.NewSession()
		}

		for _, b := range script {
			c := state(int(b>>5) % conns)
			if c.closed {
				continue
			}
			switch b & 7 {
			case 0, 1, 2, 3: // stage one checkpoint
				var cp monitor.Checkpoint
				if c.replay.Step(&cp) {
					c.conn.Resolve(ResolveCrash, c.replay.TimeSec())
					if err := c.conn.Reset(); err != nil {
						t.Fatalf("reset after crash: %v", err)
					}
					restart(c)
					continue
				}
				want, err := c.ref.Observe(cp)
				if err != nil {
					t.Fatalf("reference observe: %v", err)
				}
				c.seq++
				if err := c.conn.Send(c.seq, &cp); err != nil {
					t.Fatalf("send: %v", err)
				}
				c.pending = append(c.pending, pendingPred{seq: c.seq, want: want})
			case 4: // censored resolve between stage and flush
				if err := c.conn.Resolve(ResolveCensored, 0); err != nil {
					t.Fatalf("resolve: %v", err)
				}
			case 5: // reset between stage and flush
				if err := c.conn.Reset(); err != nil {
					t.Fatalf("reset: %v", err)
				}
				restart(c)
			case 6: // collect one reply
				recvOne(c)
			case 7: // evict: CLOSE, possibly with rows still staged
				c.conn.Close()
				c.closed = true
			}
		}
		for _, c := range states {
			if c == nil || c.closed {
				continue
			}
			for len(c.pending) > 0 {
				recvOne(c)
			}
			c.conn.Close()
		}
	})
}
