package serve

// The client side of the served ≡ local contract, written once: agingload
// and the serve differential tests are all players. Only tests whose
// schedule is the thing under test still drive a Conn by hand.

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
)

// Source is one replayed instance: *fleet.Replay satisfies it.
type Source interface {
	// Step advances one checkpoint interval, writing the checkpoint into *cp
	// or reporting that the instance crashed during the interval.
	Step(cp *monitor.Checkpoint) (crashed bool)
	// TimeSec is the simulated time of the latest Step.
	TimeSec() float64
	// Restart recovers the instance after a crash or a rejuvenation.
	Restart()
}

// Tally counts what a Player has seen.
type Tally struct {
	Predictions int // replies received
	Verified    int // replies checked against a reference
	Skipped     int // replies from an epoch with no reference
	Mismatches  int // checked replies whose bits differ from the reference
	Crashes     int // streams Replay ended with RESOLVE(crash)
	// Mismatch describes the first mismatch, nil while there is none.
	Mismatch error
	// Latencies holds one send→recv time per reply.
	Latencies []time.Duration
}

// Player drives one connection's side of the prediction conversation. It
// keeps at most a window of checkpoints in flight — once the window fills it
// collects replies until half of it is left, so one flush of the client's
// outbound buffer is paid per window/2 replies — and checks every reply's
// sequence number and bits. An error from any method ends the conversation:
// the player is not usable after it. Not safe for concurrent use, like the
// Conn it drives.
type Player struct {
	Tally

	conn   Conn
	window int
	refs   []reference
	seq    uint32

	// ring holds the in-flight checkpoints, oldest at head: a fixed ring, so
	// collecting a reply moves nothing.
	ring []inflight
	head int
	n    int
}

// reference is one model's local session, fed the same checkpoints as the
// server.
type reference struct {
	epoch   uint32
	model   *core.Model
	session *core.Session
}

// inflight is one sent checkpoint awaiting its reply.
type inflight struct {
	seq   uint32
	sent  time.Time
	wants []want // one per reference; the slice is reused across the ring
}

// want is the prediction a reply from epoch must carry.
type want struct {
	epoch uint32
	pred  core.Prediction
}

// NewPlayer returns a player over conn with at most window (≥ 1) checkpoints
// in flight, checking replies against refs (see SetRefs).
func NewPlayer(conn Conn, window int, refs map[uint32]*core.Model) *Player {
	if window < 1 {
		window = 1
	}
	p := &Player{conn: conn, window: window, ring: make([]inflight, window)}
	p.SetRefs(refs)
	return p
}

// SetRefs replaces the reference models, each with a fresh session: a reply
// from epoch e must carry the bits of refs[e], and a reply from an epoch
// with no reference is counted as skipped. Epoch 0 is never served; a
// reference under key 0 stands for the connection's handshake epoch
// (Conn.Epoch), read when its replies arrive because an HTTP stream opens
// lazily. With no references, replies are only counted. Call it between
// streams: a session started mid-stream has missed the stream's beginning.
func (p *Player) SetRefs(refs map[uint32]*core.Model) {
	p.refs = p.refs[:0]
	for _, epoch := range slices.Sorted(maps.Keys(refs)) {
		p.refs = append(p.refs, reference{epoch: epoch, model: refs[epoch]})
	}
	p.freshSessions()
}

func (p *Player) freshSessions() {
	for i := range p.refs {
		p.refs[i].session = p.refs[i].model.NewSession()
	}
}

// Send observes cp on every reference session and sends it under the next
// sequence number; if that fills the window, it collects replies until half
// the window is left (none, for a window of 1: lockstep).
func (p *Player) Send(cp *monitor.Checkpoint) error {
	e := &p.ring[(p.head+p.n)%p.window]
	e.wants = e.wants[:0]
	for _, r := range p.refs {
		pred, err := r.session.Observe(*cp)
		if err != nil {
			return fmt.Errorf("serve: local reference session: %w", err)
		}
		e.wants = append(e.wants, want{epoch: r.epoch, pred: pred})
	}
	p.seq++
	e.seq, e.sent = p.seq, time.Now()
	if err := p.conn.Send(p.seq, cp); err != nil {
		return err
	}
	if p.n++; p.n == p.window {
		for p.n > p.window/2 {
			if err := p.recv(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Drain collects every reply still in flight.
func (p *Player) Drain() error {
	for p.n > 0 {
		if err := p.recv(); err != nil {
			return err
		}
	}
	return nil
}

// Boundary ends the stream: it drains, sends RESOLVE(kind, crashTimeSec)
// and RESET, and starts a fresh session for every reference.
func (p *Player) Boundary(kind ResolveKind, crashTimeSec float64) error {
	if err := p.Drain(); err != nil {
		return err
	}
	if err := p.conn.Resolve(kind, crashTimeSec); err != nil {
		return err
	}
	if err := p.conn.Reset(); err != nil {
		return err
	}
	p.freshSessions()
	return nil
}

// Replay plays ticks checkpoint intervals of src. A crash ends the stream
// with RESOLVE(crash) at the crash time, RESET and a restart of src, and the
// replay goes on with the recovered instance; the last tick ends the stream
// censored, like a rejuvenation, with RESOLVE(censored), RESET and a restart.
func (p *Player) Replay(src Source, ticks int) error {
	var cp monitor.Checkpoint
	for range ticks {
		if src.Step(&cp) {
			p.Crashes++
			if err := p.Boundary(ResolveCrash, src.TimeSec()); err != nil {
				return err
			}
			src.Restart()
			continue
		}
		if err := p.Send(&cp); err != nil {
			return err
		}
	}
	if err := p.Boundary(ResolveCensored, 0); err != nil {
		return err
	}
	src.Restart()
	return nil
}

// recv collects the oldest in-flight reply and checks it.
func (p *Player) recv() error {
	e := &p.ring[p.head]
	p.head = (p.head + 1) % p.window
	p.n--
	got, err := p.conn.Recv()
	if err != nil {
		return err
	}
	p.Latencies = append(p.Latencies, time.Since(e.sent))
	p.Predictions++
	if got.Seq != e.seq {
		return fmt.Errorf("serve: reply seq %d, want %d (per-session order broken)", got.Seq, e.seq)
	}
	for _, w := range e.wants {
		epoch := w.epoch
		if epoch == 0 {
			epoch = p.conn.Epoch()
		}
		if epoch != got.Epoch {
			continue
		}
		p.Verified++
		if math.Float64bits(got.TimeSec) != math.Float64bits(w.pred.TimeSec) ||
			math.Float64bits(got.TTFSec) != math.Float64bits(w.pred.TTFSec) ||
			got.CrashExpected != w.pred.CrashExpected {
			p.Mismatches++
			if p.Mismatch == nil {
				p.Mismatch = fmt.Errorf("seq %d epoch %d mismatch: got (t=%v ttf=%v crash=%v), want (t=%v ttf=%v crash=%v)",
					got.Seq, got.Epoch, got.TimeSec, got.TTFSec, got.CrashExpected,
					w.pred.TimeSec, w.pred.TTFSec, w.pred.CrashExpected)
			}
		}
		return nil
	}
	if len(e.wants) > 0 {
		p.Skipped++
	}
	return nil
}
