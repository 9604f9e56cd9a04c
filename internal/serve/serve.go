// Package serve is the network front-end of the prediction service: it puts a
// listener on the library's train-once/serve-everywhere core, turning the
// paper's on-line predictor into a daemon a monitored application server can
// stream its 15-second checkpoints to over a socket.
//
// Two transports share one session core:
//
//   - a compact length-prefixed binary frame protocol over raw TCP (frame.go)
//     for the hot path — pipelined CHECKPOINT in / PREDICT out, CRC-checked,
//     versioned, fuzz-hardened;
//   - NDJSON streaming over net/http (http.go) — one chunked POST per stream —
//     for debuggability: the same conversation, readable with curl.
//
// Each connection (or POST) owns exactly one per-stream session of the shared
// immutable model — a core.Session, or an adaptive adapt.Stream when the
// server runs under a Supervisor, in which case RESOLVE frames feed the
// drift detector and training buffer exactly like the in-process fleet. A
// bounded session table enforces max-sessions and idle timeouts, SIGTERM
// drains (in-flight predictions complete, new frames are refused with a typed
// ERROR), and SwapModel hot-reloads a freshly-loaded artifact through the
// same epoch machinery live streams already adopt at their next RESET.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/monitor"
	"agingpred/internal/serve/admin"
)

// Defaults for the session table.
const (
	// DefaultMaxSessions bounds concurrently-open sessions across both
	// transports.
	DefaultMaxSessions = 4096
	// DefaultIdleTimeout evicts a session that has sent nothing for this
	// long.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultAdaptEvery is how often the adaptive pump offers the Supervisor
	// a retrain/publish opportunity.
	DefaultAdaptEvery = time.Second
)

// Config describes one prediction server. Exactly one of Model and
// Supervisor must be set: Model serves frozen per-connection core.Sessions,
// Supervisor serves adaptive adapt.Streams (drift detection, label
// resolution via RESOLVE frames, background retraining, hot epoch swaps).
type Config struct {
	// Model is the immutable model served in frozen mode.
	Model *core.Model
	// Supervisor switches the server to adaptive serving; it wins over Model.
	Supervisor *adapt.Supervisor

	// TCPAddr is the binary frame protocol listen address ("" = no TCP
	// transport). ":0" picks an ephemeral port, reported by Server.TCPAddr.
	TCPAddr string
	// HTTPAddr is the NDJSON-over-HTTP listen address ("" = no HTTP
	// transport). The listener also carries the shared admin endpoints
	// (/metrics, /healthz, /debug/pprof).
	HTTPAddr string

	// MaxSessions bounds concurrently-open sessions across both transports
	// (0 = DefaultMaxSessions). Beyond it, TCP HELLOs are refused with
	// ErrCodeTooManySessions and POSTs with 503.
	MaxSessions int
	// MaxFrameBytes bounds one binary frame body (0 = DefaultMaxFrameBytes).
	MaxFrameBytes int
	// IdleTimeout evicts sessions that send nothing for this long
	// (0 = DefaultIdleTimeout; negative = no idle eviction).
	IdleTimeout time.Duration
	// AdaptEvery is the adaptive pump period: how often the server offers
	// the Supervisor a StartRetrain/TryPublish opportunity
	// (0 = DefaultAdaptEvery). Ignored in frozen mode.
	AdaptEvery time.Duration

	// Batch enables cross-connection micro-batched serving on the binary
	// transport: checkpoints from all live connections are staged into
	// per-model-epoch batch groups and evaluated with one PredictBatch sweep
	// per flush, at most Batch rows per flush (0 = scalar serving, one inline
	// evaluation per frame). Replies stay bit-identical to scalar mode; the
	// NDJSON/HTTP transport is the debug path and always serves scalar.
	Batch int
	// BatchWindow bounds how long a staged checkpoint may wait for its batch
	// to fill before a deadline flush evaluates it anyway
	// (0 = DefaultBatchWindow). Ignored when Batch is 0.
	BatchWindow time.Duration
	// BatchShards is the number of independent batching shards; sessions are
	// assigned by FNV-1a hash of their session ID, the fleet's shard
	// discipline (0 = GOMAXPROCS). Ignored when Batch is 0.
	BatchShards int
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.AdaptEvery <= 0 {
		c.AdaptEvery = DefaultAdaptEvery
	}
	if c.Batch < 0 {
		c.Batch = 0
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = DefaultBatchWindow
	}
	if c.BatchShards <= 0 {
		c.BatchShards = runtime.GOMAXPROCS(0)
	}
	return c
}

// modelEpoch is one generation of the frozen-mode serving model — the
// counterpart of adapt.Epoch for servers without a Supervisor, so hot model
// reload works identically in both modes: SwapModel publishes a new epoch
// through an atomic pointer and live sessions adopt it at their next RESET.
type modelEpoch struct {
	seq   uint32
	model *core.Model
}

// Server is one running prediction service.
type Server struct {
	cfg   Config
	sup   *adapt.Supervisor          // adaptive mode, nil otherwise
	epoch atomic.Pointer[modelEpoch] // frozen mode, nil otherwise

	draining atomic.Bool
	start    time.Time

	tcpLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	mu     sync.Mutex
	cond   *sync.Cond // broadcast when active drops
	conns  map[net.Conn]struct{}
	active int
	closed bool

	batcher  *batcher // batched binary serving, nil in scalar mode
	stopPump chan struct{}
	wg       sync.WaitGroup
}

// Start validates the configuration, binds the configured listeners and
// begins serving in the background. Stop with Drain (graceful) or Close
// (immediate).
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Supervisor == nil && cfg.Model == nil {
		return nil, errors.New("serve: config needs a Model or a Supervisor")
	}
	if cfg.Supervisor == nil && cfg.Model.Schema() == nil {
		return nil, errors.New("serve: supplied model is not a trained model (zero core.Model)")
	}
	if cfg.TCPAddr == "" && cfg.HTTPAddr == "" {
		return nil, errors.New("serve: config needs a TCPAddr or an HTTPAddr to listen on")
	}
	s := &Server{cfg: cfg, sup: cfg.Supervisor, start: time.Now(), conns: make(map[net.Conn]struct{})}
	s.cond = sync.NewCond(&s.mu)
	if s.sup == nil {
		s.epoch.Store(&modelEpoch{seq: 1, model: cfg.Model})
	}
	if cfg.Batch > 0 && cfg.TCPAddr != "" {
		s.batcher = newBatcher(s, cfg.Batch, cfg.BatchShards, cfg.BatchWindow)
	}
	if cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", cfg.TCPAddr)
		if err != nil {
			return nil, fmt.Errorf("serve: binding tcp %s: %w", cfg.TCPAddr, err)
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln)
	}
	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			if s.tcpLn != nil {
				s.tcpLn.Close()
			}
			return nil, fmt.Errorf("serve: binding http %s: %w", cfg.HTTPAddr, err)
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{
			Handler: s.Handler(),
			// Stash the net.Conn so the streaming handler can register with
			// the drain machinery (blocked reads get nudged awake).
			ConnContext: func(ctx context.Context, c net.Conn) context.Context {
				return context.WithValue(ctx, connKey{}, c)
			},
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.httpSrv.Serve(ln)
		}()
	}
	if s.sup != nil {
		s.stopPump = make(chan struct{})
		s.wg.Add(1)
		go s.adaptPump()
	}
	return s, nil
}

// TCPAddr returns the bound binary-transport address ("" when disabled).
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// HTTPAddr returns the bound HTTP-transport address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Handler returns the HTTP transport's handler: the NDJSON stream endpoint
// at /v1/stream plus the shared admin endpoints (/metrics, /healthz,
// /debug/pprof). Exposed so tests and embedding daemons can serve it without
// a listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	admin.Register(mux, s.start)
	mux.HandleFunc("/v1/stream", s.handleStream)
	return mux
}

// Adaptive reports whether the server serves adaptive streams.
func (s *Server) Adaptive() bool { return s.sup != nil }

// currentModel returns the serving model and its epoch sequence number.
func (s *Server) currentModel() (*core.Model, uint32) {
	if s.sup != nil {
		ep := s.sup.Current()
		return ep.Model, uint32(ep.Seq)
	}
	ep := s.epoch.Load()
	return ep.model, ep.seq
}

// SwapModel publishes a freshly-loaded model as a new serving epoch — the hot
// reload path behind agingserve's SIGHUP handling. In adaptive mode it goes
// through the Supervisor's epoch machinery (live adapt.Streams adopt it at
// their next Reset, exactly like a retrained epoch); in frozen mode through
// the server's own atomic epoch pointer with the same adopt-at-RESET
// contract. It returns the new epoch sequence number.
func (s *Server) SwapModel(m *core.Model) (int, error) {
	if m == nil || m.Schema() == nil {
		return 0, errors.New("serve: SwapModel needs a trained model")
	}
	if s.sup != nil {
		seq, err := s.sup.PublishModel(m)
		if err != nil {
			return 0, err
		}
		mModelSwaps.Inc()
		return seq, nil
	}
	for {
		prev := s.epoch.Load()
		next := &modelEpoch{seq: prev.seq + 1, model: m}
		if s.epoch.CompareAndSwap(prev, next) {
			mModelSwaps.Inc()
			return int(next.seq), nil
		}
	}
}

// Sessions returns the number of currently-open sessions across both
// transports.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Draining reports whether the server is refusing new work for shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the server down: listeners close, every blocked
// session is woken to finish its in-flight work and receive a typed
// ErrCodeDraining refusal for anything further, and Drain returns once the
// session table empties (or ctx expires, at which point remaining
// connections are force-closed). Safe to call once; Close afterwards is a
// no-op.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.active > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.Close()
	return err
}

// beginDrain flips the draining flag, stops accepting, and nudges every
// blocked connection awake so it can observe the flag.
func (s *Server) beginDrain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	mDraining.Set(1)
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.httpLn != nil {
		s.httpLn.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		// Waking a blocked read lets the connection loop see the draining
		// flag now instead of at its next frame (or idle timeout).
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
}

// Close force-closes the listeners and every connection. Prefer Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.draining.Store(true)
	mDraining.Set(1)
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if s.stopPump != nil {
		close(s.stopPump)
	}
	s.wg.Wait()
	if s.batcher != nil {
		// Every connection goroutine has returned, so every session's terminal
		// op is already queued (or processed); the workers drain and exit.
		s.batcher.stop()
	}
	if s.sup != nil {
		s.sup.Discard()
	}
	mDraining.Set(0)
	return nil
}

// adaptPump periodically offers the Supervisor a retrain/publish opportunity.
// The pump — not the per-frame hot path — is where background adaptation
// advances, mirroring how the fleet driver pumps its supervisor between
// ticks.
func (s *Server) adaptPump() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.AdaptEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopPump:
			return
		case <-t.C:
			s.sup.StartRetrain()
			if s.sup.TryPublish() {
				mModelSwaps.Inc()
			}
		}
	}
}

// acquireSession admits one session into the bounded table, or reports the
// table full.
func (s *Server) acquireSession() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active >= s.cfg.MaxSessions {
		return false
	}
	s.active++
	mActiveSessions.Set(float64(s.active))
	return true
}

// releaseSession returns one admitted session and wakes Drain waiters.
func (s *Server) releaseSession() {
	s.mu.Lock()
	s.active--
	mActiveSessions.Set(float64(s.active))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// trackConn registers a connection for drain nudging and Close.
func (s *Server) trackConn(c net.Conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// session is the transport-independent per-stream serving state: a frozen
// core.Session riding one model epoch, or an adaptive adapt.Stream. Both
// transports speak to exactly this, so the wire formats differ but the
// serving semantics cannot.
type session struct {
	srv    *Server
	ep     *modelEpoch   // frozen mode
	sess   *core.Session // frozen mode
	stream *adapt.Stream // adaptive mode
}

// newSession creates the per-stream state on the current model epoch. name
// labels the training runs an adaptive stream donates.
func (s *Server) newSession(name string) *session {
	if s.sup != nil {
		return &session{srv: s, stream: s.sup.NewStream(name)}
	}
	ep := s.epoch.Load()
	return &session{srv: s, ep: ep, sess: ep.model.NewSession()}
}

// observe consumes one checkpoint and returns the prediction.
func (ss *session) observe(cp monitor.Checkpoint) (core.Prediction, error) {
	if ss.stream != nil {
		return ss.stream.Observe(cp)
	}
	return ss.sess.Observe(cp)
}

// epochSeq is the sequence number PREDICT frames carry, so a client can see a
// hot swap land.
func (ss *session) epochSeq() uint32 {
	if ss.stream != nil {
		return uint32(ss.stream.Epoch())
	}
	return ss.ep.seq
}

// resolve applies a RESOLVE frame. Frozen sessions have no labels to
// resolve; the frame is accepted and ignored so one client speaks both
// modes.
func (ss *session) resolve(kind ResolveKind, crashTimeSec float64) {
	if ss.stream == nil {
		return
	}
	if kind == ResolveCrash {
		ss.stream.ResolveCrash(crashTimeSec)
	} else {
		ss.stream.ResolveCensored()
	}
}

// coreSession returns the underlying core.Session a batch stages — the
// extraction half of observe; Predict on the batch is the other half.
func (ss *session) coreSession() *core.Session {
	if ss.stream != nil {
		return ss.stream.Session()
	}
	return ss.sess
}

// record applies the bookkeeping half of an adaptive observe after a batch
// evaluated the session's staged row (frozen sessions have none): staging +
// batch Predict + record is exactly adapt.Stream.Observe, piecewise.
func (ss *session) record(cp *monitor.Checkpoint, pred core.Prediction) {
	if ss.stream != nil {
		ss.stream.Record(cp, pred)
	}
}

// reset starts a fresh stream on the connection, adopting the server's
// current model epoch — the boundary at which SwapModel (or an adaptive
// retrain) reaches this connection. Frozen mode builds the new session from
// that epoch's model, because the old session belongs to the model the
// connection started its last stream on. Recycling it through Session.Reset
// would give the same bits — a reset session is a fresh one, which
// TestLongConnectionServeDifferential pins over the wire — but could not
// adopt a swapped model, and one path for both cases is simpler. Resets
// happen at stream boundaries (crashes, rejuvenations), so the allocation is
// off the hot path.
func (ss *session) reset() {
	if ss.stream != nil {
		ss.stream.Reset()
		return
	}
	ss.ep = ss.srv.epoch.Load()
	ss.sess = ss.ep.model.NewSession()
}

// acceptLoop accepts binary-transport connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handleConn speaks the binary frame protocol on one connection: HELLO →
// WELCOME, then pipelined CHECKPOINT/PREDICT with RESOLVE/RESET/CLOSE until
// the peer closes, idles out, or the server drains. One connection = one
// session.
func (s *Server) handleConn(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	fr := newFrameReader(br, s.cfg.MaxFrameBytes)
	var f Frame
	var out []byte // reusable encode buffer

	refuse := func(code ErrorCode, msg string) {
		out, _ = AppendFrame(out[:0], &Frame{Type: FrameError, Code: code, Message: msg})
		bw.Write(out)
		out, _ = AppendFrame(out[:0], &Frame{Type: FrameClose})
		bw.Write(out)
		bw.Flush()
	}

	// The handshake runs under the idle deadline too: a connection that
	// never says HELLO must not pin a file descriptor forever.
	if s.cfg.IdleTimeout > 0 {
		nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	if err := fr.Next(&f); err != nil {
		mRejectHello.Inc()
		if !isTimeout(err) {
			refuse(ErrCodeMalformed, "expected HELLO: "+err.Error())
		}
		return
	}
	switch {
	case f.Type != FrameHello:
		mRejectHello.Inc()
		refuse(ErrCodeProtocol, "expected HELLO, got "+f.Type.String())
		return
	case f.Version != ProtocolVersion:
		mRejectHello.Inc()
		refuse(ErrCodeVersion, fmt.Sprintf("protocol version %d, server speaks %d", f.Version, ProtocolVersion))
		return
	}
	model, _ := s.currentModel()
	if f.Schema != "" && f.Schema != model.Schema().Name() {
		mRejectHello.Inc()
		refuse(ErrCodeSchema, fmt.Sprintf("serving schema %q, client asked for %q", model.Schema().Name(), f.Schema))
		return
	}
	if s.draining.Load() {
		mRejectDraining.Inc()
		refuse(ErrCodeDraining, "server is draining")
		return
	}
	if !s.acquireSession() {
		mRejectSessions.Inc()
		refuse(ErrCodeTooManySessions, fmt.Sprintf("session table full (%d)", s.cfg.MaxSessions))
		return
	}
	defer s.releaseSession()
	s.trackConn(nc)
	defer s.untrackConn(nc)

	sess := s.newSession(nc.RemoteAddr().String())
	tcpMetrics.sessions.Inc()
	model, epoch := s.currentModel()
	out, _ = AppendFrame(out[:0], &Frame{
		Type:      FrameWelcome,
		Version:   ProtocolVersion,
		Epoch:     epoch,
		ModelKind: string(model.Kind()),
		Schema:    model.Schema().Name(),
	})
	bw.Write(out)
	bw.Flush()

	if s.batcher != nil {
		// Batched mode: from here on the connection is split between a reader
		// (this goroutine), its shard's worker, and a writer goroutine; the
		// deferred close runs only after the writer has delivered everything.
		s.batcher.serveConn(nc, br, bw, fr, sess)
		return
	}

	m := tcpMetrics
	var cp monitor.Checkpoint
	for {
		// About to block: everything produced so far must reach the peer
		// first, and the blocking read gets a fresh idle deadline. Frames
		// already buffered skip both — the pipelined hot path pays neither a
		// flush nor a deadline update per frame.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
			if s.cfg.IdleTimeout > 0 {
				nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			}
		}
		if s.draining.Load() {
			mRejectDraining.Inc()
			refuse(ErrCodeDraining, "server is draining")
			return
		}
		if err := fr.Next(&f); err != nil {
			switch {
			case isTimeout(err):
				if s.draining.Load() {
					mRejectDraining.Inc()
					refuse(ErrCodeDraining, "server is draining")
				} else {
					mRejectIdle.Inc()
					refuse(ErrCodeIdle, fmt.Sprintf("no frames for %v", s.cfg.IdleTimeout))
				}
			case errors.Is(err, errFrameTooBig), errors.Is(err, errFrameCRC),
				errors.Is(err, errFrameTrunc), errors.Is(err, errFrameType),
				errors.Is(err, errFrameMagic), errors.Is(err, errFrameField),
				errors.Is(err, errFrameVecSize):
				mRejectBadFrame.Inc()
				refuse(ErrCodeMalformed, err.Error())
			}
			return // EOF and transport errors: the peer is gone, say nothing
		}
		m.frames.Inc()
		switch f.Type {
		case FrameCheckpoint:
			start := time.Now()
			*cp.Vec() = f.Vec
			pred, err := sess.observe(cp)
			if err != nil {
				refuse(ErrCodeInternal, err.Error())
				return
			}
			out, _ = AppendFrame(out[:0], &Frame{
				Type:          FramePredict,
				Seq:           f.Seq,
				Epoch:         sess.epochSeq(),
				TimeSec:       pred.TimeSec,
				TTFSec:        pred.TTFSec,
				CrashExpected: pred.CrashExpected,
			})
			// Metrics before the reply: once the client can read the
			// prediction, the counters already account for it.
			m.predictions.Inc()
			m.latency.Observe(time.Since(start).Seconds())
			if _, err := bw.Write(out); err != nil {
				return
			}
		case FrameResolve:
			sess.resolve(f.Kind, f.CrashTimeSec)
		case FrameReset:
			sess.reset()
		case FrameClose:
			out, _ = AppendFrame(out[:0], &Frame{Type: FrameClose})
			bw.Write(out)
			bw.Flush()
			return
		default:
			mRejectBadFrame.Inc()
			refuse(ErrCodeProtocol, "unexpected "+f.Type.String())
			return
		}
	}
}
