package serve

// Cross-connection micro-batched serving: the fleet's per-shard staging engine
// (core.Stager) put behind the accept loop. In batched mode (Config.Batch > 0)
// a connection reader no longer evaluates checkpoints inline; every
// session-touching frame becomes a typed op on the session's shard queue
// (core.ShardOf of the session ID), a single worker goroutine per shard stages
// CHECKPOINT rows into its Stager's per-model-epoch core.Batch groups (each a
// contiguous features.RowBatch) and evaluates each group with one
// PredictBatch sweep per flush, fanning the PREDICT frames back out through
// per-connection writer goroutines. Flushes happen when the staged rows reach
// Config.Batch, when the oldest row has waited Config.BatchWindow (so a lone
// straggler connection still gets a bounded-latency answer), or when a
// control frame (RESOLVE/RESET/CLOSE/eviction) needs the session's pending
// predictions delivered first. An idle shard blocks on its op queue alone —
// no ticker, no spinning.
//
// The serving contract is unchanged from scalar mode: staging is exactly the
// extraction half of Session.Observe and PredictBatch is defined as the
// scalar predictor applied row by row, so every reply is bit-identical to a
// scalar reference session replaying the same stream — the differential
// suite in diff_test.go pins batched vs scalar vs local reference across
// crash/RESOLVE/RESET cycles and hot model swaps. Ordering is preserved per
// session because one connection's ops land on one shard queue in arrival
// order and a control op always flushes the batch it trails.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
	"agingpred/internal/obs"
)

// DefaultBatchWindow bounds how long a staged checkpoint may wait for its
// micro-batch to fill before a deadline flush evaluates it anyway.
const DefaultBatchWindow = 500 * time.Microsecond

const (
	// batchOpQueueDepth is the per-shard op queue bound; readers block (natural
	// backpressure) when a shard worker falls this far behind.
	batchOpQueueDepth = 1024
	// writerQueueDepth is the per-connection reply-buffer queue bound. Each
	// entry is a whole flush worth of frames; a queue this deep only fills when
	// the peer has stopped reading, at which point the connection is killed
	// rather than letting one stalled client block a shard.
	writerQueueDepth = 256
	// writerBufBytes is the initial capacity of one reply buffer.
	writerBufBytes = 4 << 10
	// stageBurst caps how many consecutive CHECKPOINT frames a reader coalesces
	// into one opStage. Coalescing is what keeps the channel machinery off the
	// per-frame hot path: a pipelined client burst costs one shard-queue send
	// per stageBurst rows, not one per row.
	stageBurst = 32
)

// connWriter owns the write half of one batched-mode connection. Shard
// workers fan encoded reply buffers into its bounded queue; a dedicated
// goroutine writes them out, flushing only when the queue runs dry so a burst
// of batch flushes costs one write syscall, not one per reply.
type connWriter struct {
	nc   net.Conn
	bw   *bufio.Writer
	ch   chan []byte
	free chan []byte
	dead atomic.Bool
	done chan struct{}
}

func newConnWriter(nc net.Conn, bw *bufio.Writer) *connWriter {
	return &connWriter{
		nc:   nc,
		bw:   bw,
		ch:   make(chan []byte, writerQueueDepth),
		free: make(chan []byte, writerQueueDepth),
		done: make(chan struct{}),
	}
}

// run drains the reply queue until the owning shard worker closes it (the
// eviction point). After a transport error the writer keeps consuming, so the
// worker can never block on a dead connection.
func (w *connWriter) run() {
	defer close(w.done)
	failed := false
	for buf := range w.ch {
		if !failed {
			if _, err := w.bw.Write(buf); err != nil {
				failed = true
				w.dead.Store(true)
			} else if len(w.ch) == 0 {
				if err := w.bw.Flush(); err != nil {
					failed = true
					w.dead.Store(true)
				}
			}
		}
		select {
		case w.free <- buf[:0]:
		default:
		}
	}
	if !failed {
		w.bw.Flush()
	}
}

// buffer returns an empty reply buffer, recycling drained ones.
func (w *connWriter) buffer() []byte {
	select {
	case b := <-w.free:
		return b
	default:
		return make([]byte, 0, writerBufBytes)
	}
}

// send hands one reply buffer to the writer goroutine. A full queue means the
// peer stopped reading hundreds of flushes ago; the connection is killed (the
// reader sees the error and evicts the session) instead of blocking the shard.
func (w *connWriter) send(buf []byte) {
	if w.dead.Load() {
		return
	}
	select {
	case w.ch <- buf:
	default:
		w.dead.Store(true)
		w.nc.Close()
	}
}

type batchOpKind uint8

const (
	opJoin    batchOpKind = iota + 1 // register the session with its shard
	opStage                          // stage a run of coalesced CHECKPOINT rows
	opResolve                        // flush, then apply RESOLVE
	opReset                          // flush, then adopt the current epoch
	opClose                          // flush, echo CLOSE, evict
	opError                          // flush, typed ERROR + CLOSE, evict
	opEvict                          // flush, evict silently (peer is gone)
)

// stageRow is one decoded CHECKPOINT riding in a coalesced opStage.
type stageRow struct {
	seq   uint32
	start time.Time
	cp    monitor.Checkpoint
}

// batchOp is one unit of work handed from a connection reader to its shard
// worker. Every session-mutating frame travels through here in arrival order,
// which is what makes the single-writer shard worker race-free and keeps each
// session's reply order equal to its send order.
type batchOp struct {
	kind  batchOpKind
	bs    *batchSession
	rows  []stageRow  // opStage, in arrival order; recycled via bs.rowPool
	rkind ResolveKind // opResolve
	crash float64     // opResolve
	code  ErrorCode   // opError
	msg   string      // opError
}

// batchSession is one connection's seat in the batcher.
type batchSession struct {
	id   uint64
	sess *session
	w    *connWriter
	pend []byte // replies staged for this connection in the current flush
	// rowPool recycles stageRow slices between the reader (borrow) and the
	// shard worker (return after staging) without a per-burst allocation.
	rowPool chan []stageRow
}

func (bs *batchSession) borrowRows() []stageRow {
	select {
	case r := <-bs.rowPool:
		return r
	default:
		return make([]stageRow, 0, stageBurst)
	}
}

func (bs *batchSession) recycleRows(r []stageRow) {
	select {
	case bs.rowPool <- r[:0]:
	default:
	}
}

// batchEntry is the shard's per-row staging tag: everything the flush needs to
// fan the prediction back out and (adaptive mode) record it for label
// resolution.
type batchEntry struct {
	bs    *batchSession
	seq   uint32
	epoch uint32
	start time.Time
	cp    monitor.Checkpoint
}

// batcher is the cross-connection micro-batch engine: session-ID-sharded
// worker goroutines, each owning its sessions' state exclusively.
type batcher struct {
	srv    *Server
	size   int
	window time.Duration
	shards []*batchShard
	nextID atomic.Uint64
}

func newBatcher(s *Server, size, shards int, window time.Duration) *batcher {
	b := &batcher{srv: s, size: size, window: window}
	b.shards = make([]*batchShard, shards)
	for i := range b.shards {
		sh := &batchShard{
			bat:    b,
			ops:    make(chan batchOp, batchOpQueueDepth),
			done:   make(chan struct{}),
			staged: core.NewStager[batchEntry](size),
		}
		b.shards[i] = sh
		go sh.run()
	}
	return b
}

// stop shuts the shard workers down. The caller must guarantee no reader can
// submit further ops (Server.Close waits for every connection goroutine
// first); buffered ops — including every session's terminal op — drain before
// the workers exit.
func (b *batcher) stop() {
	for _, sh := range b.shards {
		close(sh.ops)
	}
	for _, sh := range b.shards {
		<-sh.done
	}
}

// serveConn runs the batched-mode read loop for one connection after the
// handshake. It owns only the read half: every session-touching frame becomes
// an op for the session's shard, and replies flow exclusively through the
// connWriter. The loop ends by submitting exactly one terminal op and waiting
// for the writer to finish delivering whatever the final flush produced, so
// handleConn's deferred close cannot race the last predictions onto a closed
// socket.
func (b *batcher) serveConn(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, fr *frameReader, sess *session) {
	s := b.srv
	id := b.nextID.Add(1)
	sh := b.shards[core.ShardOf(id, len(b.shards))]
	w := newConnWriter(nc, bw)
	bs := &batchSession{id: id, sess: sess, w: w, rowPool: make(chan []stageRow, 4)}
	go w.run()
	sh.submit(batchOp{kind: opJoin, bs: bs})

	terminal := batchOp{kind: opEvict, bs: bs}
	m := tcpMetrics
	var (
		f    Frame
		rows []stageRow // consecutive CHECKPOINTs coalescing toward one opStage
		now  time.Time  // stage timestamp, taken once per coalesced burst
	)
	flushRows := func() {
		if len(rows) > 0 {
			sh.submit(batchOp{kind: opStage, bs: bs, rows: rows})
			rows = nil
		}
	}
loop:
	for {
		// About to block: ship the coalesced rows (only staged rows are under
		// the shard's deadline timer) and give the blocking read a fresh idle
		// deadline. Frames already buffered skip both — the pipelined hot path
		// pays neither per frame. Flushing is the writer goroutine's job now.
		if br.Buffered() == 0 {
			flushRows()
			if s.cfg.IdleTimeout > 0 {
				nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
			}
		}
		if s.draining.Load() {
			mRejectDraining.Inc()
			terminal = batchOp{kind: opError, bs: bs, code: ErrCodeDraining, msg: "server is draining"}
			break loop
		}
		if err := fr.Next(&f); err != nil {
			switch {
			case isTimeout(err):
				if s.draining.Load() {
					mRejectDraining.Inc()
					terminal = batchOp{kind: opError, bs: bs, code: ErrCodeDraining, msg: "server is draining"}
				} else {
					mRejectIdle.Inc()
					terminal = batchOp{kind: opError, bs: bs, code: ErrCodeIdle,
						msg: fmt.Sprintf("no frames for %v", s.cfg.IdleTimeout)}
				}
			case errors.Is(err, errFrameTooBig), errors.Is(err, errFrameCRC),
				errors.Is(err, errFrameTrunc), errors.Is(err, errFrameType),
				errors.Is(err, errFrameMagic), errors.Is(err, errFrameField),
				errors.Is(err, errFrameVecSize):
				mRejectBadFrame.Inc()
				terminal = batchOp{kind: opError, bs: bs, code: ErrCodeMalformed, msg: err.Error()}
			}
			break loop // EOF and transport errors: the peer is gone, say nothing
		}
		m.frames.Inc()
		switch f.Type {
		case FrameCheckpoint:
			if rows == nil {
				rows = bs.borrowRows()
				now = time.Now()
			}
			rows = append(rows, stageRow{seq: f.Seq, start: now})
			*rows[len(rows)-1].cp.Vec() = f.Vec
			if len(rows) == cap(rows) {
				flushRows()
			}
		case FrameResolve:
			flushRows()
			sh.submit(batchOp{kind: opResolve, bs: bs, rkind: f.Kind, crash: f.CrashTimeSec})
		case FrameReset:
			flushRows()
			sh.submit(batchOp{kind: opReset, bs: bs})
		case FrameClose:
			terminal = batchOp{kind: opClose, bs: bs}
			break loop
		default:
			mRejectBadFrame.Inc()
			terminal = batchOp{kind: opError, bs: bs, code: ErrCodeProtocol, msg: "unexpected " + f.Type.String()}
			break loop
		}
	}
	flushRows()
	sh.submit(terminal)
	<-w.done
}

// batchShard is one batching worker: a queue of ops and the staging state its
// goroutine owns exclusively (no locks anywhere past the channel).
type batchShard struct {
	bat  *batcher
	ops  chan batchOp
	done chan struct{}

	// Worker-owned.
	sessions   []*batchSession
	staged     *core.Stager[batchEntry]
	touched    []*batchSession
	pending    int
	timer      *time.Timer
	timerArmed bool
}

func (sh *batchShard) submit(op batchOp) { sh.ops <- op }

func (sh *batchShard) run() {
	defer close(sh.done)
	sh.timer = time.NewTimer(time.Hour)
	sh.timer.Stop()
	for {
		if sh.pending == 0 {
			// Idle: block on the op queue alone — an idle server never spins.
			op, ok := <-sh.ops
			if !ok {
				sh.shutdown()
				return
			}
			sh.apply(op)
			continue
		}
		select {
		case op, ok := <-sh.ops:
			if !ok {
				sh.shutdown()
				return
			}
			sh.apply(op)
		case <-sh.timer.C:
			sh.timerArmed = false
			sh.flush(mFlushDeadline)
		}
	}
}

// shutdown flushes whatever is staged and closes every remaining writer.
// Reached only through Server.Close, after every connection goroutine has
// submitted its terminal op — which normally leaves the shard already empty.
func (sh *batchShard) shutdown() {
	if sh.pending > 0 {
		sh.flush(mFlushShutdown)
	}
	for _, bs := range sh.sessions {
		close(bs.w.ch)
	}
	sh.sessions = nil
}

func (sh *batchShard) apply(op batchOp) {
	bs := op.bs
	switch op.kind {
	case opJoin:
		sh.sessions = append(sh.sessions, bs)
	case opStage:
		if !bs.w.dead.Load() { // else: killed mid-pipeline; the terminal op is en route
			for i := range op.rows {
				sh.stage(bs, &op.rows[i])
				if sh.pending >= sh.bat.size {
					sh.flush(mFlushSize)
				}
			}
		}
		bs.recycleRows(op.rows)
	case opResolve:
		// Control ops flush first: an adaptive RESOLVE scores the predictions
		// Record saw, so the staged rows must be evaluated and recorded before
		// the label lands — the exact order a scalar session would have seen.
		sh.flushPending()
		bs.sess.resolve(op.rkind, op.crash)
	case opReset:
		sh.flushPending()
		bs.sess.reset()
		sh.staged.Evict(sh.serves)
	case opClose:
		sh.flushPending()
		sh.reply(bs, &Frame{Type: FrameClose})
		sh.evict(bs)
	case opError:
		sh.flushPending()
		sh.reply(bs, &Frame{Type: FrameError, Code: op.code, Message: op.msg})
		sh.reply(bs, &Frame{Type: FrameClose})
		sh.evict(bs)
	case opEvict:
		sh.flushPending()
		sh.evict(bs)
	}
}

// flushPending flushes ahead of a control op, so replies already owed to any
// session precede whatever the control op produces.
func (sh *batchShard) flushPending() {
	if sh.pending > 0 {
		sh.flush(mFlushControl)
	}
}

func (sh *batchShard) stage(bs *batchSession, row *stageRow) {
	sh.staged.Stage(bs.sess.coreSession(), &row.cp, batchEntry{
		bs: bs, seq: row.seq, epoch: bs.sess.epochSeq(), start: row.start, cp: row.cp,
	})
	sh.pending++
	if sh.pending == 1 && !sh.timerArmed {
		sh.timer.Reset(sh.bat.window)
		sh.timerArmed = true
	}
}

// serves reports whether any session on this shard still serves model m: the
// staging groups' eviction predicate (sessions change epochs at RESET and
// leave at eviction; both evict with nothing staged).
func (sh *batchShard) serves(m *core.Model) bool {
	for _, bs := range sh.sessions {
		if bs.sess.coreSession().Model() == m {
			return true
		}
	}
	return false
}

// evict removes the session from the shard and closes its writer. flushPending
// has already run, so no staged entry can reference the session afterwards —
// the invariant that makes closing the reply channel safe.
func (sh *batchShard) evict(bs *batchSession) {
	for i, s := range sh.sessions {
		if s == bs {
			sh.sessions[i] = sh.sessions[len(sh.sessions)-1]
			sh.sessions[len(sh.sessions)-1] = nil
			sh.sessions = sh.sessions[:len(sh.sessions)-1]
			break
		}
	}
	close(bs.w.ch)
	sh.staged.Evict(sh.serves)
}

// reply appends one control frame to the session's reply stream — after any
// flush output, preserving the total server→client order.
func (sh *batchShard) reply(bs *batchSession, f *Frame) {
	if bs.w.dead.Load() {
		return
	}
	buf := bs.w.buffer()
	buf, _ = AppendFrame(buf, f)
	bs.w.send(buf)
}

// flush evaluates every staged group — one PredictBatch sweep per model epoch
// — fans the PREDICT frames back out in staging order, and (adaptive mode)
// records each prediction against its stream for label resolution: exactly
// the bookkeeping half Session.Observe would have done inline.
func (sh *batchShard) flush(cause *obs.Counter) {
	touched := sh.touched[:0]
	sh.staged.Predict(func(entries []batchEntry, preds []core.Prediction, err error) {
		mBatchSize.Observe(float64(len(entries)))
		for i := range entries {
			e := &entries[i]
			if err != nil {
				// The whole group failed (unbound-model fallback only): refuse
				// each staged session and let its reader evict it.
				sh.reply(e.bs, &Frame{Type: FrameError, Code: ErrCodeInternal, Message: err.Error()})
				e.bs.w.dead.Store(true)
				e.bs.w.nc.Close()
				continue
			}
			e.bs.sess.record(&e.cp, preds[i])
			if e.bs.w.dead.Load() {
				continue
			}
			if e.bs.pend == nil {
				e.bs.pend = e.bs.w.buffer()
				touched = append(touched, e.bs)
			}
			e.bs.pend, _ = AppendFrame(e.bs.pend, &Frame{
				Type:          FramePredict,
				Seq:           e.seq,
				Epoch:         e.epoch,
				TimeSec:       preds[i].TimeSec,
				TTFSec:        preds[i].TTFSec,
				CrashExpected: preds[i].CrashExpected,
			})
			mBatchLatency.Observe(time.Since(e.start).Seconds())
		}
		if err == nil {
			tcpMetrics.predictions.Add(uint64(len(entries)))
		}
	})
	// Count the flush before any reply leaves: a client that has read its
	// prediction must find the flush that produced it already counted.
	cause.Inc()
	for i, bs := range touched {
		bs.w.send(bs.pend)
		bs.pend = nil
		touched[i] = nil
	}
	sh.touched = touched[:0]
	sh.pending = 0
	if sh.timerArmed {
		if !sh.timer.Stop() {
			select {
			case <-sh.timer.C:
			default:
			}
		}
		sh.timerArmed = false
	}
}
