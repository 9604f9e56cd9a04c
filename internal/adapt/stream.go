package adapt

import (
	"fmt"

	"agingpred/internal/core"
	"agingpred/internal/monitor"
)

// Stream is the adaptive counterpart of a core.Session: the per-stream
// serving state of one monitored checkpoint stream under a Supervisor. On
// top of the session's sliding-window feature state it remembers every
// prediction it issues (and, when run collection is enabled, the checkpoint
// history, XOR-delta encoded) until the stream's outcome resolves the labels:
//
//   - ResolveCrash scores the remembered predictions against the
//     now-observable true time to failure, feeds the errors to the drift
//     detector, and turns the checkpoint history into a labeled training run
//     for the Supervisor's buffer;
//   - ResolveCensored discards them (a rejuvenation means no crash was
//     observed, so the predictions cannot be scored);
//   - Reset clears the sliding-window state for the recovered stream and
//     adopts the Supervisor's current model epoch if a newer one was
//     published while the old session was serving.
//
// Like core.Session, a Stream serves one checkpoint stream and is not safe
// for concurrent use itself; streams are the unit of concurrency. The Observe
// hot path reads the epoch it already holds — it never touches the
// Supervisor, takes no locks, and in steady state allocates nothing (the
// prediction buffers and the history's blocks are reused across Resets).
type Stream struct {
	sup   *Supervisor
	epoch *Epoch
	sess  *core.Session
	name  string
	runs  int
	seen  int // checkpoints observed since the last Reset, for warm-up exclusion

	// Pending label resolution: the prediction issued at times[i] was
	// preds[i] seconds to failure. hist additionally keeps the checkpoints
	// when run collection is on. All three are reused across Resets.
	times []float64
	preds []float64
	hist  history
}

// NewStream creates a fresh adaptive per-stream serving state on the current
// model epoch. name labels the training runs the stream collects.
func (s *Supervisor) NewStream(name string) *Stream {
	epoch := s.Current()
	return &Stream{sup: s, epoch: epoch, sess: epoch.Model.NewSession(), name: name}
}

// Supervisor returns the stream's supervisor.
func (st *Stream) Supervisor() *Supervisor { return st.sup }

// Epoch returns the sequence number of the model epoch the stream is
// currently serving with.
func (st *Stream) Epoch() int { return st.epoch.Seq }

// Observe consumes one live checkpoint and returns the prediction for it,
// remembering the pair for later label resolution. Steady-state cost is one
// core.Session.Observe plus two buffered appends and one history push — no
// locks, no Supervisor access, no allocations once the buffers have grown to
// the stream's usual run length.
func (st *Stream) Observe(cp monitor.Checkpoint) (core.Prediction, error) {
	pred, err := st.sess.Observe(cp)
	if err != nil {
		return pred, err
	}
	st.Record(&cp, pred)
	return pred, nil
}

// Session returns the stream's current core.Session — the extraction and
// prediction half of Observe. Batch serving (core.Batch) stages the session
// directly and then hands the issued prediction back through Record; the two
// calls together are exactly Observe.
func (st *Stream) Session() *core.Session { return st.sess }

// Record remembers one issued prediction for later label resolution — the
// bookkeeping half of Observe, split out so batch serving can evaluate the
// session through a core.Batch and still feed the adaptive layer. cp must be
// the checkpoint the prediction was issued for; it is read, never retained
// (the history stores it encoded).
func (st *Stream) Record(cp *monitor.Checkpoint, pred core.Prediction) {
	st.seen++
	if st.seen > st.sup.cfg.WarmupCheckpoints {
		// Warm-up predictions (sliding windows still filling) are excluded
		// from label feedback: every model mispredicts there, so scoring them
		// would only blur the drift signal.
		st.times = append(st.times, cp.TimeSec)
		st.preds = append(st.preds, pred.TTFSec)
	}
	if !st.sup.cfg.DisableCollection {
		st.hist.push(cp)
	}
}

// ResolveCrash reports that the stream's server crashed at crashTimeSec: the
// pending predictions are scored against the now-known true time to failure
// and fed to the drift detector, and — when run collection is enabled — the
// checkpoint history becomes a labeled run-to-crash execution in the
// Supervisor's training buffer. It returns how many predictions were
// resolved. The stream is left empty; call Reset when the server comes back.
func (st *Stream) ResolveCrash(crashTimeSec float64) int {
	n := 0
	for i, t := range st.times {
		if t > crashTimeSec {
			continue
		}
		// Reuse times[] in place as the error batch: |predicted − (crash − t)|.
		e := st.preds[i] - (crashTimeSec - t)
		if e < 0 {
			e = -e
		}
		st.times[n] = e
		n++
	}
	st.sup.resolveErrors(st.times[:n])
	if !st.sup.cfg.DisableCollection && st.hist.n > 0 {
		// Decode once, then keep and label, in place, the checkpoints up to
		// the crash.
		all := st.hist.appendTo(make([]monitor.Checkpoint, 0, st.hist.n))
		cps := all[:0]
		for _, cp := range all {
			if cp.TimeSec > crashTimeSec {
				continue
			}
			cp.TTFSec = crashTimeSec - cp.TimeSec
			cps = append(cps, cp)
		}
		interval := monitor.DefaultInterval.Seconds()
		if len(cps) >= 2 {
			interval = cps[1].TimeSec - cps[0].TimeSec
		}
		st.runs++
		st.sup.AddRun(&monitor.Series{
			Name:         fmt.Sprintf("%s/run-%d", st.name, st.runs),
			IntervalSec:  interval,
			Checkpoints:  cps,
			Crashed:      true,
			CrashTimeSec: crashTimeSec,
			CrashReason:  "observed crash",
		})
	}
	st.clear()
	return n
}

// ResolveCensored discards the pending predictions and checkpoint history:
// the stream's server was rejuvenated (or re-pointed), so no crash was
// observed and the labels will never resolve.
func (st *Stream) ResolveCensored() {
	st.clear()
}

// Reset prepares the stream for the recovered (or re-pointed) server: any
// still-pending predictions are censored, and the stream adopts the
// Supervisor's current model epoch — a fresh session when a newer epoch was
// published, a zero-allocation sliding-window reset otherwise. This is the
// boundary at which a hot-swapped model reaches live serving.
func (st *Stream) Reset() {
	st.clear()
	if cur := st.sup.Current(); cur != st.epoch {
		st.epoch = cur
		st.sess = cur.Model.NewSession()
		return
	}
	st.sess.Reset()
}

func (st *Stream) clear() {
	st.times = st.times[:0]
	st.preds = st.preds[:0]
	st.hist.reset()
	st.seen = 0
}
