package serve

// The NDJSON transport: the same conversation as the binary frame protocol,
// readable with curl. One chunked POST to /v1/stream is one session — request
// lines carry checkpoints (full monitor field names, not a packed vector),
// resolve/reset markers and an optional close; each checkpoint is answered by
// one prediction line, flushed immediately. JSON float64 round-trips exactly
// (Go emits the shortest representation that re-parses to the same bits), so
// end-to-end bit-identity checks hold on this transport too.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"agingpred/internal/monitor"
)

// StreamRequest is one NDJSON request line: exactly one of Checkpoint,
// Resolve, Reset or Close must be set.
type StreamRequest struct {
	// Seq is an optional client sequence number, echoed on the prediction.
	Seq uint32 `json:"seq,omitempty"`
	// Checkpoint asks for one prediction.
	Checkpoint *monitor.Checkpoint `json:"checkpoint,omitempty"`
	// Resolve reports the stream's outcome for adaptive label resolution.
	Resolve *StreamResolve `json:"resolve,omitempty"`
	// Reset starts a fresh stream, adopting the server's current model epoch.
	Reset bool `json:"reset,omitempty"`
	// Close ends the conversation gracefully.
	Close bool `json:"close,omitempty"`
}

// StreamResolve is the NDJSON form of a RESOLVE frame.
type StreamResolve struct {
	// Kind is "crash" or "censored".
	Kind string `json:"kind"`
	// CrashTimeSec is the observed crash time (kind "crash" only).
	CrashTimeSec float64 `json:"crash_time_sec,omitempty"`
}

// StreamReply is one NDJSON response line: a prediction or a typed error.
type StreamReply struct {
	Seq     uint32         `json:"seq,omitempty"`
	Predict *StreamPredict `json:"predict,omitempty"`
	Error   *StreamError   `json:"error,omitempty"`
}

// StreamPredict is the NDJSON form of a PREDICT frame.
type StreamPredict struct {
	Epoch         uint32  `json:"epoch"`
	TimeSec       float64 `json:"time_sec"`
	TTFSec        float64 `json:"ttf_sec"`
	CrashExpected bool    `json:"crash_expected"`
}

// StreamError is the NDJSON form of an ERROR frame; Code is the ErrorCode
// name ("draining", "idle", ...).
type StreamError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// connKey carries the underlying net.Conn through the request context so a
// streaming handler can register with the drain machinery (Server.trackConn
// nudges blocked reads awake when draining begins).
type connKey struct{}

// httpRefuse rejects a stream before it opens, carrying the typed ErrorCode
// in a header so clients do not have to re-derive it from the HTTP status.
// Connection: close matters beyond hygiene: without it the server tries to
// drain the chunked request body before finishing the response so it can
// reuse the connection, and a streaming client holding its upload pipe open
// would deadlock against that drain.
func httpRefuse(w http.ResponseWriter, code ErrorCode, status int, msg string) {
	w.Header().Set("Agingpred-Error-Code", code.String())
	w.Header().Set("Connection", "close")
	http.Error(w, msg, status)
}

// handleStream serves one NDJSON session per POST.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST one NDJSON stream per request", http.StatusMethodNotAllowed)
		return
	}
	model, epoch := s.currentModel()
	if want := r.URL.Query().Get("schema"); want != "" && want != model.Schema().Name() {
		mRejectHello.Inc()
		httpRefuse(w, ErrCodeSchema, http.StatusBadRequest,
			fmt.Sprintf("serving schema %q, client asked for %q", model.Schema().Name(), want))
		return
	}
	if s.draining.Load() {
		mRejectDraining.Inc()
		httpRefuse(w, ErrCodeDraining, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !s.acquireSession() {
		mRejectSessions.Inc()
		httpRefuse(w, ErrCodeTooManySessions, http.StatusServiceUnavailable,
			fmt.Sprintf("session table full (%d)", s.cfg.MaxSessions))
		return
	}
	defer s.releaseSession()
	if c, ok := r.Context().Value(connKey{}).(net.Conn); ok {
		s.trackConn(c)
		defer s.untrackConn(c)
	}

	sess := s.newSession(r.RemoteAddr)
	m := httpMetrics
	m.sessions.Inc()

	// The WELCOME equivalent rides the response headers, so a client knows
	// what it is talking to before the first prediction line.
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("Agingpred-Protocol-Version", fmt.Sprint(ProtocolVersion))
	h.Set("Agingpred-Epoch", fmt.Sprint(epoch))
	h.Set("Agingpred-Model", string(model.Kind()))
	h.Set("Agingpred-Schema", model.Schema().Name())
	rc := http.NewResponseController(w)
	// Without full duplex an HTTP/1.1 handler loses the request body at its
	// first response write; this conversation interleaves reads and writes
	// for its whole lifetime.
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, "transport cannot stream bidirectionally", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
	rc.Flush()
	enc := json.NewEncoder(w)
	dec := json.NewDecoder(r.Body)

	reply := func(rep StreamReply) bool {
		if enc.Encode(rep) != nil {
			return false
		}
		return rc.Flush() == nil
	}
	refuse := func(seq uint32, code ErrorCode, msg string) {
		reply(StreamReply{Seq: seq, Error: &StreamError{Code: code.String(), Message: msg}})
	}

	var req StreamRequest
	for {
		if s.cfg.IdleTimeout > 0 {
			rc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		if s.draining.Load() {
			mRejectDraining.Inc()
			refuse(0, ErrCodeDraining, "server is draining")
			return
		}
		req = StreamRequest{}
		if err := dec.Decode(&req); err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
				// The peer finished its stream without an explicit close line.
			case isTimeout(err):
				if s.draining.Load() {
					mRejectDraining.Inc()
					refuse(0, ErrCodeDraining, "server is draining")
				} else {
					mRejectIdle.Inc()
					refuse(0, ErrCodeIdle, fmt.Sprintf("no lines for %v", s.cfg.IdleTimeout))
				}
			default:
				mRejectBadFrame.Inc()
				refuse(0, ErrCodeMalformed, err.Error())
			}
			return
		}
		m.frames.Inc()
		switch {
		case req.Checkpoint != nil:
			start := time.Now()
			pred, err := sess.observe(*req.Checkpoint)
			if err != nil {
				refuse(req.Seq, ErrCodeInternal, err.Error())
				return
			}
			// Metrics before the reply, as on the TCP path.
			m.predictions.Inc()
			m.latency.Observe(time.Since(start).Seconds())
			if !reply(StreamReply{Seq: req.Seq, Predict: &StreamPredict{
				Epoch:         sess.epochSeq(),
				TimeSec:       pred.TimeSec,
				TTFSec:        pred.TTFSec,
				CrashExpected: pred.CrashExpected,
			}}) {
				return
			}
		case req.Resolve != nil:
			switch req.Resolve.Kind {
			case "crash":
				sess.resolve(ResolveCrash, req.Resolve.CrashTimeSec)
			case "censored":
				sess.resolve(ResolveCensored, 0)
			default:
				mRejectBadFrame.Inc()
				refuse(req.Seq, ErrCodeProtocol, fmt.Sprintf("unknown resolve kind %q", req.Resolve.Kind))
				return
			}
		case req.Reset:
			sess.reset()
		case req.Close:
			return
		default:
			mRejectBadFrame.Inc()
			refuse(req.Seq, ErrCodeProtocol, "line carries no checkpoint, resolve, reset or close")
			return
		}
	}
}
