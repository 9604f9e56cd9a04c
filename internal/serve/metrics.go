package serve

import "agingpred/internal/obs"

// The serving front-end's metric series, registered once at package init into
// the process-wide registry (agingfleet/agingserve expose it at /metrics).
// Handles are resolved per transport here, never on the per-frame hot path.
type transportMetrics struct {
	sessions    *obs.Counter
	frames      *obs.Counter
	predictions *obs.Counter
	latency     *obs.Histogram
}

var (
	mActiveSessions = obs.Default.Gauge("agingpred_serve_sessions_active",
		"Currently open prediction sessions across both transports.")
	mDraining = obs.Default.Gauge("agingpred_serve_draining",
		"1 while the server is draining for shutdown, else 0.")
	mModelSwaps = obs.Default.Counter("agingpred_serve_model_swaps_total",
		"Hot model reloads published to the serving epoch machinery.")

	mRejectSessions = rejectCounter("too-many-sessions")
	mRejectDraining = rejectCounter("draining")
	mRejectIdle     = rejectCounter("idle")
	mRejectBadFrame = rejectCounter("malformed")
	mRejectHello    = rejectCounter("handshake")

	tcpMetrics  = newTransportMetrics("tcp")
	httpMetrics = newTransportMetrics("http")

	// Batched-mode series (Config.Batch > 0). Batch latency is the batched
	// counterpart of agingpred_serve_frame_latency_seconds — observing stage
	// (checkpoint decoded) to prediction frame encoded — so the two series
	// are the scalar-vs-batched latency A/B. Both are observed before the
	// reply is handed to the socket, so a client that has read a prediction
	// finds it counted.
	mBatchSize = obs.Default.Histogram("agingpred_serve_batch_size",
		"Rows per cross-connection micro-batch flush.",
		obs.ExpBuckets(1, 2, 10))
	mBatchLatency = obs.Default.Histogram("agingpred_serve_batch_latency_seconds",
		"Batched-mode latency from checkpoint frame decoded to prediction frame encoded.",
		obs.ExpBuckets(1e-6, 4, 10))

	mFlushSize     = flushCounter("size")
	mFlushDeadline = flushCounter("deadline")
	mFlushControl  = flushCounter("control")
	mFlushShutdown = flushCounter("shutdown")
)

func flushCounter(cause string) *obs.Counter {
	return obs.Default.Counter("agingpred_serve_batch_flushes_total",
		"Micro-batch flushes, by cause: batch full, deadline expired, control frame, or server shutdown.",
		obs.Label{Key: "cause", Value: cause})
}

func rejectCounter(reason string) *obs.Counter {
	return obs.Default.Counter("agingpred_serve_rejects_total",
		"Refused connections, sessions and frames, by reason.",
		obs.Label{Key: "reason", Value: reason})
}

func newTransportMetrics(transport string) *transportMetrics {
	l := obs.Label{Key: "transport", Value: transport}
	return &transportMetrics{
		sessions: obs.Default.Counter("agingpred_serve_sessions_total",
			"Prediction sessions opened, by transport.", l),
		frames: obs.Default.Counter("agingpred_serve_frames_total",
			"Frames (or NDJSON lines) received, by transport.", l),
		predictions: obs.Default.Counter("agingpred_serve_predictions_total",
			"Predictions made for network clients, by transport, counted before the reply is written.", l),
		latency: obs.Default.Histogram("agingpred_serve_frame_latency_seconds",
			"Server-side latency from checkpoint frame decoded to prediction made, observed before the reply is written.",
			obs.ExpBuckets(1e-6, 4, 10), l),
	}
}
