// Command agingserve is the network prediction daemon: it puts the library's
// serving stack behind real sockets, so a monitored application server (or
// the agingload generator) streams its 15-second checkpoints to a predictor
// process instead of linking the library.
//
// Two transports serve the same session core:
//
//	agingserve -load model.bin -tcp :7070 -http :8080
//
// -tcp speaks the compact binary frame protocol (the hot path; see the
// internal/serve package docs for the wire format), -http speaks NDJSON over
// one chunked POST to /v1/stream — the same conversation, readable with
// curl — and also carries the shared admin endpoints: /metrics (Prometheus
// text format), /healthz (JSON liveness) and /debug/pprof.
//
// With -batch N the TCP transport switches to the cross-connection batching
// backend: checkpoint frames from all live connections are hash-partitioned
// into worker shards and grouped into micro-batches of up to N rows, each
// evaluated with one batched model call and fanned back out — a partial batch
// flushes after -batch-window. Replies stay bit-identical to scalar mode; the
// NDJSON transport always serves scalar.
//
// The served model comes from -load (a versioned artifact from `agingpredict
// -save` or `agingfleet -save`), or is trained at startup from the fleet
// training executions of -seed when -load is absent. Each connection owns its
// own per-stream session of the shared immutable model; with -adaptive each
// connection owns an adaptive stream instead — RESOLVE frames feed crash
// labels to the drift detector and training buffer, and a background worker
// retrains and hot-swaps model epochs under the live sessions.
//
// Signals: SIGHUP re-reads the -load artifact and publishes it as a new
// serving epoch (live streams adopt it at their next RESET); SIGTERM/SIGINT
// drain — listeners close, in-flight predictions complete, new frames are
// refused with a typed ERROR — and the process exits 0 once the session
// table empties (or -drain-timeout expires).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"agingpred"
	"agingpred/internal/fleet"
	"agingpred/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agingserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("agingserve", flag.ContinueOnError)
	var (
		tcpAddr      = fs.String("tcp", ":7070", "binary frame protocol listen address (\"\" = disable the TCP transport)")
		httpAddr     = fs.String("http", ":8080", "NDJSON + admin (/metrics, /healthz, pprof) listen address (\"\" = disable the HTTP transport)")
		loadPath     = fs.String("load", "", "serve a saved model artifact instead of training at startup; also the artifact SIGHUP hot-reloads")
		seed         = fs.Uint64("seed", 1, "training seed when no -load artifact is given")
		adaptive     = fs.Bool("adaptive", false, "adaptive serving: per-connection streams resolve crash labels via RESOLVE frames, a drift detector watches the error, and retrained model epochs hot-swap under live sessions")
		maxSessions  = fs.Int("max-sessions", serve.DefaultMaxSessions, "max concurrently-open sessions across both transports")
		maxFrame     = fs.Int("max-frame", serve.DefaultMaxFrameBytes, "max binary frame body size in bytes")
		idle         = fs.Duration("idle", serve.DefaultIdleTimeout, "evict sessions that send nothing for this long (negative = never)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for the session table to empty before force-closing")
		batch        = fs.Int("batch", 0, "cross-connection micro-batching: collect up to this many checkpoints across TCP connections per model evaluation (0 = scalar, one evaluation per frame)")
		batchWindow  = fs.Duration("batch-window", serve.DefaultBatchWindow, "micro-batch flush deadline: a partial batch waits at most this long for more rows")
		batchShards  = fs.Int("batch-shards", 0, "batching worker shards; sessions are hash-partitioned across them (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The handler goes in before start-up work: a signal that arrives while
	// the model trains, or right after the listener line, waits in the
	// channel and is served once the server is up, instead of killing the
	// process with the default action.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)

	model, err := loadOrTrain(*loadPath, *seed)
	if err != nil {
		return err
	}
	cfg := agingpred.ServeConfig{
		TCPAddr:       *tcpAddr,
		HTTPAddr:      *httpAddr,
		MaxSessions:   *maxSessions,
		MaxFrameBytes: *maxFrame,
		IdleTimeout:   *idle,
		Batch:         *batch,
		BatchWindow:   *batchWindow,
		BatchShards:   *batchShards,
	}
	if *adaptive {
		sup, err := agingpred.NewSupervisor(agingpred.AdaptConfig{}, model)
		if err != nil {
			return err
		}
		cfg.Supervisor = sup
	} else {
		cfg.Model = model
	}
	srv, err := agingpred.Serve(cfg)
	if err != nil {
		return err
	}
	mode := "frozen"
	if *adaptive {
		mode = "adaptive"
	}
	fmt.Fprintf(os.Stderr, "agingserve: serving %s model %s (schema %s, %s)",
		mode, model.Kind(), model.Schema().Name(), sourceDesc(*loadPath, *seed))
	if *batch > 0 {
		fmt.Fprintf(os.Stderr, " batch=%d/%s", *batch, *batchWindow)
	}
	if a := srv.TCPAddr(); a != "" {
		fmt.Fprintf(os.Stderr, " tcp=%s", a)
	}
	if a := srv.HTTPAddr(); a != "" {
		fmt.Fprintf(os.Stderr, " http=%s", a)
	}
	fmt.Fprintln(os.Stderr)

	for sig := range sigs {
		if sig != syscall.SIGHUP {
			fmt.Fprintf(os.Stderr, "agingserve: %s: draining %d sessions\n", sig, srv.Sessions())
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := srv.Drain(ctx)
			cancel()
			if err != nil {
				fmt.Fprintf(os.Stderr, "agingserve: drain: %v (force-closed)\n", err)
			}
			return nil
		}
		// SIGHUP: hot model reload through the epoch machinery.
		if *loadPath == "" {
			fmt.Fprintln(os.Stderr, "agingserve: SIGHUP ignored: no -load artifact to reload")
			continue
		}
		m, err := agingpred.LoadModel(*loadPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agingserve: SIGHUP reload: %v (old epoch keeps serving)\n", err)
			continue
		}
		epoch, err := srv.SwapModel(m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agingserve: SIGHUP reload: %v\n", err)
			continue
		}
		fmt.Fprintf(os.Stderr, "agingserve: reloaded %s as epoch %d\n", *loadPath, epoch)
	}
	return nil
}

// loadOrTrain resolves the served model: a saved artifact, or a fresh
// training round on the fleet training executions.
func loadOrTrain(loadPath string, seed uint64) (*agingpred.Model, error) {
	if loadPath != "" {
		return agingpred.LoadModel(loadPath)
	}
	return fleet.TrainModel(seed)
}

func sourceDesc(loadPath string, seed uint64) string {
	if loadPath != "" {
		return "from " + loadPath
	}
	return fmt.Sprintf("trained at startup, seed %d", seed)
}
