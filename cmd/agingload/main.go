// Command agingload drives a running agingserve daemon over real sockets: it
// replays a fleet.Specs-drawn heterogeneous instance population — the same
// deterministic simulated servers the fleet subsystem schedules in-process —
// as prediction streams over the network, and reports end-to-end throughput
// and latency.
//
//	agingload -addr 127.0.0.1:7070 -instances 64 -conns 4 -duration 2m
//
// Each connection serves its share of the population sequentially through
// one serve.Player, the conversation the serve differential tests drive too:
// one instance is one stream (checkpoints in order, RESOLVE at its crash or
// censoring, RESET between instances), with up to -window checkpoints
// pipelined ahead so both directions of the socket stay busy. -transport
// picks the binary frame protocol (the hot path) or NDJSON over HTTP — the
// same conversation, so the two are directly A/B-comparable.
//
// Correctness rides along, not just throughput: with -load pointing at the
// artifact the server serves, every -verify-every'th instance also runs a
// local reference session on the same checkpoints, and each returned
// prediction must match the local one bit for bit (time, TTF and the crash
// flag). Any mismatch fails the run, and the first one is printed. The
// reference stands for the handshake's epoch: a hot-swapped epoch changes
// the answers by design, so predictions from any other epoch are counted as
// skipped, not checked.
//
// -duration is simulated stream time per instance (15 s checkpoints), not
// wall time: the generator sends as fast as the server answers. -sweep 1,2,4,8
// replays the whole run at each connection count in turn — a concurrency
// sweep, one result line per point — so the batched server's cross-connection
// behaviour can be driven and verified at several fan-ins in one call. Speed
// claims are measured by perfbench's serve-stream workload, not by this tool.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
	"agingpred/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "agingload:", err)
		os.Exit(1)
	}
}

type options struct {
	addr        string
	transport   string
	schema      string
	seed        uint64
	instances   int
	conns       int
	window      int
	ticks       int
	verifyEvery int
	model       *core.Model // reference, loaded only when verifyEvery > 0
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("agingload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opts     options
		duration time.Duration
		sweep    string
		loadPath string
	)
	fs.StringVar(&opts.addr, "addr", "127.0.0.1:7070", "server address: host:port of the -transport listener")
	fs.StringVar(&opts.transport, "transport", "binary", "transport to drive: binary (frame protocol) or http (NDJSON)")
	fs.StringVar(&opts.schema, "schema", "", "feature schema to request at the handshake (\"\" = accept the server's)")
	fs.IntVar(&opts.instances, "instances", 64, "replayed instances (fleet.Specs population size)")
	fs.IntVar(&opts.conns, "conns", 4, "concurrent connections; each serves its share of the instances sequentially")
	fs.DurationVar(&duration, "duration", 2*time.Minute, "simulated stream time per instance (15s checkpoints), not wall time")
	fs.Uint64Var(&opts.seed, "seed", 1, "population seed (same seed = same instances as agingfleet)")
	fs.IntVar(&opts.window, "window", 32, "checkpoints pipelined ahead per connection")
	fs.StringVar(&sweep, "sweep", "", "comma-separated connection counts to sweep (e.g. 1,4,16); overrides -conns, one result line per point")
	fs.StringVar(&loadPath, "load", "", "model artifact for local reference verification (must be what the server serves)")
	fs.IntVar(&opts.verifyEvery, "verify-every", 8, "verify every Nth instance bit-for-bit against the local reference (0 = none; needs -load)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.transport != "binary" && opts.transport != "http" {
		return fmt.Errorf("unknown -transport %q (binary or http)", opts.transport)
	}
	if opts.instances <= 0 || opts.conns <= 0 || opts.window <= 0 {
		return fmt.Errorf("-instances, -conns and -window must be positive")
	}
	if opts.ticks = int(duration / monitor.DefaultInterval); opts.ticks < 1 {
		return fmt.Errorf("-duration %v is shorter than one %v checkpoint interval", duration, monitor.DefaultInterval)
	}
	if loadPath != "" && opts.verifyEvery > 0 {
		f, err := os.Open(loadPath)
		if err != nil {
			return fmt.Errorf("loading reference model: %w", err)
		}
		opts.model, err = core.DecodeModel(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading reference model: %w", err)
		}
	}

	points := []int{opts.conns}
	if sweep != "" {
		pts, err := parseSweep(sweep)
		if err != nil {
			return err
		}
		points = pts
	}

	mismatches := 0
	for _, c := range points {
		o := opts
		o.conns = c
		if o.conns > o.instances {
			o.conns = o.instances
		}
		res, elapsed, err := drive(o)
		if err != nil {
			return err
		}
		cps := float64(res.Predictions) / elapsed.Seconds()
		fmt.Fprintf(stderr,
			"agingload: %s: %d instances over %d conns: %d checkpoints in %.2fs = %.0f cps, latency p50 %s p99 %s, %d crashes\n",
			o.transport, o.instances, o.conns, res.Predictions, elapsed.Seconds(), cps,
			percentile(res.Latencies, 0.50).Round(time.Microsecond),
			percentile(res.Latencies, 0.99).Round(time.Microsecond),
			res.Crashes)
		if res.Mismatch != nil {
			fmt.Fprintf(stderr, "agingload: %v\n", res.Mismatch)
		}
		if o.model != nil {
			fmt.Fprintf(stderr, "agingload: verified %d sampled predictions bit-for-bit: %d mismatches (%d skipped after epoch swap)\n",
				res.Verified, res.Mismatches, res.Skipped)
		}
		mismatches += res.Mismatches
	}
	if mismatches > 0 {
		return fmt.Errorf("%d sampled predictions did not match the local reference", mismatches)
	}
	return nil
}

// parseSweep turns "1,4,16" into connection counts for a concurrency sweep.
func parseSweep(s string) ([]int, error) {
	var points []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sweep point %q (want positive connection counts, comma-separated)", part)
		}
		points = append(points, n)
	}
	return points, nil
}

// merge adds one connection's tally to the run's, keeping the first
// mismatch.
func merge(dst *serve.Tally, t serve.Tally) {
	dst.Predictions += t.Predictions
	dst.Verified += t.Verified
	dst.Skipped += t.Skipped
	dst.Mismatches += t.Mismatches
	dst.Crashes += t.Crashes
	if dst.Mismatch == nil {
		dst.Mismatch = t.Mismatch
	}
	dst.Latencies = append(dst.Latencies, t.Latencies...)
}

// drive replays the population over opts.conns concurrent connections and
// aggregates their tallies.
func drive(opts options) (serve.Tally, time.Duration, error) {
	specs := fleet.Specs(opts.seed, opts.instances)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   serve.Tally
		firstEr error
	)
	start := time.Now()
	for c := 0; c < opts.conns; c++ {
		// Round-robin instance→connection assignment, like the fleet's
		// instance→shard assignment.
		var mine []fleet.InstanceSpec
		for i := c; i < len(specs); i += opts.conns {
			mine = append(mine, specs[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, err := play(opts, mine)
			mu.Lock()
			defer mu.Unlock()
			merge(&total, t)
			if err != nil && firstEr == nil {
				firstEr = err
			}
		}()
	}
	wg.Wait()
	return total, time.Since(start), firstEr
}

// play drives one connection: its instances in sequence, each replayed by a
// serve.Player as pipelined streams ending in RESOLVE + RESET. Sampled
// instances are checked against the local reference at the handshake epoch.
func play(opts options, specs []fleet.InstanceSpec) (serve.Tally, error) {
	var (
		conn serve.Conn
		err  error
	)
	if opts.transport == "http" {
		conn, err = serve.DialHTTP("http://"+opts.addr, opts.schema)
	} else {
		conn, err = serve.Dial(opts.addr, opts.schema)
	}
	if err != nil {
		return serve.Tally{}, err
	}
	defer conn.Close()

	p := serve.NewPlayer(conn, opts.window, nil)
	for _, spec := range specs {
		var refs map[uint32]*core.Model
		if opts.model != nil && spec.ID%opts.verifyEvery == 0 {
			refs = map[uint32]*core.Model{0: opts.model}
		}
		p.SetRefs(refs)
		if err := p.Replay(fleet.NewReplay(opts.seed, spec), opts.ticks); err != nil {
			return p.Tally, err
		}
	}
	return p.Tally, nil
}

// percentile returns the p-quantile (0..1) of the samples, 0 when empty.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[int(p*float64(len(s)-1))]
}
