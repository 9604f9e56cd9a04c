// Command agingload drives a running agingserve daemon over real sockets: it
// replays a fleet.Specs-drawn heterogeneous instance population — the same
// deterministic simulated servers the fleet subsystem schedules in-process —
// as prediction streams over the network, and reports end-to-end throughput
// and latency.
//
//	agingload -addr 127.0.0.1:7070 -instances 64 -conns 4 -duration 2m
//
// Each connection serves its share of the population sequentially: one
// instance is one stream (checkpoints in order, RESOLVE at its crash or
// censoring, RESET between instances), with up to -window checkpoints
// pipelined ahead so both directions of the socket stay busy. -transport
// picks the binary frame protocol (the hot path) or NDJSON over HTTP — the
// same conversation, so the two are directly A/B-comparable.
//
// Correctness rides along, not just throughput: with -load pointing at the
// artifact the server serves, every -verify-every'th instance also runs a
// local reference session on the same checkpoints, and each returned
// prediction must match the local one bit for bit (time, TTF and the crash
// flag). Any mismatch fails the run. Verification needs a frozen server — a
// hot-swapped epoch changes the answers by design — so it turns itself off
// for predictions from a later epoch than the handshake's.
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
	"math"
	"os"
	"sort"
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
	if err := run(os.Args[1:]); err != nil {
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
	model       *core.Model
}

func run(args []string) error {
	fs := flag.NewFlagSet("agingload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7070", "server address: host:port of the -transport listener")
		transport   = fs.String("transport", "binary", "transport to drive: binary (frame protocol) or http (NDJSON)")
		schema      = fs.String("schema", "", "feature schema to request at the handshake (\"\" = accept the server's)")
		instances   = fs.Int("instances", 64, "replayed instances (fleet.Specs population size)")
		conns       = fs.Int("conns", 4, "concurrent connections; each serves its share of the instances sequentially")
		duration    = fs.Duration("duration", 2*time.Minute, "simulated stream time per instance (15s checkpoints), not wall time")
		seed        = fs.Uint64("seed", 1, "population seed (same seed = same instances as agingfleet)")
		window      = fs.Int("window", 32, "checkpoints pipelined ahead per connection")
		sweep       = fs.String("sweep", "", "comma-separated connection counts to sweep (e.g. 1,4,16); overrides -conns, one result line per point")
		loadPath    = fs.String("load", "", "model artifact for local reference verification (must be what the server serves)")
		verifyEvery = fs.Int("verify-every", 8, "verify every Nth instance bit-for-bit against the local reference (0 = none; needs -load)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *transport != "binary" && *transport != "http" {
		return fmt.Errorf("unknown -transport %q (binary or http)", *transport)
	}
	if *instances <= 0 || *conns <= 0 || *window <= 0 {
		return fmt.Errorf("-instances, -conns and -window must be positive")
	}
	if *conns > *instances {
		*conns = *instances
	}
	ticks := int(*duration / monitor.DefaultInterval)
	if ticks < 1 {
		return fmt.Errorf("-duration %v is shorter than one %v checkpoint interval", *duration, monitor.DefaultInterval)
	}
	opts := options{
		addr:        *addr,
		transport:   *transport,
		schema:      *schema,
		seed:        *seed,
		instances:   *instances,
		conns:       *conns,
		window:      *window,
		ticks:       ticks,
		verifyEvery: *verifyEvery,
	}
	if *loadPath != "" && *verifyEvery > 0 {
		f, err := os.Open(*loadPath)
		if err != nil {
			return fmt.Errorf("loading reference model: %w", err)
		}
		m, err := core.DecodeModel(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading reference model: %w", err)
		}
		opts.model = m
	}

	points := []int{opts.conns}
	if *sweep != "" {
		pts, err := parseSweep(*sweep)
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
		cps := float64(res.predictions) / elapsed.Seconds()
		p50 := percentile(res.latencies, 0.50)
		p99 := percentile(res.latencies, 0.99)
		fmt.Fprintf(os.Stderr,
			"agingload: %s: %d instances over %d conns: %d checkpoints in %.2fs = %.0f cps, latency p50 %s p99 %s, %d crashes\n",
			o.transport, o.instances, o.conns, res.predictions, elapsed.Seconds(), cps,
			time.Duration(p50*float64(time.Second)).Round(time.Microsecond),
			time.Duration(p99*float64(time.Second)).Round(time.Microsecond),
			res.crashes)
		if o.model != nil {
			fmt.Fprintf(os.Stderr, "agingload: verified %d sampled predictions bit-for-bit: %d mismatches (%d skipped after epoch swap)\n",
				res.verified, res.mismatches, res.skipped)
		}
		mismatches += res.mismatches
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

// result aggregates one run's counters across connections.
type result struct {
	predictions int
	crashes     int
	verified    int
	mismatches  int
	skipped     int
	latencies   []float64 // send→recv seconds, one per prediction
}

func (r *result) merge(o result) {
	r.predictions += o.predictions
	r.crashes += o.crashes
	r.verified += o.verified
	r.mismatches += o.mismatches
	r.skipped += o.skipped
	r.latencies = append(r.latencies, o.latencies...)
}

// drive replays the population over opts.conns concurrent connections and
// aggregates the results.
func drive(opts options) (result, time.Duration, error) {
	specs := fleet.Specs(opts.seed, opts.instances)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   result
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
			res, err := runConn(opts, mine)
			mu.Lock()
			defer mu.Unlock()
			total.merge(res)
			if err != nil && firstEr == nil {
				firstEr = err
			}
		}()
	}
	wg.Wait()
	return total, time.Since(start), firstEr
}

// pending is one pipelined checkpoint awaiting its prediction.
type pending struct {
	seq  uint32
	sent time.Time
	// check carries the local reference prediction when this instance is
	// sampled for verification.
	check bool
	want  core.Prediction
}

// pendingRing is a fixed-capacity FIFO of in-flight checkpoints. A ring
// instead of a slice because the hot loop pops one entry per prediction —
// a slice would memmove the whole window each time.
type pendingRing struct {
	buf  []pending
	head int
	size int
}

func newPendingRing(capacity int) *pendingRing {
	return &pendingRing{buf: make([]pending, capacity)}
}

func (r *pendingRing) push(p pending) {
	r.buf[(r.head+r.size)%len(r.buf)] = p
	r.size++
}

func (r *pendingRing) pop() pending {
	p := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return p
}

// runConn drives one connection: its instances in sequence, each as one
// pipelined stream ending in RESOLVE + RESET.
func runConn(opts options, specs []fleet.InstanceSpec) (result, error) {
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
		return result{}, err
	}
	defer conn.Close()

	var (
		res     result
		seq     uint32
		queue   = newPendingRing(opts.window)
		baseEp  uint32 // pinned at the first prediction (the HTTP handshake completes lazily)
		swapped = false
	)
	// recvOne collects the oldest outstanding prediction and scores it.
	recvOne := func() error {
		p := queue.pop()
		got, err := conn.Recv()
		if err != nil {
			return err
		}
		res.latencies = append(res.latencies, time.Since(p.sent).Seconds())
		res.predictions++
		if got.Seq != p.seq {
			return fmt.Errorf("prediction out of order: got seq %d, want %d", got.Seq, p.seq)
		}
		if baseEp == 0 {
			baseEp = got.Epoch
		}
		if got.Epoch != baseEp {
			swapped = true // adaptive server swapped epochs; answers legitimately diverge
		}
		if p.check {
			if swapped {
				res.skipped++
				return nil
			}
			res.verified++
			g, w := got.Pred(), p.want
			if math.Float64bits(g.TimeSec) != math.Float64bits(w.TimeSec) ||
				math.Float64bits(g.TTFSec) != math.Float64bits(w.TTFSec) ||
				g.CrashExpected != w.CrashExpected {
				res.mismatches++
				if res.mismatches == 1 {
					fmt.Fprintf(os.Stderr, "agingload: seq %d mismatch: got (t=%v ttf=%v crash=%v), want (t=%v ttf=%v crash=%v)\n",
						got.Seq, g.TimeSec, g.TTFSec, g.CrashExpected, w.TimeSec, w.TTFSec, w.CrashExpected)
				}
			}
		}
		return nil
	}
	drain := func() error {
		for queue.size > 0 {
			if err := recvOne(); err != nil {
				return err
			}
		}
		return nil
	}

	var cp monitor.Checkpoint
	for _, spec := range specs {
		replay := fleet.NewReplay(opts.seed, spec)
		var ref *core.Session
		if opts.model != nil && opts.verifyEvery > 0 && spec.ID%opts.verifyEvery == 0 {
			ref = opts.model.NewSession()
		}
		for tick := 0; tick < opts.ticks; tick++ {
			if replay.Step(&cp) {
				// The instance crashed this interval: resolve the stream's
				// labels, reset server and reference to a fresh stream, and
				// keep replaying the recovered instance.
				if err := drain(); err != nil {
					return res, err
				}
				res.crashes++
				if err := conn.Resolve(serve.ResolveCrash, replay.TimeSec()); err != nil {
					return res, err
				}
				if err := conn.Reset(); err != nil {
					return res, err
				}
				replay.Restart()
				if ref != nil {
					ref = opts.model.NewSession()
				}
				continue
			}
			seq++
			p := pending{seq: seq, sent: time.Now()}
			if ref != nil {
				want, err := ref.Observe(cp)
				if err != nil {
					return res, fmt.Errorf("local reference session: %w", err)
				}
				p.check, p.want = true, want
			}
			if err := conn.Send(seq, &cp); err != nil {
				return res, err
			}
			queue.push(p)
			// Burst drain: once the window fills, pull half of it back in one
			// go. Recv flushes the outbound buffer first, so draining in
			// bursts amortizes one syscall-heavy flush over window/2 replies
			// instead of paying it on every send/recv pair.
			if queue.size >= opts.window {
				for queue.size > opts.window/2 {
					if err := recvOne(); err != nil {
						return res, err
					}
				}
			}
		}
		// Stream over without a crash: censored, like a rejuvenation.
		if err := drain(); err != nil {
			return res, err
		}
		if err := conn.Resolve(serve.ResolveCensored, 0); err != nil {
			return res, err
		}
		if err := conn.Reset(); err != nil {
			return res, err
		}
	}
	return res, drain()
}

// percentile returns the p-quantile (0..1) of the samples, 0 when empty.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}
