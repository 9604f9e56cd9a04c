package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
	"agingpred/internal/serve"
)

// serve-stream drives a separately started agingserve daemon, in its default
// serving configuration, over loopback TCP on the binary transport. The
// streams are generated before timing starts: serveInstances instances of
// the seed's population replayed for serveTicks checkpoints each, with the
// crash → RESOLVE → RESET cycles the instances run into, split over
// serveConns connections. Each connection replays its script in a loop;
// after the script's final RESET the session is fresh again, so every pass
// has the same expected predictions.
const (
	serveInstances = 64
	serveTicks     = 960 // 4 simulated hours
	serveConns     = 2
	// pacedRate is the offered load of the open-loop phase, checkpoints per
	// second over all connections: well under the daemon's capacity, so the
	// latency it shows is service time, not queueing.
	pacedRate = 100_000
	// pacerQuantum is the least time between two wake-ups of the pacer.
	// Waking for every checkpoint (every 10 µs) made the daemon park and
	// unpark its connection goroutines on every frame; 50 µs sends a few
	// frames per wake-up and adds at most 50 µs of lateness.
	pacerQuantum = 50 * time.Microsecond
	// saturateWindow is the closed loop's pipeline depth. The loop runs on
	// one connection: one busy client thread and one busy daemon connection
	// goroutine on the two vCPUs the figures come from, where two
	// connections put four busy threads on them. The client sends half the
	// window, then reads half back; bursts of 512 keep both ends busy
	// between wake-ups (in three alternating pairs of runs, 128
	// read 735 k to 1024 k checkpoints/s and 1024 read 781 k to 845 k).
	saturateWindow = 1024
)

// script is one connection's pre-generated stream.
type script struct {
	// wire holds one pass of the frames sent after HELLO, back to back;
	// ends[k] is the offset just past checkpoint k's frame, and frames[k]
	// the number of frames up to and including it.
	wire   []byte
	ends   []int
	frames []int
	total  int // frames in one pass
	// cps and want are checkpoint k and the prediction a fresh local
	// core.Session makes for it.
	cps  []monitor.Checkpoint
	want []core.Prediction
	ops  []scriptOp
	// crashes counts the crash cycles in one pass.
	crashes int
	model   *core.Model
}

type scriptOp struct {
	kind    serve.FrameType // FrameCheckpoint, FrameResolve or FrameReset
	k       int
	resolve serve.ResolveKind
	crashT  float64
}

func (sc *script) add(f *serve.Frame) error {
	var err error
	sc.wire, err = serve.AppendFrame(sc.wire, f)
	sc.total++
	return err
}

func (sc *script) control(op scriptOp) error {
	sc.ops = append(sc.ops, op)
	f := serve.Frame{Type: op.kind, Kind: op.resolve, CrashTimeSec: op.crashT}
	return sc.add(&f)
}

// buildScripts replays the seed's instances, round-robin over the
// connections, and records what each connection will send and expect.
func buildScripts(model *core.Model, seed uint64) ([]*script, error) {
	scripts := make([]*script, serveConns)
	for c := range scripts {
		scripts[c] = &script{model: model}
	}
	var cp monitor.Checkpoint
	for _, spec := range fleet.Specs(seed, serveInstances) {
		sc := scripts[spec.ID%serveConns]
		rp := fleet.NewReplay(seed, spec)
		ref := model.NewSession()
		for t := 0; t < serveTicks; t++ {
			if rp.Step(&cp) {
				sc.crashes++
				if err := sc.control(scriptOp{kind: serve.FrameResolve, resolve: serve.ResolveCrash, crashT: rp.TimeSec()}); err != nil {
					return nil, err
				}
				if err := sc.control(scriptOp{kind: serve.FrameReset}); err != nil {
					return nil, err
				}
				rp.Restart()
				// A frozen daemon's RESET starts a session indistinguishable
				// from a new connection's.
				ref = model.NewSession()
				continue
			}
			want, err := ref.Observe(cp)
			if err != nil {
				return nil, err
			}
			k := len(sc.cps)
			sc.cps = append(sc.cps, cp)
			sc.want = append(sc.want, want)
			sc.ops = append(sc.ops, scriptOp{kind: serve.FrameCheckpoint, k: k})
			if err := sc.add(&serve.Frame{Type: serve.FrameCheckpoint, Seq: uint32(k + 1), Vec: *cp.Vec()}); err != nil {
				return nil, err
			}
			sc.ends = append(sc.ends, len(sc.wire))
			sc.frames = append(sc.frames, sc.total)
		}
		if err := sc.control(scriptOp{kind: serve.FrameResolve, resolve: serve.ResolveCensored}); err != nil {
			return nil, err
		}
		if err := sc.control(scriptOp{kind: serve.FrameReset}); err != nil {
			return nil, err
		}
	}
	return scripts, nil
}

// matches reports whether a served prediction is checkpoint k's, bit for bit.
func (sc *script) matches(k int, seq, epoch uint32, timeSec, ttfSec float64, crash bool) bool {
	w := sc.want[k]
	return seq == uint32(k+1) && epoch == 1 &&
		math.Float64bits(timeSec) == math.Float64bits(w.TimeSec) &&
		math.Float64bits(ttfSec) == math.Float64bits(w.TTFSec) &&
		crash == w.CrashExpected
}

// daemon is a running agingserve process.
type daemon struct {
	cmd       *exec.Cmd
	tcp, http string
	exited    chan error
	stopOnce  sync.Once
	stopErr   error
}

// startDaemon starts agingserve on loopback ports the kernel picks and waits
// for the line that reports its listeners.
func startDaemon(bin string, seed uint64) (*daemon, error) {
	cmd := exec.Command(bin, "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if d.tcp == "" {
				for _, field := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(field, "tcp="); ok {
						d.tcp = v
					} else if v, ok := strings.CutPrefix(field, "http="); ok {
						d.http = v
					}
				}
				if d.tcp != "" {
					ready <- nil
				}
			}
			fmt.Fprintln(os.Stderr, "perfbench: daemon:", line)
		}
		if d.tcp == "" {
			ready <- fmt.Errorf("agingserve exited before listening")
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case err := <-ready:
		if err != nil {
			d.stop()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("agingserve did not start listening within a minute")
	}
	if d.http == "" {
		d.stop()
		return nil, fmt.Errorf("agingserve reported no HTTP listener")
	}
	return d, nil
}

// stop drains the daemon with SIGTERM, kills it if it has not exited after
// 15 s, and waits for it. Later calls return the first call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case d.stopErr = <-d.exited:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = fmt.Errorf("agingserve did not drain within 15s")
		}
	})
	return d.stopErr
}

// discard kills a daemon that only served to time set-up, and waits for it.
// agingserve reports its listeners before it installs its SIGTERM handler,
// so a SIGTERM this soon after start-up may kill it rather than drain it.
func (d *daemon) discard() {
	d.stopOnce.Do(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})
}

// scrape reads one series of the daemon's /metrics exposition.
func (d *daemon) scrape(series string) (float64, error) {
	resp, err := http.Get("http://" + d.http + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no series %s", series)
}

// readFrame reads and checks one frame off the wire, as the daemon does.
func readFrame(br *bufio.Reader, buf []byte, f *serve.Frame) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 || n > serve.DefaultMaxFrameBytes {
		return buf, fmt.Errorf("frame length %d out of range", n)
	}
	if cap(buf) < n+4 {
		buf = make([]byte, n+4)
	}
	buf = buf[:n+4]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, err
	}
	if crc32.ChecksumIEEE(buf[:n]) != binary.BigEndian.Uint32(buf[n:]) {
		return buf, fmt.Errorf("frame checksum mismatch")
	}
	return buf, serve.DecodeFrameBody(buf[:n], f)
}

// dialRaw opens a binary-transport connection and completes the handshake,
// for the open loop, which writes and reads on separate goroutines.
func dialRaw(addr string) (net.Conn, *bufio.Reader, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hello, err := serve.AppendFrame(nil, &serve.Frame{Type: serve.FrameHello, Version: serve.ProtocolVersion})
	if err == nil {
		_, err = nc.Write(hello)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	var f serve.Frame
	if err == nil {
		_, err = readFrame(br, nil, &f)
	}
	if err == nil && f.Type != serve.FrameWelcome {
		err = fmt.Errorf("expected WELCOME, got %s", f.Type)
	}
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("handshake: %w", err)
	}
	return nc, br, nil
}

// The load phases are cut into slices of time, and a phase's figures are
// medians over its slices, so a stretch in which the host takes CPU away
// spoils a few slices, not the measurement. A latency slice holds 1000
// predictions of the open loop, so its p99 has 10 beyond it.
const (
	latencySlice = 10 * time.Millisecond
	rateSlice    = 100 * time.Millisecond
)

// phaseStats is what one phase of load saw.
type phaseStats struct {
	sent    int64 // checkpoints sent
	frames  int64 // frames sent after HELLO
	replies int64 // predictions received
	failed  int64 // predictions missing or wrong
	wall    time.Duration
	// Open loop: per slice, the latency of each prediction in µs after its
	// checkpoint was due; and per checkpoint, how late it was sent.
	lat  [][]float64
	late []float64
	// Closed loop: predictions received per slice.
	counts   []int64
	problems []string
}

func (p *phaseStats) add(o *phaseStats) {
	p.sent += o.sent
	p.frames += o.frames
	p.replies += o.replies
	p.failed += o.failed
	p.problems = append(p.problems, o.problems...)
	if o.wall > p.wall {
		p.wall = o.wall
	}
}

// fail records a problem that spoilt ops predictions. The first few
// problems are kept for the report.
func (p *phaseStats) fail(ops int64, format string, args ...any) {
	p.failed += ops
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// sliceMedians returns, for each latency percentile, its median over the
// slices, and the number of samples the slices hold.
func (p *phaseStats) sliceMedians() (map[string]float64, int) {
	meds := map[string]float64{}
	samples := 0
	for _, lq := range latencyQuantiles {
		var per []float64
		for _, lat := range p.lat {
			per = append(per, quantile(lat, lq.q))
		}
		meds[lq.name] = median(per)
	}
	for _, lat := range p.lat {
		samples += len(lat)
	}
	return meds, samples
}

// rate returns the median over the full slices of predictions per second.
func (p *phaseStats) rate() float64 {
	var rates []float64
	for _, n := range p.counts {
		rates = append(rates, float64(n)/rateSlice.Seconds())
	}
	return median(rates)
}

// pacedConn is one connection of the open loop.
type pacedConn struct {
	nc     net.Conn
	br     *bufio.Reader
	sc     *script
	st     phaseStats
	lat    []float64 // µs, per checkpoint in send order
	sent   int
	pos    int   // bytes of the current pass written
	passes int64 // passes completed
	last   int   // pass index of the last checkpoint written
	werr   error
}

// paced runs the open loop: the connections send their checkpoints on a
// fixed schedule, interleaved evenly, whatever the replies do, and each
// prediction's latency is timed from when its checkpoint was due.
func paced(addr string, scripts []*script, dur time.Duration) (*phaseStats, error) {
	nconn := len(scripts)
	n := int(pacedRate*dur.Seconds()) / nconn // checkpoints per connection
	t0 := time.Now().Add(20 * time.Millisecond)
	due := func(c, g int) time.Time {
		return t0.Add(time.Duration(float64(g*nconn+c) / pacedRate * float64(time.Second)))
	}
	conns := make([]*pacedConn, nconn)
	for c, sc := range scripts {
		nc, br, err := dialRaw(addr)
		if err != nil {
			for _, o := range conns[:c] {
				o.nc.Close()
			}
			return nil, err
		}
		nc.SetReadDeadline(t0.Add(dur + 30*time.Second))
		conns[c] = &pacedConn{nc: nc, br: br, sc: sc, lat: make([]float64, 0, n), last: -1}
	}
	var wg sync.WaitGroup
	for c, pc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc.read(n, func(g int) time.Time { return due(c, g) })
		}()
	}
	late := make([]float64, 0, n*nconn)
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		late = pace(conns, n, due, late)
	}()
	<-pacerDone
	wg.Wait()

	total := &phaseStats{late: late, wall: dur}
	slices := int(dur / latencySlice)
	total.lat = make([][]float64, slices)
	for c, pc := range conns {
		if pc.werr != nil {
			pc.st.fail(0, "open loop send: %v", pc.werr)
		}
		pc.close()
		total.add(&pc.st)
		for g, l := range pc.lat {
			if s := int(due(c, g).Sub(t0) / latencySlice); s < slices {
				total.lat[s] = append(total.lat[s], l)
			}
		}
	}
	return total, nil
}

// pace writes every connection's checkpoints when they fall due, with the
// control frames that precede them, and returns how late each was sent (µs)
// appended to late. It runs on its own OS thread, which it sleeps with
// nanosleep and a 1 µs timer slack: Go's timers wake up to a millisecond
// late when the process is otherwise idle, and that lateness would land in
// the latency measured from the schedule. The thread ends with the
// goroutine, which does not unlock it.
func pace(conns []*pacedConn, n int, due func(c, g int) time.Time, late []float64) []float64 {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	var (
		bufs     net.Buffers
		lastWake time.Time
	)
	for {
		next, any := time.Time{}, false
		for c, pc := range conns {
			if pc.sent < n && pc.werr == nil && (!any || due(c, pc.sent).Before(next)) {
				next, any = due(c, pc.sent), true
			}
		}
		if !any {
			return late
		}
		if q := lastWake.Add(pacerQuantum); next.Before(q) {
			next = q
		}
		for d := time.Until(next); d > 0; d = time.Until(next) {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		now := time.Now()
		lastWake = now
		for c, pc := range conns {
			if pc.werr != nil {
				continue
			}
			from := pc.sent
			bufs = bufs[:0]
			for pc.sent < n && !due(c, pc.sent).After(now) {
				k := pc.sent % len(pc.sc.ends)
				if k == 0 && pc.sent > 0 {
					// The pass's trailing RESOLVE and RESET precede the
					// next pass's first checkpoint.
					bufs = append(bufs, pc.sc.wire[pc.pos:])
					pc.pos = 0
					pc.passes++
				}
				pc.sent++
				pc.last = k
			}
			if pc.sent == from {
				continue
			}
			bufs = append(bufs, pc.sc.wire[pc.pos:pc.sc.ends[pc.last]])
			pc.pos = pc.sc.ends[pc.last]
			for g := from; g < pc.sent; g++ {
				late = append(late, float64(now.Sub(due(c, g)).Nanoseconds())/1e3)
			}
			if _, err := bufs.WriteTo(pc.nc); err != nil {
				pc.werr = err
				pc.sent = from
			}
		}
	}
}

// read receives n predictions, checks each and times it from its due time.
func (pc *pacedConn) read(n int, due func(int) time.Time) {
	var (
		f   serve.Frame
		buf []byte
		err error
	)
	for got := 0; got < n; got++ {
		if buf, err = readFrame(pc.br, buf, &f); err != nil {
			pc.st.fail(int64(n-got), "open loop: %d predictions missing: %v", n-got, err)
			return
		}
		now := time.Now()
		k := got % len(pc.sc.want)
		if f.Type != serve.FramePredict || !pc.sc.matches(k, f.Seq, f.Epoch, f.TimeSec, f.TTFSec, f.CrashExpected) {
			pc.st.fail(1, "open loop: reply %d (%s seq %d) is not checkpoint %d's prediction", got, f.Type, f.Seq, k)
		}
		pc.st.replies++
		pc.lat = append(pc.lat, float64(now.Sub(due(got)).Nanoseconds())/1e3)
	}
}

// close counts what was sent, ends the connection with CLOSE and waits for
// the daemon's CLOSE.
func (pc *pacedConn) close() {
	defer pc.nc.Close()
	pc.st.sent = int64(pc.sent)
	if pc.last >= 0 {
		pc.st.frames = pc.passes*int64(pc.sc.total) + int64(pc.sc.frames[pc.last])
	}
	out, _ := serve.AppendFrame(nil, &serve.Frame{Type: serve.FrameClose})
	if _, err := pc.nc.Write(out); err != nil {
		return
	}
	pc.st.frames++
	pc.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var f serve.Frame
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(pc.br, buf, &f); err != nil || f.Type == serve.FrameClose {
			return
		}
	}
}

// saturate runs the closed loop: one connection replays sc through
// serve.Conn for dur with up to saturateWindow checkpoints in flight, and
// every prediction is checked. With a tracer, the Send and Recv calls are
// traced in runs.
func saturate(addr string, sc *script, dur time.Duration, tr *tracer) (*phaseStats, error) {
	conn, err := serve.Dial(addr, "")
	if err != nil {
		return nil, err
	}
	var l *lane
	if tr != nil {
		l = tr.lane()
	}
	// Predictions landing after the last full slice are not counted.
	st := &phaseStats{counts: make([]int64, int(dur/rateSlice))}
	start := time.Now()
	if err := closedLoop(conn, sc, st, start, dur, l); err != nil {
		st.problems = append(st.problems, "closed loop: "+err.Error())
	}
	st.wall = time.Since(start)
	return st, nil
}

func closedLoop(conn serve.Conn, sc *script, st *phaseStats, start time.Time, dur time.Duration, l *lane) error {
	defer func() {
		if conn.Close() == nil {
			st.frames++
		}
	}()
	end := start.Add(dur)
	pending := make([]int, 0, saturateWindow) // pass indexes in flight, oldest first
	head := 0
	hSend, sends := -1, 0
	closeSend := func() {
		if hSend >= 0 {
			l.close(hSend, sends)
			hSend, sends = -1, 0
		}
	}
	recv := func(keep int) error {
		closeSend()
		h := l.open("serve.client_recv", 0)
		got := 0
		defer func() {
			l.close(h, got)
			if s := int(time.Since(start) / rateSlice); s < len(st.counts) {
				st.counts[s] += int64(got)
			}
		}()
		for len(pending)-head > keep {
			p, err := conn.Recv()
			if err != nil {
				return err
			}
			k := pending[head]
			head++
			got++
			st.replies++
			if !sc.matches(k, p.Seq, p.Epoch, p.TimeSec, p.TTFSec, p.CrashExpected) {
				st.fail(1, "closed loop: reply seq %d is not checkpoint %d's prediction", p.Seq, k)
			}
		}
		pending = append(pending[:0], pending[head:]...)
		head = 0
		return nil
	}
	for i := 0; ; i++ {
		if i%64 == 0 && time.Now().After(end) {
			break
		}
		op := sc.ops[i%len(sc.ops)]
		var err error
		switch op.kind {
		case serve.FrameCheckpoint:
			if hSend < 0 && l != nil {
				hSend = l.open("serve.client_send", 0)
			}
			err = conn.Send(uint32(op.k+1), &sc.cps[op.k])
			sends++
			st.sent++
			pending = append(pending, op.k)
			if err == nil && len(pending) >= saturateWindow {
				err = recv(saturateWindow / 2)
			}
		case serve.FrameResolve:
			closeSend()
			err = conn.Resolve(op.resolve, op.crashT)
		case serve.FrameReset:
			closeSend()
			err = conn.Reset()
		}
		if err != nil {
			st.failed += int64(len(pending) - head)
			return err
		}
		st.frames++
	}
	if err := recv(0); err != nil {
		st.failed += int64(len(pending) - head)
		return err
	}
	closeSend()
	return nil
}

func runServe(opts options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	bin := filepath.Join(buildDir, "agingserve")
	// Set-up is the daemon's start-up, its training included, up to the
	// line that reports its listeners.
	var (
		d      *daemon
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.discard()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(bin, opts.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()
	// The daemon trains its model from the seed; the reference model trained
	// here is the same one, and the expected predictions come from fresh
	// local sessions of it.
	model, err := fleet.TrainModel(opts.seed)
	if err != nil {
		return nil, err
	}
	scripts, err := buildScripts(model, opts.seed)
	if err != nil {
		return nil, err
	}

	total := &phaseStats{}
	phase := time.Duration(opts.seconds * float64(time.Second) / 2)
	if opts.trace {
		phase /= 2
	}
	runtime.GC()
	pacedStats, err := paced(d.tcp, scripts, phase)
	if err != nil {
		return nil, err
	}
	total.add(pacedStats)

	runtime.GC()
	dcpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	bcpu0 := selfCPU()
	sat, err := saturate(d.tcp, scripts[0], phase, nil)
	if err != nil {
		return nil, err
	}
	dcpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	bcpu := selfCPU() - bcpu0
	total.add(sat)
	throughput := sat.rate()

	var traced *phaseStats
	if opts.trace {
		out.trace = newTracer()
		runtime.GC()
		if traced, err = saturate(d.tcp, scripts[0], phase, out.trace); err != nil {
			return nil, err
		}
		total.add(traced)
	}

	// The daemon must have received exactly the frames sent. The closed
	// loop's CLOSE frames are not answered before the socket closes, so
	// give the daemon a moment to count them.
	var frames float64
	for wait := time.Now().Add(2 * time.Second); ; {
		if frames, err = d.scrape(`agingpred_serve_frames_total{transport="tcp"}`); err != nil {
			return nil, err
		}
		if int64(frames) == total.frames || time.Now().After(wait) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if int64(frames) != total.frames {
		total.problems = append(total.problems, fmt.Sprintf("daemon counted %.0f frames, %d were sent", frames, total.frames))
		total.failed += int64(math.Abs(frames - float64(total.frames)))
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		total.problems = append(total.problems, "daemon shutdown: "+err.Error())
	}

	out.attempted = total.sent
	out.failed = total.failed
	out.problems = total.problems
	lat, samples := pacedStats.sliceMedians()
	fmt.Fprintf(os.Stderr, "perfbench: open loop: %d checkpoints at %d/s, latency p50 %.0f p90 %.0f p99 %.0f us (medians over %d slices, %d samples), sends late p99 %.0f us\n",
		pacedStats.sent, pacedRate, lat["p50_us"], lat["p90_us"], lat["p99_us"], len(pacedStats.lat), samples, quantile(pacedStats.late, 0.99))
	fmt.Fprintf(os.Stderr, "perfbench: closed loop: %d checkpoints in %.2fs, median %.0f/s over %d slices\n",
		sat.replies, sat.wall.Seconds(), throughput, len(sat.counts))
	m := out.metrics
	for name, v := range lat {
		m[name] = v
	}
	if !opts.trace {
		m["setup_s"] = median(setups)
		m["throughput_cps"] = throughput
		m["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
		m["peak_rss_mb"] = rss
		return out, nil
	}

	m["bench.late_p99_us"] = quantile(pacedStats.late, 0.99)
	m["bench.latency_samples"] = float64(samples)
	m["serve.frames"] = frames
	m["serve.control_frames"] = float64(total.frames - total.sent)
	for _, sc := range scripts {
		m["fleet.checkpoints"] += float64(len(sc.cps))
		m["fleet.crashes"] += float64(sc.crashes)
	}
	m["serve.daemon_cpu_us_per_cp"] = float64((dcpu1 - dcpu0).Microseconds()) / float64(sat.replies)
	m["bench.cpu_us_per_cp"] = float64(bcpu.Microseconds()) / float64(sat.replies)
	m["bench.trace_overhead_frac"] = throughput/traced.rate() - 1
	m["serve.client_send_ns"] = out.trace.perOp("serve.client_send")
	m["serve.client_recv_ns"] = out.trace.perOp("serve.client_recv")
	if err := traceServeLayers(m, out.trace, scripts); err != nil {
		return nil, err
	}
	m["serve.unattributed_ns"] = m["serve.daemon_cpu_us_per_cp"]*1e3 -
		(m["serve.decode_ns"] + m["core.observe_ns"] + m["serve.encode_ns"])
	return out, nil
}

// layerPasses is how many times the offline layer loops replay the scripts.
const layerPasses = 10

// checkpointFrameBytes is a CHECKPOINT frame on the wire: length prefix,
// type, sequence number, field count, the monitor vector and the CRC.
const checkpointFrameBytes = 4 + 1 + 4 + 1 + 8*monitor.NumFields + 4

// traceServeLayers times, outside the daemon, the calls it makes per
// checkpoint: serve.DecodeFrameBody on each CHECKPOINT body,
// core.Session.Observe on each checkpoint (a fresh session per stream, as
// the daemon keeps) and serve.AppendFrame of each PREDICT.
func traceServeLayers(m map[string]float64, tr *tracer, scripts []*script) error {
	l := tr.lane()
	var (
		f   serve.Frame
		out []byte
		err error
	)
	for pass := 0; pass < layerPasses; pass++ {
		for _, sc := range scripts {
			h := l.open("serve.decode", 0)
			for _, end := range sc.ends {
				// The body sits between the length prefix and the CRC.
				if err := serve.DecodeFrameBody(sc.wire[end-checkpointFrameBytes+4:end-4], &f); err != nil {
					return err
				}
			}
			l.close(h, len(sc.ends))

			h = l.open("core.observe", 0)
			var sess *core.Session
			for _, op := range sc.ops {
				switch op.kind {
				case serve.FrameReset:
					sess = nil
				case serve.FrameCheckpoint:
					if sess == nil {
						sess = sc.model.NewSession()
					}
					if _, err := sess.Observe(sc.cps[op.k]); err != nil {
						return err
					}
				}
			}
			l.close(h, len(sc.cps))

			h = l.open("serve.encode", 0)
			for k, w := range sc.want {
				out, err = serve.AppendFrame(out[:0], &serve.Frame{
					Type: serve.FramePredict, Seq: uint32(k + 1), Epoch: 1,
					TimeSec: w.TimeSec, TTFSec: w.TTFSec, CrashExpected: w.CrashExpected,
				})
				if err != nil {
					return err
				}
			}
			l.close(h, len(sc.want))
		}
	}
	m["serve.decode_ns"] = tr.perOp("serve.decode")
	m["core.observe_ns"] = tr.perOp("core.observe")
	m["serve.encode_ns"] = tr.perOp("serve.encode")
	return nil
}
