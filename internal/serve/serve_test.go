package serve

// Lifecycle and end-to-end tests: both transports against a real loopback
// listener, checked bit-for-bit against local reference sessions, plus the
// session-table edges — idle eviction, a full table, draining, hot model
// reload — and a -race workout of many connections against one adaptive
// Supervisor.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"agingpred/internal/adapt"
	"agingpred/internal/core"
	"agingpred/internal/fleet"
	"agingpred/internal/monitor"
)

// goldenModel loads the committed deterministic seed-1 artifact — the same
// model the CI smoke test serves — so tests need no training pass.
func goldenModel(t testing.TB) *core.Model {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "core", "testdata", "model_m5p_seed1.golden"))
	if err != nil {
		t.Fatalf("opening golden model: %v", err)
	}
	defer f.Close()
	m, err := core.DecodeModel(f)
	if err != nil {
		t.Fatalf("decoding golden model: %v", err)
	}
	return m
}

// startServer runs one server on ephemeral loopback ports with test-friendly
// overrides, cleaned up with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.TCPAddr == "" {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	srv, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialBoth returns one open connection per transport, keyed by name.
func dialBoth(t *testing.T, srv *Server) map[string]Conn {
	t.Helper()
	bc, err := Dial(srv.TCPAddr(), "")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	hc, err := DialHTTP("http://"+srv.HTTPAddr(), "")
	if err != nil {
		t.Fatalf("DialHTTP: %v", err)
	}
	return map[string]Conn{"binary": bc, "http": hc}
}

// TestServeBitIdentical is the core served-equals-local contract on both
// transports: every prediction that comes back over the wire must carry
// exactly the float64 bits a local reference session produces for the same
// checkpoint stream — including across a RESOLVE/RESET cycle, which by the
// wire contract behaves like a brand-new connection.
func TestServeBitIdentical(t *testing.T) {
	model := goldenModel(t)
	srv := startServer(t, Config{Model: model})
	spec := fleet.Specs(11, 1)[0]

	for name, conn := range dialBoth(t, srv) {
		t.Run(name, func(t *testing.T) {
			defer conn.Close()
			replay := fleet.NewReplay(11, spec)
			ref := model.NewSession()
			var cp monitor.Checkpoint
			for phase := 0; phase < 2; phase++ {
				for i := 1; i <= 64; i++ {
					if replay.Step(&cp) {
						t.Fatalf("phase %d: instance crashed during the test window", phase)
					}
					want, err := ref.Observe(cp)
					if err != nil {
						t.Fatal(err)
					}
					if err := conn.Send(uint32(i), &cp); err != nil {
						t.Fatal(err)
					}
					got, err := conn.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if got.Seq != uint32(i) {
						t.Fatalf("phase %d seq %d: echoed seq %d", phase, i, got.Seq)
					}
					if math.Float64bits(got.TimeSec) != math.Float64bits(want.TimeSec) ||
						math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) ||
						got.CrashExpected != want.CrashExpected {
						t.Fatalf("phase %d seq %d: served (t=%v ttf=%v crash=%v) != local (t=%v ttf=%v crash=%v)",
							phase, i, got.TimeSec, got.TTFSec, got.CrashExpected,
							want.TimeSec, want.TTFSec, want.CrashExpected)
					}
				}
				// Stream boundary: resolve, reset server-side, and hold the
				// reference to the same contract with a genuinely new session.
				if err := conn.Resolve(ResolveCensored, 0); err != nil {
					t.Fatal(err)
				}
				if err := conn.Reset(); err != nil {
					t.Fatal(err)
				}
				replay.Restart()
				ref = model.NewSession()
			}
		})
	}
}

// TestIdleEviction pins the idle timeout: a session that goes quiet receives
// a typed ErrCodeIdle refusal and its table slot is reclaimed.
func TestIdleEviction(t *testing.T) {
	srv := startServer(t, Config{Model: goldenModel(t), IdleTimeout: 100 * time.Millisecond})
	dialers := map[string]func() (Conn, error){
		"binary": func() (Conn, error) { return Dial(srv.TCPAddr(), "") },
		"http":   func() (Conn, error) { return DialHTTP("http://"+srv.HTTPAddr(), "") },
	}
	for name, dial := range dialers {
		t.Run(name, func(t *testing.T) {
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var cp monitor.Checkpoint
			if err := conn.Send(1, &cp); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Recv(); err != nil {
				t.Fatalf("first prediction: %v", err)
			}
			// Now idle past the timeout; the next read must surface the typed
			// eviction, not hang.
			_, err = conn.Recv()
			var se *ServerError
			if !errors.As(err, &se) || se.Code != ErrCodeIdle {
				t.Fatalf("idle Recv: got %v, want *ServerError{idle}", err)
			}
		})
	}
	waitFor(t, time.Second, func() bool { return srv.Sessions() == 0 })
}

// TestMaxSessions pins the bounded session table: with the table full, a TCP
// HELLO is refused with ErrCodeTooManySessions and an HTTP stream with 503 —
// and the slot frees once an admitted session closes.
func TestMaxSessions(t *testing.T) {
	srv := startServer(t, Config{Model: goldenModel(t), MaxSessions: 1})
	first, err := Dial(srv.TCPAddr(), "")
	if err != nil {
		t.Fatalf("admitting dial: %v", err)
	}

	_, err = Dial(srv.TCPAddr(), "")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != ErrCodeTooManySessions {
		t.Fatalf("second dial: got %v, want *ServerError{too-many-sessions}", err)
	}

	hc, err := DialHTTP("http://"+srv.HTTPAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	var cp monitor.Checkpoint
	hc.Send(1, &cp)
	_, err = hc.Recv()
	if !errors.As(err, &se) || se.Code != ErrCodeTooManySessions {
		t.Fatalf("http stream with a full table: got %v, want *ServerError{too-many-sessions}", err)
	}
	hc.Close()

	first.Close()
	waitFor(t, time.Second, func() bool { return srv.Sessions() == 0 })
	third, err := Dial(srv.TCPAddr(), "")
	if err != nil {
		t.Fatalf("dial after the slot freed: %v", err)
	}
	third.Close()
}

// TestHandshakeRefusals covers the typed HELLO rejections: wrong protocol
// version, wrong schema, and garbage instead of a frame.
func TestHandshakeRefusals(t *testing.T) {
	srv := startServer(t, Config{Model: goldenModel(t)})

	t.Run("schema mismatch", func(t *testing.T) {
		_, err := Dial(srv.TCPAddr(), "no-such-schema")
		var se *ServerError
		if !errors.As(err, &se) || se.Code != ErrCodeSchema {
			t.Fatalf("got %v, want *ServerError{schema}", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		se := rawHello(t, srv.TCPAddr(), func(f *Frame) { f.Version = ProtocolVersion + 1 })
		if se.Code != ErrCodeVersion {
			t.Fatalf("got %v, want version", se.Code)
		}
	})
	t.Run("checkpoint before hello", func(t *testing.T) {
		se := rawHello(t, srv.TCPAddr(), func(f *Frame) { f.Type = FrameCheckpoint })
		if se.Code != ErrCodeProtocol {
			t.Fatalf("got %v, want protocol", se.Code)
		}
	})
	t.Run("garbage bytes", func(t *testing.T) {
		nc, err := net.Dial("tcp", srv.TCPAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// A plausible length prefix followed by a body whose CRC cannot match.
		garbage := []byte{0, 0, 0, 4, 'G', 'E', 'T', ' ', 0, 0, 0, 0}
		if _, err := nc.Write(garbage); err != nil {
			t.Fatal(err)
		}
		var f Frame
		fr := newFrameReader(nc, DefaultMaxFrameBytes)
		if err := fr.Next(&f); err != nil {
			t.Fatalf("reading the refusal: %v", err)
		}
		if f.Type != FrameError || f.Code != ErrCodeMalformed {
			t.Fatalf("got %s/%s, want ERROR/malformed", f.Type, f.Code)
		}
	})
}

// rawHello opens a raw TCP connection, sends one mutated HELLO and returns
// the typed refusal.
func rawHello(t *testing.T, addr string, mutate func(*Frame)) *ServerError {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := Frame{Type: FrameHello, Version: ProtocolVersion}
	mutate(&hello)
	wire, err := AppendFrame(nil, &hello)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := newFrameReader(nc, DefaultMaxFrameBytes).Next(&f); err != nil {
		t.Fatalf("reading the refusal: %v", err)
	}
	if f.Type != FrameError {
		t.Fatalf("got %s, want ERROR", f.Type)
	}
	return &ServerError{Code: f.Code, Message: f.Message}
}

// TestOversizedFrameRefused pins the max-frame bound end to end: a length
// prefix over the configured limit draws a malformed refusal, not an
// allocation.
func TestOversizedFrameRefused(t *testing.T) {
	srv := startServer(t, Config{Model: goldenModel(t), MaxFrameBytes: 256})
	nc, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := newFrameReader(nc, DefaultMaxFrameBytes).Next(&f); err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameError || f.Code != ErrCodeMalformed {
		t.Fatalf("got %s/%s, want ERROR/malformed", f.Type, f.Code)
	}
}

// TestDrain pins graceful shutdown on both transports: in-flight streams get
// a typed ErrCodeDraining refusal (not a dropped socket), new dials are
// refused, and Drain returns once the table empties.
func TestDrain(t *testing.T) {
	srv := startServer(t, Config{Model: goldenModel(t)})
	conns := dialBoth(t, srv)
	var cp monitor.Checkpoint
	for name, conn := range conns {
		if err := conn.Send(1, &cp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := conn.Recv(); err != nil {
			t.Fatalf("%s first prediction: %v", name, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(ctx) }()
	waitFor(t, time.Second, srv.Draining)

	for name, conn := range conns {
		// The blocked read is nudged awake; with sends racing the nudge the
		// refusal may take one extra exchange to surface.
		var se *ServerError
		var err error
		for range 3 {
			if _, err = conn.Recv(); errors.As(err, &se) {
				break
			}
			conn.Send(2, &cp)
		}
		if se == nil || se.Code != ErrCodeDraining {
			t.Fatalf("%s mid-drain Recv: got %v, want *ServerError{draining}", name, err)
		}
		conn.Close()
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := Dial(srv.TCPAddr(), ""); err == nil {
		t.Fatal("dial after drain succeeded")
	}
	if srv.Sessions() != 0 {
		t.Fatalf("sessions after drain: %d", srv.Sessions())
	}
}

// TestHotSwapAtReset pins the reload boundary: a published model reaches a
// live connection at its next RESET, never mid-stream, and post-swap
// predictions are bit-identical to a fresh session of the new model.
func TestHotSwapAtReset(t *testing.T) {
	m1 := goldenModel(t)
	m2, err := fleet.TrainModel(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Model: m1})
	conn, err := Dial(srv.TCPAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Epoch() != 1 {
		t.Fatalf("handshake epoch: %d", conn.Epoch())
	}

	replay := fleet.NewReplay(3, fleet.Specs(3, 1)[0])
	var cp monitor.Checkpoint
	step := func(seq uint32) Prediction {
		t.Helper()
		replay.Step(&cp)
		if err := conn.Send(seq, &cp); err != nil {
			t.Fatal(err)
		}
		p, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	if p := step(1); p.Epoch != 1 {
		t.Fatalf("pre-swap epoch: %d", p.Epoch)
	}
	seq, err := srv.SwapModel(m2)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("SwapModel returned epoch %d", seq)
	}
	// Mid-stream: still the old epoch.
	if p := step(2); p.Epoch != 1 {
		t.Fatalf("mid-stream epoch after swap: %d (swap leaked mid-stream)", p.Epoch)
	}
	if err := conn.Reset(); err != nil {
		t.Fatal(err)
	}
	// Post-reset: the new epoch, bit-identical to a fresh session of m2.
	replay.Restart()
	ref := m2.NewSession()
	for i := uint32(1); i <= 16; i++ {
		replay.Step(&cp)
		want, err := ref.Observe(cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(i, &cp); err != nil {
			t.Fatal(err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != 2 {
			t.Fatalf("post-reset epoch: %d", got.Epoch)
		}
		if math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) {
			t.Fatalf("post-swap seq %d: served ttf %v != local %v", i, got.TTFSec, want.TTFSec)
		}
	}
}

// TestAdaptiveConcurrent is the -race workout: many connections across both
// transports hammering one adaptive Supervisor while its pump retrains and
// publishes, with crash resolutions and resets in the mix.
func TestAdaptiveConcurrent(t *testing.T) {
	sup, err := adapt.NewSupervisor(adapt.Config{MinFreshRuns: 2}, goldenModel(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Supervisor: sup, AdaptEvery: time.Millisecond})
	if !srv.Adaptive() {
		t.Fatal("server not adaptive")
	}

	const conns = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				var conn Conn
				var err error
				if w%2 == 0 {
					conn, err = Dial(srv.TCPAddr(), "")
				} else {
					conn, err = DialHTTP("http://"+srv.HTTPAddr(), "")
				}
				if err != nil {
					return fmt.Errorf("conn %d: %w", w, err)
				}
				defer conn.Close()
				replay := fleet.NewReplay(uint64(100+w), fleet.Specs(uint64(100+w), 1)[0])
				var cp monitor.Checkpoint
				for i := uint32(1); i <= 200; i++ {
					crashed := replay.Step(&cp)
					if !crashed {
						if err := conn.Send(i, &cp); err != nil {
							return fmt.Errorf("conn %d send %d: %w", w, i, err)
						}
						if _, err := conn.Recv(); err != nil {
							return fmt.Errorf("conn %d recv %d: %w", w, i, err)
						}
					}
					if crashed || i%64 == 0 {
						kind, ts := ResolveCensored, 0.0
						if crashed {
							kind, ts = ResolveCrash, replay.TimeSec()
						}
						if err := conn.Resolve(kind, ts); err != nil {
							return fmt.Errorf("conn %d resolve: %w", w, err)
						}
						if err := conn.Reset(); err != nil {
							return fmt.Errorf("conn %d reset: %w", w, err)
						}
						replay.Restart()
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestCRCIsIEEE pins the checksum choice into the wire contract: third-party
// clients hard-code it.
func TestCRCIsIEEE(t *testing.T) {
	if got := crc32.ChecksumIEEE([]byte("agingpred")); got != 0x1ee2c2ab {
		t.Fatalf("crc32(\"agingpred\") = %#x, want 0x1ee2c2ab (IEEE)", got)
	}
}

// TestCloseHandshake pins the graceful close: CLOSE draws a CLOSE echo on the
// binary transport, then EOF.
func TestCloseHandshake(t *testing.T) {
	srv := startServer(t, Config{Model: goldenModel(t)})
	nc, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wire, _ := AppendFrame(nil, &Frame{Type: FrameHello, Version: ProtocolVersion})
	wire, _ = AppendFrame(wire, &Frame{Type: FrameClose})
	if _, err := nc.Write(wire); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(nc, DefaultMaxFrameBytes)
	var f Frame
	if err := fr.Next(&f); err != nil || f.Type != FrameWelcome {
		t.Fatalf("WELCOME: %v %s", err, f.Type)
	}
	if err := fr.Next(&f); err != nil || f.Type != FrameClose {
		t.Fatalf("CLOSE echo: %v %s", err, f.Type)
	}
	if err := fr.Next(&f); err != io.EOF {
		t.Fatalf("after CLOSE: got %v, want io.EOF", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutinesIn counts the goroutines whose stack mentions fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, fn) {
			n++
		}
	}
	return n
}

// TestAdaptiveDrainJoinsRetrain drains an adaptive server while a retrain
// is in flight: Drain must not return before the training goroutine has
// finished, and the server leaves no goroutine behind.
func TestAdaptiveDrainJoinsRetrain(t *testing.T) {
	seed, err := fleet.TrainingSeries(1)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := adapt.NewSupervisor(adapt.Config{
		Detector: adapt.DetectorConfig{BaselineSec: 1, Hysteresis: 1, MinBaselineSec: 1},
		Seed:     seed, // a retrain on the fleet's training runs takes a while
	}, goldenModel(t))
	if err != nil {
		t.Fatal(err)
	}
	// One resolved crash trips the 1 s baseline and buffers a fresh run.
	var spec fleet.InstanceSpec
	for _, s := range fleet.Specs(3, 64) {
		if s.Profile.Aging() {
			spec = s
			break
		}
	}
	replay := fleet.NewReplay(3, spec)
	st := sup.NewStream("crashing")
	var cp monitor.Checkpoint
	for tick := 0; !replay.Step(&cp); tick++ {
		if tick == 24*240 {
			t.Fatalf("instance %+v did not crash in a simulated day", spec)
		}
		if _, err := st.Observe(cp); err != nil {
			t.Fatal(err)
		}
	}
	st.ResolveCrash(replay.TimeSec())

	base := runtime.NumGoroutine()
	srv := startServer(t, Config{Supervisor: sup, AdaptEvery: time.Hour})
	if !sup.StartRetrain() {
		t.Fatalf("no retrain due after a crash against a 1 s baseline: %+v", sup.Stats())
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := goroutinesIn("agingpred/internal/core.Train("); n != 0 {
		t.Fatalf("%d retrains still training after Drain returned", n)
	}
	if sup.Stats().RetrainPending {
		t.Fatalf("retrain still pending after Drain returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Drain returned, %d before Start", n, base)
	}
}
