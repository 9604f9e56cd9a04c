package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"agingpred/internal/monitor"
)

// sampleFrames is one well-formed frame of every type, with every field of
// that type populated (including awkward values: NaN payloads, empty and
// non-empty strings), so the round-trip test and the fuzz seed corpus cover
// the full vocabulary.
func sampleFrames() []Frame {
	var vec [monitor.NumFields]float64
	for i := range vec {
		vec[i] = float64(i) * 1.25
	}
	vec[3] = math.Inf(1)
	vec[7] = math.NaN()
	return []Frame{
		{Type: FrameHello, Version: ProtocolVersion, Flags: 0x00ff, Schema: "full"},
		{Type: FrameHello, Version: ProtocolVersion, Schema: ""},
		{Type: FrameWelcome, Version: ProtocolVersion, Epoch: 42, ModelKind: "m5p", Schema: "full"},
		{Type: FrameCheckpoint, Seq: 123456, Vec: vec},
		{Type: FramePredict, Seq: 99, Epoch: 7, TimeSec: 1234.5, TTFSec: 8765.4321, CrashExpected: true},
		{Type: FramePredict, Seq: 0, Epoch: 1, TimeSec: 0, TTFSec: math.Inf(1)},
		{Type: FrameResolve, Kind: ResolveCrash, CrashTimeSec: 4321.125},
		{Type: FrameResolve, Kind: ResolveCensored},
		{Type: FrameReset},
		{Type: FrameClose},
		{Type: FrameError, Code: ErrCodeDraining, Message: "server is draining"},
		{Type: FrameError, Code: ErrCodeMalformed, Message: ""},
	}
}

// frameEq compares two frames with NaN-tolerant float equality (the wire
// carries raw IEEE-754 bits, so NaN must survive the trip even though
// NaN != NaN).
func frameEq(a, b *Frame) bool {
	bits := math.Float64bits
	if a.Type != b.Type || a.Version != b.Version || a.Flags != b.Flags ||
		a.Schema != b.Schema || a.Epoch != b.Epoch || a.ModelKind != b.ModelKind ||
		a.Seq != b.Seq || bits(a.TimeSec) != bits(b.TimeSec) ||
		bits(a.TTFSec) != bits(b.TTFSec) || a.CrashExpected != b.CrashExpected ||
		a.Kind != b.Kind || bits(a.CrashTimeSec) != bits(b.CrashTimeSec) ||
		a.Code != b.Code || a.Message != b.Message {
		return false
	}
	for i := range a.Vec {
		if bits(a.Vec[i]) != bits(b.Vec[i]) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	frames := sampleFrames()
	for _, f := range frames {
		var err error
		wire, err = AppendFrame(wire, &f)
		if err != nil {
			t.Fatalf("AppendFrame(%s): %v", f.Type, err)
		}
	}
	fr := newFrameReader(bytes.NewReader(wire), DefaultMaxFrameBytes)
	var got Frame
	for i, want := range frames {
		if err := fr.Next(&got); err != nil {
			t.Fatalf("frame %d (%s): %v", i, want.Type, err)
		}
		if !frameEq(&got, &want) {
			t.Errorf("frame %d (%s) round-trip mismatch:\n got %+v\nwant %+v", i, want.Type, got, want)
		}
	}
	if err := fr.Next(&got); err != io.EOF {
		t.Fatalf("after the last frame: got %v, want io.EOF", err)
	}
}

// encodeBody returns just the body bytes (type + payload) of one frame, for
// driving DecodeFrameBody directly.
func encodeBody(t *testing.T, f *Frame) []byte {
	t.Helper()
	wire, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame(%s): %v", f.Type, err)
	}
	return wire[4 : len(wire)-4]
}

func TestFrameRejects(t *testing.T) {
	checkpoint := encodeBody(t, &Frame{Type: FrameCheckpoint, Seq: 1})
	hello := encodeBody(t, &Frame{Type: FrameHello, Version: ProtocolVersion, Schema: "full"})

	t.Run("truncated payload", func(t *testing.T) {
		var f Frame
		for n := 0; n < len(checkpoint); n++ {
			if err := DecodeFrameBody(checkpoint[:n], &f); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		var f Frame
		if err := DecodeFrameBody(append(append([]byte{}, checkpoint...), 0), &f); !errors.Is(err, errFrameField) {
			t.Fatalf("got %v, want errFrameField", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		var f Frame
		if err := DecodeFrameBody([]byte{0xee}, &f); !errors.Is(err, errFrameType) {
			t.Fatalf("got %v, want errFrameType", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, hello...)
		bad[1] = 'X'
		var f Frame
		if err := DecodeFrameBody(bad, &f); !errors.Is(err, errFrameMagic) {
			t.Fatalf("got %v, want errFrameMagic", err)
		}
	})
	t.Run("bad vector length", func(t *testing.T) {
		bad := append([]byte{}, checkpoint...)
		bad[5] = monitor.NumFields + 1 // the declared vector length byte
		var f Frame
		if err := DecodeFrameBody(bad, &f); !errors.Is(err, errFrameVecSize) {
			t.Fatalf("got %v, want errFrameVecSize", err)
		}
	})
	t.Run("bad resolve kind", func(t *testing.T) {
		bad := encodeBody(t, &Frame{Type: FrameResolve, Kind: ResolveCrash})
		bad[1] = 9
		var f Frame
		if err := DecodeFrameBody(bad, &f); !errors.Is(err, errFrameField) {
			t.Fatalf("got %v, want errFrameField", err)
		}
	})
	t.Run("bad crash-expected flag", func(t *testing.T) {
		bad := encodeBody(t, &Frame{Type: FramePredict})
		bad[len(bad)-1] = 2
		var f Frame
		if err := DecodeFrameBody(bad, &f); !errors.Is(err, errFrameField) {
			t.Fatalf("got %v, want errFrameField", err)
		}
	})

	// The envelope-level rejections need a frameReader.
	wireOf := func(f *Frame) []byte {
		wire, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	t.Run("oversized length prefix", func(t *testing.T) {
		wire := wireOf(&Frame{Type: FrameReset})
		binary.BigEndian.PutUint32(wire, 1<<30)
		var f Frame
		if err := newFrameReader(bytes.NewReader(wire), DefaultMaxFrameBytes).Next(&f); !errors.Is(err, errFrameTooBig) {
			t.Fatalf("got %v, want errFrameTooBig", err)
		}
	})
	t.Run("zero length prefix", func(t *testing.T) {
		wire := wireOf(&Frame{Type: FrameReset})
		binary.BigEndian.PutUint32(wire, 0)
		var f Frame
		if err := newFrameReader(bytes.NewReader(wire), DefaultMaxFrameBytes).Next(&f); !errors.Is(err, errFrameTrunc) {
			t.Fatalf("got %v, want errFrameTrunc", err)
		}
	})
	t.Run("corrupt CRC", func(t *testing.T) {
		wire := wireOf(&Frame{Type: FrameError, Code: ErrCodeIdle, Message: "x"})
		wire[len(wire)-1] ^= 0xff
		var f Frame
		if err := newFrameReader(bytes.NewReader(wire), DefaultMaxFrameBytes).Next(&f); !errors.Is(err, errFrameCRC) {
			t.Fatalf("got %v, want errFrameCRC", err)
		}
	})
	t.Run("corrupt body fails CRC before parsing", func(t *testing.T) {
		wire := wireOf(&Frame{Type: FrameCheckpoint, Seq: 7})
		wire[10] ^= 0x01
		var f Frame
		if err := newFrameReader(bytes.NewReader(wire), DefaultMaxFrameBytes).Next(&f); !errors.Is(err, errFrameCRC) {
			t.Fatalf("got %v, want errFrameCRC", err)
		}
	})
}

// TestAppendFrameRejectsOversizedStrings pins the encoder's only failure mode:
// strings longer than a uint16 length prefix.
func TestAppendFrameRejectsOversizedStrings(t *testing.T) {
	huge := string(make([]byte, math.MaxUint16+1))
	for _, f := range []Frame{
		{Type: FrameHello, Schema: huge},
		{Type: FrameWelcome, ModelKind: huge},
		{Type: FrameError, Message: huge},
	} {
		if _, err := AppendFrame(nil, &f); !errors.Is(err, errFrameField) {
			t.Errorf("AppendFrame(%s with oversized string): got %v, want errFrameField", f.Type, err)
		}
	}
	if _, err := AppendFrame(nil, &Frame{Type: FrameType(200)}); !errors.Is(err, errFrameType) {
		t.Errorf("AppendFrame(unknown type): got %v, want errFrameType", err)
	}
}

// batchedTranscriptBodies replays a short live conversation against a batched
// server — HELLO through checkpoint streaming, crash→RESOLVE→RESET, a censored
// resolve and a CLOSE echo — and returns the body bytes of every frame that
// crossed the wire in either direction. Seeding the fuzz corpus with a real
// batched transcript covers the value shapes the batched path actually emits
// (replay-driven vectors, deadline-flushed predictions, epoch fields), not
// just the hand-built samples above.
func batchedTranscriptBodies(f *testing.F) [][]byte {
	srv, err := Start(Config{
		Model:       goldenModel(f),
		TCPAddr:     "127.0.0.1:0",
		HTTPAddr:    "127.0.0.1:0",
		Batch:       4,
		BatchWindow: 100 * time.Microsecond,
		BatchShards: 1,
	})
	if err != nil {
		f.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		f.Fatal(err)
	}
	defer nc.Close()
	fr := newFrameReader(nc, DefaultMaxFrameBytes)

	var bodies [][]byte
	send := func(fm *Frame) {
		wire, err := AppendFrame(nil, fm)
		if err != nil {
			f.Fatalf("encoding %d for the transcript: %v", fm.Type, err)
		}
		bodies = append(bodies, wire[4:len(wire)-4])
		if _, err := nc.Write(wire); err != nil {
			f.Fatalf("writing frame type %d: %v", fm.Type, err)
		}
	}
	recv := func(want FrameType) {
		var got Frame
		if err := fr.Next(&got); err != nil {
			f.Fatalf("reading reply (want type %d): %v", want, err)
		}
		if got.Type != want {
			f.Fatalf("reply type %d, want %d", got.Type, want)
		}
		// Re-encoding recovers the exact body bytes: TestFrameRoundTrip and
		// the bijection property below pin encode∘decode as the identity.
		wire, err := AppendFrame(nil, &got)
		if err != nil {
			f.Fatalf("re-encoding reply type %d: %v", got.Type, err)
		}
		bodies = append(bodies, wire[4:len(wire)-4])
	}

	send(&Frame{Type: FrameHello, Version: ProtocolVersion})
	recv(FrameWelcome)
	replay := instance(1)
	var seq uint32
	for n := 0; n < 40; n++ {
		var cp monitor.Checkpoint
		if replay.Step(&cp) {
			send(&Frame{Type: FrameResolve, Kind: ResolveCrash, CrashTimeSec: replay.TimeSec()})
			send(&Frame{Type: FrameReset})
			replay.Restart()
			continue
		}
		seq++
		send(&Frame{Type: FrameCheckpoint, Seq: seq, Vec: *cp.Vec()})
		recv(FramePredict)
	}
	send(&Frame{Type: FrameResolve, Kind: ResolveCensored})
	send(&Frame{Type: FrameClose})
	recv(FrameClose)
	return bodies
}

// FuzzDecodeFrame pins the decoder's two safety properties on arbitrary
// bodies: it never panics, and every body it accepts re-encodes to exactly
// the bytes that produced it (decode(encode(f)) == f, frame-wide). The second
// property is what rules out silently-ignored payload bytes — a decoder that
// skipped trailing garbage would accept bodies its encoder can never emit.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range sampleFrames() {
		wire, err := AppendFrame(nil, &s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire[4 : len(wire)-4])
	}
	f.Add([]byte{})
	f.Add([]byte{byte(FrameCheckpoint), 0, 0, 0, 1, monitor.NumFields})
	for _, body := range batchedTranscriptBodies(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fr Frame
		if err := DecodeFrameBody(body, &fr); err != nil {
			return
		}
		wire, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		got := wire[4 : len(wire)-4]
		if !bytes.Equal(got, body) {
			t.Fatalf("decode/encode not a bijection:\n body %x\n re-enc %x", body, got)
		}
		if crc32.ChecksumIEEE(got) != crc32.ChecksumIEEE(body) {
			t.Fatal("CRC mismatch on identical bytes (unreachable)")
		}
	})
}
