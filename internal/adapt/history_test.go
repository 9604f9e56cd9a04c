package adapt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"agingpred/internal/monitor"
)

// historyCheckpoints builds n checkpoints whose fields cycle through the bit
// patterns in vals, so equal-value runs, sign flips and special values land on
// every field and at every offset within a block.
func historyCheckpoints(vals []uint64, n int) []monitor.Checkpoint {
	cps := make([]monitor.Checkpoint, n)
	k := 0
	for c := range cps {
		for i := range cps[c].Vec() {
			cps[c].Vec()[i] = math.Float64frombits(vals[k%len(vals)])
			k++
		}
	}
	return cps
}

// encoded returns the history's encoded checkpoints, concatenated: the bytes
// each one takes, without the slack that closes a block.
func (h *history) encoded() []byte {
	var out []byte
	blk, off := -1, historyBlockSize
	for k := 0; k < h.n; k++ {
		if historyBlockSize-off < maxEncodedCheckpoint {
			blk++
			off = 0
		}
		start := off
		for i := 0; i < monitor.NumFields; i++ {
			off += 1 + int(h.blocks[blk][off]>>4)
		}
		out = append(out, h.blocks[blk][start:off]...)
	}
	return out
}

// checkRoundTrip pushes cps into h and checks the decoded history equals them
// bit for bit.
func checkRoundTrip(t *testing.T, h *history, cps []monitor.Checkpoint) {
	t.Helper()
	for i := range cps {
		h.push(&cps[i])
	}
	got := h.appendTo(nil)
	if len(got) != len(cps) {
		t.Fatalf("decoded %d checkpoints, pushed %d", len(got), len(cps))
	}
	for c := range cps {
		for i, v := range cps[c].Vec() {
			if g := got[c].Vec()[i]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("checkpoint %d field %d: decoded %#016x, pushed %#016x",
					c, i, math.Float64bits(g), math.Float64bits(v))
			}
		}
	}
}

// FuzzStreamHistory checks that arbitrary float64 bit patterns round-trip
// through the encoded history exactly, across block boundaries, and that a
// reset history encodes exactly like a fresh one.
func FuzzStreamHistory(f *testing.F) {
	special := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0xfff8dead0000beef, // negative NaN with a payload
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x0000000000000001, // smallest subnormal
		0x000fffffffffffff, // largest subnormal
		0x7fefffffffffffff, // largest finite
		// A run of equal values.
		math.Float64bits(15), math.Float64bits(15), math.Float64bits(15),
		0xffffffffffffffff,
	}
	seed := make([]byte, 0, 8*len(special))
	for _, v := range special {
		seed = binary.LittleEndian.AppendUint64(seed, v)
	}
	f.Add(seed, uint16(0), uint16(700))
	f.Add(seed[:8], uint16(3), uint16(300)) // one value everywhere: 20 bytes a checkpoint
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\xff\xfe\xfd\xfc\xfb\xfa\xf9"), uint16(50), uint16(60))
	f.Fuzz(func(t *testing.T, data []byte, before, after uint16) {
		if len(data) < 8 {
			return
		}
		vals := make([]uint64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, binary.LittleEndian.Uint64(data))
		}
		// Enough checkpoints to fill several blocks even at one byte a field.
		nBefore, nAfter := int(before)%1024, 1+int(after)%1024
		first := historyCheckpoints(vals, nBefore)
		second := historyCheckpoints(vals[len(vals)/2:], nAfter)

		var h history
		checkRoundTrip(t, &h, first)
		h.reset()
		checkRoundTrip(t, &h, second)

		var fresh history
		checkRoundTrip(t, &fresh, second)
		if !bytes.Equal(h.encoded(), fresh.encoded()) {
			t.Fatalf("history reset after %d checkpoints encodes %d checkpoints differently from a fresh one",
				nBefore, nAfter)
		}
	})
}

// noisyCheckpoint is checkpoint i of a never-crashing stream whose gauges
// carry measurement noise down to the last mantissa bit, as real monitored
// metrics do: 13 fields are noisy, the rest are a clock, constants and slow
// integer counts.
func noisyCheckpoint(r *rand.Rand, i int) monitor.Checkpoint {
	fi := float64(i)
	noise := func(scale float64) float64 { return scale * r.NormFloat64() }
	threads := 250 + 0.02*fi + noise(3)
	tomcat := 500 + 0.01*fi + 0.5*threads + noise(2)
	old := 200 + 0.01*fi + noise(4)
	young := 40 + noise(4)
	return monitor.Checkpoint{
		TimeSec:         15 * fi,
		Throughput:      10 + noise(0.5),
		Workload:        100,
		ResponseTimeSec: 0.05 + math.Abs(noise(0.01)),
		SystemLoad:      2 + noise(0.2),
		DiskUsedMB:      12000 + 0.1*fi + noise(0.3),
		SwapFreeMB:      2048,
		NumProcesses:    117,
		SystemMemUsedMB: 450 + tomcat + noise(5),
		TomcatMemUsedMB: tomcat,
		NumThreads:      threads,
		NumHTTPConns:    10 + noise(1),
		NumMySQLConns:   8 + noise(1),
		YoungMaxMB:      128,
		OldMaxMB:        832,
		YoungUsedMB:     young,
		OldUsedMB:       old,
		YoungPct:        young / 128 * 100,
		OldPct:          old / 832 * 100,
		TTFSec:          monitor.InfiniteTTFSec,
	}
}

// TestStreamHistoryBytesPerCheckpoint pins the label memory's footprint: one
// never-crashing stream of 10,000 noisy checkpoints keeps at most 128 bytes
// per checkpoint in its history blocks, slack at the end of each block
// included, where a raw copy takes 160.
func TestStreamHistoryBytesPerCheckpoint(t *testing.T) {
	model, _ := initialModel(t)
	sup, err := NewSupervisor(Config{}, model)
	if err != nil {
		t.Fatal(err)
	}
	st := sup.NewStream("noisy")
	const n = 10000
	r := rand.New(rand.NewPCG(26, 1))
	cps := make([]monitor.Checkpoint, n)
	for i := range cps {
		cps[i] = noisyCheckpoint(r, i+1)
		if _, err := st.Observe(cps[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The data must not be smooth enough to meet the bound on its own: at
	// least 12 fields change in their lowest mantissa byte at nearly every
	// checkpoint.
	noisy := 0
	for i := 0; i < monitor.NumFields; i++ {
		changed := 0
		for c := 1; c < n; c++ {
			if math.Float64bits(cps[c].Vec()[i])&0xff != math.Float64bits(cps[c-1].Vec()[i])&0xff {
				changed++
			}
		}
		if changed >= (n-1)*9/10 {
			noisy++
		}
	}
	if noisy < 12 {
		t.Fatalf("only %d fields carry full-mantissa noise, want >= 12", noisy)
	}

	if st.hist.n != n {
		t.Fatalf("history holds %d checkpoints, want %d", st.hist.n, n)
	}
	perCP := float64(st.hist.used*historyBlockSize) / n
	t.Logf("%d blocks, %.1f B per checkpoint (%.1f B payload)", st.hist.used, perCP, float64(len(st.hist.encoded()))/n)
	if perCP > 128 {
		t.Fatalf("history takes %.1f B per checkpoint, want <= 128", perCP)
	}
	got := st.hist.appendTo(nil)
	for c := range cps {
		if got[c] != cps[c] {
			t.Fatalf("checkpoint %d decoded as %+v, observed %+v", c, got[c], cps[c])
		}
	}
}

// TestStreamResetIsFresh pins reset ≡ fresh for the adaptive stream: after any
// prefix and a Reset, the predictions, the encoded history (its XOR
// predecessor included) and the labelled run a crash resolves are bit-for-bit
// a fresh stream's, across the feature windows' 4096-push sum recomputations.
func TestStreamResetIsFresh(t *testing.T) {
	model, _ := initialModel(t)
	r := rand.New(rand.NewPCG(13, 4096))
	// One training run replayed on a running clock, with noise down to the
	// last mantissa bit: predictions stay off the clamps.
	run := leakSeries("reset", 300, 2.0, 0.3).Checkpoints
	stream := func(n int) []monitor.Checkpoint {
		cps := make([]monitor.Checkpoint, n)
		for c := range cps {
			cps[c] = run[c%len(run)]
			v := cps[c].Vec()
			v[0] = 15 * float64(c+1)
			for i := 1; i < monitor.NumFields; i++ {
				v[i] += 1e-3 * (1 + math.Abs(v[i])) * r.NormFloat64()
			}
		}
		return cps
	}
	for _, prefix := range []int{1, 4097} {
		sup, err := NewSupervisor(Config{}, model)
		if err != nil {
			t.Fatal(err)
		}
		reused := sup.NewStream("reused")
		for _, cp := range stream(prefix) {
			if _, err := reused.Observe(cp); err != nil {
				t.Fatal(err)
			}
		}
		reused.Reset()
		fresh := sup.NewStream("fresh")
		suffix := stream(8300)
		for i, cp := range suffix {
			got, err := reused.Observe(cp)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := fresh.Observe(cp)
			if math.Float64bits(got.TTFSec) != math.Float64bits(want.TTFSec) {
				t.Fatalf("reset after %d checkpoints: checkpoint %d predicts %v s, fresh stream %v s",
					prefix, i, got.TTFSec, want.TTFSec)
			}
		}
		if !bytes.Equal(reused.hist.encoded(), fresh.hist.encoded()) {
			t.Fatalf("reset after %d checkpoints: history encodes differently from a fresh stream's", prefix)
		}
		crash := suffix[len(suffix)-1].TimeSec + 15
		reused.ResolveCrash(crash)
		fresh.ResolveCrash(crash)
		a, b := sup.buf[len(sup.buf)-2].Checkpoints, sup.buf[len(sup.buf)-1].Checkpoints
		if len(a) != len(suffix) || len(b) != len(suffix) {
			t.Fatalf("resolved runs hold %d and %d checkpoints, want %d", len(a), len(b), len(suffix))
		}
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("reset after %d checkpoints: resolved checkpoint %d is %+v, fresh stream's %+v", prefix, c, a[c], b[c])
			}
		}
	}
}
