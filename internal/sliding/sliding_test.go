package sliding

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// values returns the window's observations from oldest to newest.
func values(w *Window) []float64 {
	out := make([]float64, w.size)
	for i := range out {
		out[i] = w.at(i)
	}
	return out
}

func TestNewWindowPanicsOnBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWindow(%d) did not panic", c)
				}
			}()
			NewWindow(c)
		}()
	}
}

func TestWindowMeanBeforeFull(t *testing.T) {
	w := NewWindow(4)
	if w.Mean() != 0 || w.Len() != 0 || w.Last() != 0 {
		t.Fatalf("empty window: Mean=%v Len=%d Last=%v", w.Mean(), w.Len(), w.Last())
	}
	w.Push(2)
	w.Push(4)
	if got := w.Mean(); got != 3 {
		t.Fatalf("Mean of [2 4] = %v, want 3", got)
	}
	if w.size == len(w.buf) {
		t.Fatalf("window reported full with 2/4 observations")
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		w.Push(v)
	}
	if w.size != len(w.buf) {
		t.Fatalf("window not full after 5 pushes")
	}
	if got := w.Mean(); got != 4 {
		t.Fatalf("Mean after eviction = %v, want 4 (window [3 4 5])", got)
	}
	if got := w.Last(); got != 5 {
		t.Fatalf("Last = %v, want 5", got)
	}
	vals := values(w)
	want := []float64{3, 4, 5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v, want %v", vals, want)
		}
	}
	if w.total != 5 {
		t.Fatalf("total = %d, want 5", w.total)
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(3)
	w.Push(10)
	w.Push(20)
	w.Reset()
	if w.Len() != 0 || w.Mean() != 0 {
		t.Fatalf("Reset left Len=%d Mean=%v", w.Len(), w.Mean())
	}
	w.Push(7)
	if w.Mean() != 7 {
		t.Fatalf("window unusable after Reset: Mean=%v", w.Mean())
	}
}

func TestWindowSumRecomputationStability(t *testing.T) {
	// Push far more than the recompute period with values that stress the
	// incremental sum; the mean must stay near the true window mean.
	w := NewWindow(16)
	for i := 0; i < 100000; i++ {
		w.Push(1e9 + float64(i%7))
	}
	vals := values(w)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	want := sum / float64(len(vals))
	if math.Abs(w.Mean()-want) > 1e-3 {
		t.Fatalf("Mean drifted: got %v, want %v", w.Mean(), want)
	}
}

func TestSpeedTrackerBasics(t *testing.T) {
	tr := NewSpeedTracker(4)
	if tr.window.Last() != 0 || tr.SWA() != 0 || tr.window.Len() != 0 {
		t.Fatalf("fresh tracker not zeroed")
	}
	// Resource grows 10 units every 15 seconds.
	for i := 0; i <= 5; i++ {
		if err := tr.Observe(float64(i)*15, float64(i)*10); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	wantSpeed := 10.0 / 15.0
	if math.Abs(tr.window.Last()-wantSpeed) > 1e-12 {
		t.Fatalf("last speed = %v, want %v", tr.window.Last(), wantSpeed)
	}
	if math.Abs(tr.SWA()-wantSpeed) > 1e-12 {
		t.Fatalf("SWA = %v, want %v", tr.SWA(), wantSpeed)
	}
	if tr.window.Len() != 4 {
		t.Fatalf("speed samples = %d, want 4 (window capacity)", tr.window.Len())
	}
	if tr.prevLevel != 50 {
		t.Fatalf("level = %v, want 50", tr.prevLevel)
	}
}

func TestSpeedTrackerSWASmoothsChanges(t *testing.T) {
	tr := NewSpeedTracker(4)
	// Constant slope 1 for a while, then slope 5.
	now := 0.0
	level := 0.0
	for i := 0; i < 10; i++ {
		_ = tr.Observe(now, level)
		now++
		level++
	}
	swaBefore := tr.SWA()
	_ = tr.Observe(now, level)
	now++
	level += 5
	_ = tr.Observe(now, level)
	// One fast sample out of four: the SWA moves toward 5 but lags the
	// instantaneous speed — this is the delay the paper discusses.
	if tr.window.Last() != 5 {
		t.Fatalf("instantaneous speed = %v, want 5", tr.window.Last())
	}
	if !(tr.SWA() > swaBefore && tr.SWA() < tr.window.Last()) {
		t.Fatalf("SWA = %v, want between %v and %v", tr.SWA(), swaBefore, tr.window.Last())
	}
}

func TestSpeedTrackerNegativeSpeedOnRelease(t *testing.T) {
	tr := NewSpeedTracker(8)
	_ = tr.Observe(0, 100)
	_ = tr.Observe(10, 50)
	if tr.window.Last() >= 0 {
		t.Fatalf("releasing resource should yield negative speed, got %v", tr.window.Last())
	}
}

func TestSpeedTrackerErrors(t *testing.T) {
	tr := NewSpeedTracker(4)
	if err := tr.Observe(math.NaN(), 1); err == nil {
		t.Fatalf("Observe(NaN) succeeded")
	}
	if err := tr.Observe(0, math.Inf(1)); err == nil {
		t.Fatalf("Observe(level=Inf) succeeded")
	}
	if err := tr.Observe(10, 1); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := tr.Observe(5, 2); err == nil {
		t.Fatalf("Observe with time going backwards succeeded")
	}
	// Same-instant observation is ignored, not an error.
	if err := tr.Observe(10, 99); err != nil {
		t.Fatalf("Observe at same instant: %v", err)
	}
	if tr.window.Len() != 0 {
		t.Fatalf("same-instant observation produced a speed sample")
	}
}

func TestSpeedTrackerReset(t *testing.T) {
	tr := NewSpeedTracker(4)
	_ = tr.Observe(0, 0)
	_ = tr.Observe(1, 10)
	tr.Reset()
	if tr.window.Last() != 0 || tr.SWA() != 0 || tr.window.Len() != 0 || tr.prevLevel != 0 {
		t.Fatalf("Reset did not clear tracker state")
	}
	// After reset the first observation only primes again.
	_ = tr.Observe(100, 5)
	if tr.window.Len() != 0 {
		t.Fatalf("first observation after Reset produced a speed sample")
	}
}

func TestSafeDiv(t *testing.T) {
	tests := []struct {
		num, den, want float64
	}{
		{10, 2, 5},
		{0, 0, 0},
		{3, 0, safeDivLimit},
		{-3, 0, -safeDivLimit},
		{1e30, 1e-30, safeDivLimit},
		{-1e30, 1e-30, -safeDivLimit},
	}
	for _, tt := range tests {
		if got := SafeDiv(tt.num, tt.den); got != tt.want {
			t.Errorf("SafeDiv(%v, %v) = %v, want %v", tt.num, tt.den, got, tt.want)
		}
	}
}

func TestInverse(t *testing.T) {
	if got := Inverse(4); got != 0.25 {
		t.Fatalf("Inverse(4) = %v, want 0.25", got)
	}
	if got := Inverse(0); got != safeDivLimit {
		t.Fatalf("Inverse(0) = %v, want clamp", got)
	}
}

func TestTimeToExhaustion(t *testing.T) {
	tests := []struct {
		name                   string
		capacity, level, speed float64
		want                   float64
	}{
		{name: "simple", capacity: 100, level: 40, speed: 2, want: 30},
		{name: "already exhausted", capacity: 100, level: 100, speed: 2, want: 0},
		{name: "over capacity", capacity: 100, level: 150, speed: 2, want: 0},
		{name: "no consumption", capacity: 100, level: 40, speed: 0, want: safeDivLimit},
		{name: "releasing", capacity: 100, level: 40, speed: -1, want: safeDivLimit},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TimeToExhaustion(tt.capacity, tt.level, tt.speed); got != tt.want {
				t.Fatalf("TimeToExhaustion(%v,%v,%v) = %v, want %v", tt.capacity, tt.level, tt.speed, got, tt.want)
			}
		})
	}
}

// Property: the window mean always lies between the min and max of the
// retained values, and equals the brute-force mean of values(w).
func TestWindowMeanBoundsProperty(t *testing.T) {
	f := func(vals []float64, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		w := NewWindow(capacity)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			w.Push(v)
		}
		retained := values(w)
		if len(retained) == 0 {
			return w.Mean() == 0
		}
		minV, maxV, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, v := range retained {
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
			sum += v
		}
		mean := sum / float64(len(retained))
		const eps = 1e-6
		tol := eps * (1 + math.Abs(mean))
		return w.Mean() >= minV-tol && w.Mean() <= maxV+tol && math.Abs(w.Mean()-mean) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for a linear resource (constant slope), the tracker's SWA equals
// the slope regardless of window size or sampling interval.
func TestSpeedTrackerLinearResourceProperty(t *testing.T) {
	f := func(slopeSeed int16, stepSeed, windowSeed uint8) bool {
		slope := float64(slopeSeed) / 16
		step := float64(stepSeed%30) + 1
		window := int(windowSeed%20) + 1
		tr := NewSpeedTracker(window)
		for i := 0; i < 50; i++ {
			tm := float64(i) * step
			if err := tr.Observe(tm, slope*tm); err != nil {
				return false
			}
		}
		return math.Abs(tr.SWA()-slope) <= 1e-9*(1+math.Abs(slope))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// resetPrefixes are the push counts before a Reset in the reset ≡ fresh
// tests: on either side of the 4096-push sum recomputation, and past it. The
// pushes after the Reset (resetSuffix) cross two recomputations.
var resetPrefixes = []int{1, 97, 4095, 4096, 4097, 6000}

const resetSuffix = 8300

// TestWindowResetIsFresh pins reset ≡ fresh: any pushes, a Reset, then any
// pushes leave a window bit-for-bit equal to a fresh window given only the
// pushes after the Reset, whatever the prefix's phase against the periodic
// sum recomputation and the ring wrap.
func TestWindowResetIsFresh(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4096))
	for _, capacity := range []int{7, 12} {
		for _, prefix := range resetPrefixes {
			reused := NewWindow(capacity)
			for i := 0; i < prefix; i++ {
				reused.Push(r.NormFloat64() * 1e3)
			}
			reused.Reset()
			fresh := NewWindow(capacity)
			for i := 0; i < resetSuffix; i++ {
				v := 0.1 + r.Float64()*1e-2
				reused.Push(v)
				fresh.Push(v)
				if math.Float64bits(reused.Mean()) != math.Float64bits(fresh.Mean()) ||
					reused.total != fresh.total {
					t.Fatalf("capacity %d, reset after %d pushes: push %d gives mean %v total %d, fresh window %v %d",
						capacity, prefix, i+1, reused.Mean(), reused.total, fresh.Mean(), fresh.total)
				}
			}
		}
	}
}

// TestSpeedTrackerResetIsFresh pins reset ≡ fresh one layer up: a reset
// tracker reports the same speeds and SWA bits as a freshly constructed one.
func TestSpeedTrackerResetIsFresh(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 4096))
	for _, prefix := range resetPrefixes {
		reused := NewSpeedTracker(12)
		level := 0.0
		for i := 0; i <= prefix; i++ {
			level += r.NormFloat64()
			if err := reused.Observe(15*float64(i), level); err != nil {
				t.Fatal(err)
			}
		}
		reused.Reset()
		fresh := NewSpeedTracker(12)
		for i := 0; i <= resetSuffix; i++ {
			level += 1 + r.Float64()
			ts := 15 * float64(i)
			if err := reused.Observe(ts, level); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Observe(ts, level); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(reused.SWA()) != math.Float64bits(fresh.SWA()) ||
				math.Float64bits(reused.window.Last()) != math.Float64bits(fresh.window.Last()) {
				t.Fatalf("reset after %d speed samples: observation %d gives SWA %v, fresh tracker %v",
					prefix, i, reused.SWA(), fresh.SWA())
			}
		}
	}
}
