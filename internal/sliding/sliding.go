// Package sliding implements the derived-metric machinery of the paper:
// per-resource consumption speeds smoothed with a sliding-window (moving)
// average, plus the ratio features built on top of them.
//
// Section 2.2 of the paper argues that the single most important derived
// variable is the consumption speed of every monitored resource, and that the
// instantaneous speed is too noisy to be useful: it must be averaged over a
// window of the last X observations. The window length X trades noise
// tolerance against reaction delay (the paper observes a 12-mark ≈ 180 s
// delay in experiment 4.2).
package sliding

import "fmt"

// Window is a fixed-capacity sliding window over float64 observations with
// O(1) push and O(1) mean. The zero value is not usable; use NewWindow, or
// WindowOver to lay the window over a slice of a caller's shared block.
type Window struct {
	buf   []float64
	size  int // number of valid observations, <= len(buf)
	next  int // index where the next observation is written
	sum   float64
	total uint64 // observations pushed since construction or the last Reset
}

// NewWindow returns a window holding at most capacity observations.
// It panics if capacity is not positive: a zero-length window is always a
// configuration bug.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("sliding: non-positive window capacity %d", capacity))
	}
	w := WindowOver(make([]float64, capacity))
	return &w
}

// WindowOver returns an empty window whose ring buffer is buf: its capacity
// is len(buf), and it owns buf from then on (buf must be zeroed and must not
// overlap another window's). Many windows laid over one contiguous block keep
// a stream's whole sliding state in a single allocation. It panics if buf is
// empty.
func WindowOver(buf []float64) Window {
	if len(buf) == 0 {
		panic("sliding: window over an empty buffer")
	}
	return Window{buf: buf}
}

// Len returns the number of observations currently in the window.
func (w *Window) Len() int { return w.size }

// Push adds an observation, evicting the oldest one if the window is full.
func (w *Window) Push(v float64) {
	if w.size == len(w.buf) {
		w.sum -= w.buf[w.next]
	} else {
		w.size++
	}
	w.buf[w.next] = v
	w.sum += v
	// Branch instead of % — the capacity is not a power of two, so the
	// modulo would be a real integer division on the hottest path.
	if w.next++; w.next == len(w.buf) {
		w.next = 0
	}
	w.total++

	// Floating-point error accumulates in the incremental sum over very long
	// runs; re-derive it periodically so the mean stays trustworthy.
	if w.total%4096 == 0 {
		w.recomputeSum()
	}
}

func (w *Window) recomputeSum() {
	sum := 0.0
	for i := 0; i < w.size; i++ {
		sum += w.at(i)
	}
	w.sum = sum
}

// at returns the i-th oldest observation, i in [0, size).
func (w *Window) at(i int) float64 {
	start := w.next - w.size
	if start < 0 {
		start += len(w.buf)
	}
	return w.buf[(start+i)%len(w.buf)]
}

// Mean returns the average of the observations in the window, or 0 if the
// window is empty. This is the paper's "sliding window average" (SWA).
func (w *Window) Mean() float64 {
	if w.size == 0 {
		return 0
	}
	return w.sum / float64(w.size)
}

// Last returns the most recent observation, or 0 if the window is empty.
func (w *Window) Last() float64 {
	if w.size == 0 {
		return 0
	}
	return w.at(w.size - 1)
}

// Reset empties the window. The push count restarts too, so the periodic
// sum recomputation runs in phase with a fresh window's and a reset window
// is bit-for-bit a fresh one.
func (w *Window) Reset() {
	w.size = 0
	w.next = 0
	w.sum = 0
	w.total = 0
	for i := range w.buf {
		w.buf[i] = 0
	}
}

// SpeedTracker turns a sequence of (time, level) observations of one resource
// into the paper's derived speed metrics: the instantaneous consumption speed
// between consecutive checkpoints and its sliding-window average.
//
// Speeds are expressed in resource units per second. A positive speed means
// the resource usage is growing (being consumed); a negative speed means it
// is being released.
type SpeedTracker struct {
	window Window

	havePrev  bool
	prevTime  float64
	prevLevel float64
}

// NewSpeedTracker returns a tracker whose sliding window holds windowLen
// speed observations. It panics if windowLen is not positive.
func NewSpeedTracker(windowLen int) *SpeedTracker {
	return &SpeedTracker{window: *NewWindow(windowLen)}
}

// TrackerOver returns a fresh tracker whose sliding window is laid over buf,
// with WindowOver's ownership rules.
func TrackerOver(buf []float64) SpeedTracker {
	return SpeedTracker{window: WindowOver(buf)}
}

// Observe records the resource level at the given time (seconds). The first
// observation only primes the tracker; subsequent observations add one speed
// sample per call. Observations must be given in non-decreasing time order;
// an observation at the same instant as the previous one is ignored (the
// speed would be undefined).
func (t *SpeedTracker) Observe(timeSec, level float64) error {
	// x−x is 0 for every finite x and NaN for NaN/±Inf, so this single
	// comparison screens both inputs; the slow path re-derives which one
	// offended for the message.
	if timeSec-timeSec != 0 || level-level != 0 {
		return fmt.Errorf("sliding: non-finite observation (t=%v, level=%v)", timeSec, level)
	}
	if !t.havePrev {
		t.havePrev = true
		t.prevTime = timeSec
		t.prevLevel = level
		return nil
	}
	if timeSec < t.prevTime {
		return fmt.Errorf("sliding: observation time went backwards: %v after %v", timeSec, t.prevTime)
	}
	if timeSec == t.prevTime {
		return nil
	}
	t.window.Push((level - t.prevLevel) / (timeSec - t.prevTime))
	t.prevTime = timeSec
	t.prevLevel = level
	return nil
}

// SWA returns the sliding-window average of the consumption speed. This is
// the "SWA variation" family of variables in Table 2.
func (t *SpeedTracker) SWA() float64 { return t.window.Mean() }

// Reset clears all state, as if the tracker were freshly constructed.
func (t *SpeedTracker) Reset() {
	t.window.Reset()
	t.havePrev = false
	t.prevTime = 0
	t.prevLevel = 0
}

// safeDivLimit bounds the ratio features when the denominator approaches
// zero. The paper's derived variables divide by SWA speeds and by throughput,
// both of which can legitimately be zero (no aging, idle server); clamping
// keeps the features finite without losing the "effectively infinite" signal.
// The limit is kept modest so the squared values inside the least-squares
// solver stay far away from the limits of float64.
const safeDivLimit = 1e6

// SafeDiv returns num/den clamped to [-safeDivLimit, safeDivLimit], and 0
// when den is exactly 0 and num is 0. A zero denominator with a non-zero
// numerator returns ±safeDivLimit, preserving the sign of the numerator.
func SafeDiv(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		if num > 0 {
			return safeDivLimit
		}
		return -safeDivLimit
	}
	v := num / den
	if v > safeDivLimit {
		return safeDivLimit
	}
	if v < -safeDivLimit {
		return -safeDivLimit
	}
	return v
}

// Inverse returns 1/v with the same clamping rules as SafeDiv. It implements
// the "1/SWA" family of Table 2 variables, which estimate seconds per unit of
// resource consumed (the building block of time-to-exhaustion estimates).
func Inverse(v float64) float64 { return SafeDiv(1, v) }

// TimeToExhaustion returns the naive linear estimate of the time (seconds)
// until the resource reaches capacity: (capacity - level) / speed, clamped.
// A non-positive speed yields the clamp limit, meaning "no exhaustion in
// sight". This is Equation (1) of the paper and is used both as a derived
// feature and as the naive baseline predictor.
func TimeToExhaustion(capacity, level, speed float64) float64 {
	remaining := capacity - level
	if remaining <= 0 {
		return 0
	}
	if speed <= 0 {
		return safeDivLimit
	}
	return SafeDiv(remaining, speed)
}
