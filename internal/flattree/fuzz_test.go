package flattree

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFlattenTree fuzzes the flattened-tree layer below the model encode/
// decode formats (core's FuzzDecodeModel covers the artifact bytes):
// arbitrary parallel-array layouts — corrupt child/parent indices, NaN
// thresholds, out-of-range model columns, truncated term arrays — are handed
// to validate, which must reject every inconsistent layout with an error,
// never a panic or a hang. Layouts that validate accepts are then evaluated:
// Predict must terminate (the strictly-increasing child indices it just
// verified bound the descent) and PredictBatch must agree with it bit for
// bit.
//
// The seed corpus is one layout of each shape the three model families bind
// to — smoothed and unsmoothed M5P trees, a single smoothed leaf, a
// regression tree (intercept-only leaves, no smoothing) and a linear model
// (one node with terms) — serialized by flatBytes, so the fuzzer starts from
// valid layouts and mutates them into near-valid ones, the corruptions
// validate exists for.
func FuzzFlattenTree(f *testing.F) {
	for _, tree := range corpusTrees(f) {
		f.Add(flatBytes(tree))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		bt := decodeFlat(data)
		if bt == nil {
			return
		}
		if err := bt.validate(); err != nil {
			return // rejected is fine; only panics and hangs are bugs
		}
		rows := fuzzRows(bt.width)
		out := make([]float64, len(rows))
		bt.PredictBatch(rows, out)
		for i, row := range rows {
			if got := bt.Predict(row); math.Float64bits(got) != math.Float64bits(out[i]) {
				t.Fatalf("row %d: batch %v != scalar %v", i, out[i], got)
			}
		}
	})
}

// corpusTrees builds one small literal layout per shape the model families
// bind to, over rows of width 3.
func corpusTrees(f *testing.F) []*Tree {
	build := func(b *Builder, noSmoothing bool, k float64) *Tree {
		t, err := b.Build(3, noSmoothing, k)
		if err != nil {
			f.Fatal(err)
		}
		return t
	}
	// modelTree is an M5P shape: a root split, a leaf, and an inner node
	// with two leaves; every node carries a linear model for smoothing.
	modelTree := func(noSmoothing bool) *Tree {
		var b Builder
		root := b.Node(-1, 120, 4)
		b.Term(2, 0)
		b.Term(-1, 1)
		l := b.Node(root, 50, -3)
		b.Term(2, 0)
		inner := b.Node(root, 70, 1.5)
		b.Term(5, 2)
		ll := b.Node(inner, 30, 0.25)
		b.Term(1, 1)
		b.Term(5, 2)
		rl := b.Node(inner, 40, 7)
		b.Split(inner, 2, 5.5, ll, rl)
		b.Split(root, 0, 0.5, l, inner)
		return build(&b, noSmoothing, 15)
	}
	var leaf Builder
	leaf.Node(-1, 120, 3)
	leaf.Term(0.5, 1)

	var reg Builder
	root := reg.Node(-1, 120, 0)
	l := reg.Node(root, 50, -12.5)
	inner := reg.Node(root, 70, 0)
	ll := reg.Node(inner, 30, 8)
	rl := reg.Node(inner, 40, 21)
	reg.Split(inner, 1, -2, ll, rl)
	reg.Split(root, 0, 0.5, l, inner)

	var lin Builder
	lin.Node(-1, 0, 120.5)
	lin.Term(-3.2, 2)
	lin.Term(0.8, 0)

	return []*Tree{
		modelTree(false),
		modelTree(true),
		build(&leaf, false, 15),
		build(&reg, true, 0),
		build(&lin, true, 0),
	}
}

// The corpus wire format: a small header, then the parallel arrays in field
// order. decodeFlat reads it back leniently — arrays cut short by truncated
// input stay short — so byte-level truncations become exactly the
// inconsistent-length layouts validate must reject.
func flatBytes(t *Tree) []byte {
	var b bytes.Buffer
	le := binary.LittleEndian
	w := func(v any) { _ = binary.Write(&b, le, v) }
	w(uint16(len(t.col)))
	w(uint16(t.width))
	var flags uint8
	if t.noSmoothing {
		flags = 1
	}
	w(flags)
	w(t.k)
	w(uint32(len(t.coeffs)))
	w(t.col)
	w(t.threshold)
	w(t.left)
	w(t.right)
	w(t.parent)
	w(t.n)
	w(t.intercept)
	w(t.modelOff)
	w(t.coeffs)
	w(t.cols)
	return b.Bytes()
}

const (
	fuzzMaxNodes = 1 << 10
	fuzzMaxWidth = 1 << 8
	fuzzMaxTerms = 1 << 12
)

// decodeFlat builds a candidate Tree from fuzz bytes, without judging
// its consistency — that is validate's job. It returns nil only when the
// header is unreadable or the sizes would allocate unreasonably.
func decodeFlat(data []byte) *Tree {
	r := bytes.NewReader(data)
	le := binary.LittleEndian
	var nodes, width uint16
	var flags uint8
	var k float64
	var terms uint32
	if binary.Read(r, le, &nodes) != nil ||
		binary.Read(r, le, &width) != nil ||
		binary.Read(r, le, &flags) != nil ||
		binary.Read(r, le, &k) != nil ||
		binary.Read(r, le, &terms) != nil {
		return nil
	}
	if nodes == 0 || nodes > fuzzMaxNodes || width > fuzzMaxWidth || terms > fuzzMaxTerms {
		return nil
	}
	n := int(nodes)
	bt := &Tree{
		noSmoothing: flags&1 != 0,
		k:           k,
		width:       int(width),
		col:         readI32(r, n),
		threshold:   readF64(r, n),
		left:        readI32(r, n),
		right:       readI32(r, n),
		parent:      readI32(r, n),
		n:           readF64(r, n),
		intercept:   readF64(r, n),
		modelOff:    readI32(r, n+1),
		coeffs:      readF64(r, int(terms)),
		cols:        readI32(r, int(terms)),
	}
	return bt
}

// readI32/readF64 read up to n values, returning a short slice when the
// input runs out (a truncated layout, for validate to reject).
func readI32(r *bytes.Reader, n int) []int32 {
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		var v int32
		if binary.Read(r, binary.LittleEndian, &v) != nil {
			break
		}
		out = append(out, v)
	}
	return out
}

func readF64(r *bytes.Reader, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var v float64
		if binary.Read(r, binary.LittleEndian, &v) != nil {
			break
		}
		out = append(out, v)
	}
	return out
}

// fuzzRows deterministically covers the input space a valid tree must cope
// with: ordinary magnitudes, huge magnitudes, zeros, and NaN/Inf entries
// (comparisons against NaN simply fall to the right child — no panic).
func fuzzRows(width int) [][]float64 {
	if width <= 0 {
		return nil
	}
	specials := []float64{0, 1, -1, 1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	rows := make([][]float64, 0, 8+len(specials))
	for i := 0; i < 8; i++ {
		row := make([]float64, width)
		for j := range row {
			row[j] = float64((i*37+j*11)%200 - 100)
		}
		rows = append(rows, row)
	}
	for _, s := range specials {
		row := make([]float64, width)
		for j := range row {
			row[j] = s
		}
		rows = append(rows, row)
	}
	return rows
}
