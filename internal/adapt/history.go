package adapt

import (
	"encoding/binary"
	"math"
	"math/bits"

	"agingpred/internal/monitor"
)

// historyBlockSize is the size of one block of a stream's encoded checkpoint
// history. Blocks are allocated whole and never copied when the history
// grows; a reset keeps them for the next run.
const historyBlockSize = 4096

// maxEncodedCheckpoint is the most bytes one checkpoint can take: a header
// byte plus eight value bytes per field. A checkpoint never straddles two
// blocks, so a block is closed once less than this is left in it.
const maxEncodedCheckpoint = monitor.NumFields * 9

// history is a stream's checkpoint history, kept until a crash label turns it
// into a training run. Each field is stored as the XOR of its float64 bits
// with the same field of the previous checkpoint, byte-granular: a header
// byte holding the count of significant bytes (high nibble) and of trailing
// zero bytes (low nibble), then the significant bytes, low byte first. A field
// that did not change costs one byte; the encoding is lossless for every bit
// pattern, NaN payloads included (the XOR-delta scheme of Pelkonen et al.,
// "Gorilla", VLDB 2015, at byte rather than bit granularity).
type history struct {
	blocks []*[historyBlockSize]byte
	used   int // blocks holding data; blocks[used-1] is being written
	off    int // write offset into blocks[used-1]
	n      int // checkpoints stored
	prev   [monitor.NumFields]uint64
}

// push appends cp to the history.
func (h *history) push(cp *monitor.Checkpoint) {
	if h.used == 0 || historyBlockSize-h.off < maxEncodedCheckpoint {
		if h.used == len(h.blocks) {
			h.blocks = append(h.blocks, new([historyBlockSize]byte))
		}
		h.used++
		h.off = 0
	}
	b := h.blocks[h.used-1][h.off : h.off+maxEncodedCheckpoint]
	off := 0
	for i, v := range cp.Vec() {
		u := math.Float64bits(v)
		x := u ^ h.prev[i]
		h.prev[i] = u
		if x == 0 {
			b[off] = 0
			off++
			continue
		}
		tz := bits.TrailingZeros64(x) >> 3
		sig := 8 - tz - bits.LeadingZeros64(x)>>3
		b[off] = byte(sig<<4 | tz)
		// All eight bytes are written; the next field overwrites the ones
		// past sig.
		binary.LittleEndian.PutUint64(b[off+1:], x>>(tz*8))
		off += 1 + sig
	}
	h.off += off
	h.n++
}

// appendTo decodes the history, oldest first, and appends it to dst.
func (h *history) appendTo(dst []monitor.Checkpoint) []monitor.Checkpoint {
	var prev [monitor.NumFields]uint64
	blk, off := -1, historyBlockSize
	for k := 0; k < h.n; k++ {
		// The encoder's rule for closing a block, replayed.
		if historyBlockSize-off < maxEncodedCheckpoint {
			blk++
			off = 0
		}
		b := h.blocks[blk][off : off+maxEncodedCheckpoint]
		var cp monitor.Checkpoint
		vec := cp.Vec()
		p := 0
		for i := range vec {
			hdr := b[p]
			sig, tz := int(hdr>>4), int(hdr&15)
			mask := uint64(1)<<(sig*8) - 1 // all ones when sig is 8
			prev[i] ^= binary.LittleEndian.Uint64(b[p+1:]) & mask << (tz * 8)
			vec[i] = math.Float64frombits(prev[i])
			p += 1 + sig
		}
		off += p
		dst = append(dst, cp)
	}
	return dst
}

// reset empties the history, keeping its blocks. The XOR predecessor is
// zeroed too, so a reset history encodes exactly like a fresh one.
func (h *history) reset() {
	h.used, h.off, h.n = 0, 0, 0
	h.prev = [monitor.NumFields]uint64{}
}
