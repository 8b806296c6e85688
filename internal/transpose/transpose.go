// Package transpose implements the host-side data transposition that
// Bit-serial SIMD PUD architectures require: converting operands from the
// conventional horizontal layout (one element per memory word) into the
// vertical, bit-serial layout (bit i of every lane gathered into one DRAM
// row) and back. The CHOPPER front-end emits this code for the host
// processor; the PUD program then consumes the transposed rows via WRITE
// micro-ops.
//
// The core primitive is the classic 64x64 bit-matrix transpose
// (Hacker's Delight, 7-3), applied blockwise over the lane dimension.
package transpose

import "fmt"

// Words returns the number of 64-bit words needed to hold `lanes` bits.
func Words(lanes int) int { return (lanes + 63) / 64 }

// Transpose64 transposes a 64x64 bit matrix in place: bit j of word i moves
// to bit i of word j.
func Transpose64(m *[64]uint64) {
	j := 32
	mask := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (m[k] ^ (m[k+j] << j)) & (mask << j)
			m[k] ^= t
			m[k+j] ^= t >> j
		}
		j >>= 1
		mask ^= mask << j
	}
}

// ToVertical converts `lanes` elements of `width` bits (width <= 64, one
// element per entry of elems, low bits significant) into `width` bit-rows of
// Words(lanes) words each: row b, bit l == bit b of element l.
//
// len(elems) must be at least lanes; extra entries are ignored. Bits of an
// element at positions >= width are ignored.
func ToVertical(elems []uint64, width, lanes int) [][]uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("transpose: width %d out of range (1..64)", width))
	}
	if len(elems) < lanes {
		panic(fmt.Sprintf("transpose: %d elements for %d lanes", len(elems), lanes))
	}
	w := Words(lanes)
	rows := make([][]uint64, width)
	backing := make([]uint64, width*w)
	for b := range rows {
		rows[b], backing = backing[:w], backing[w:]
	}
	var block [64]uint64
	for base := 0; base < lanes; base += 64 {
		n := lanes - base
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			block[i] = elems[base+i]
		}
		for i := n; i < 64; i++ {
			block[i] = 0
		}
		Transpose64(&block)
		word := base / 64
		if n == 64 {
			for b := 0; b < width; b++ {
				rows[b][word] = block[b]
			}
		} else {
			tailMask := (uint64(1) << uint(n)) - 1
			for b := 0; b < width; b++ {
				rows[b][word] = block[b] & tailMask
			}
		}
	}
	return rows
}

// ToVerticalInto is ToVertical writing into caller-allocated rows at a
// word offset: bit b of element l lands in bit l%64 of dst[b][off+l/64].
// It is the zero-copy primitive batched execution uses to pack several
// requests' operands into one shared arena — each request transposes
// directly into its own word-aligned lane span. dst must have at least
// `width` rows of at least off+Words(lanes) words; words outside the
// span are left untouched, and the span's tail word is masked to `lanes`
// bits exactly as ToVertical masks its own tail.
func ToVerticalInto(dst [][]uint64, off int, elems []uint64, width, lanes int) {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("transpose: width %d out of range (1..64)", width))
	}
	if len(elems) < lanes {
		panic(fmt.Sprintf("transpose: %d elements for %d lanes", len(elems), lanes))
	}
	if len(dst) < width {
		panic(fmt.Sprintf("transpose: %d destination rows for width %d", len(dst), width))
	}
	w := Words(lanes)
	for b := 0; b < width; b++ {
		if len(dst[b]) < off+w {
			panic(fmt.Sprintf("transpose: destination row %d has %d words, need %d", b, len(dst[b]), off+w))
		}
	}
	var block [64]uint64
	for base := 0; base < lanes; base += 64 {
		n := lanes - base
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			block[i] = elems[base+i]
		}
		for i := n; i < 64; i++ {
			block[i] = 0
		}
		Transpose64(&block)
		word := off + base/64
		if n == 64 {
			for b := 0; b < width; b++ {
				dst[b][word] = block[b]
			}
		} else {
			tailMask := (uint64(1) << uint(n)) - 1
			for b := 0; b < width; b++ {
				dst[b][word] = block[b] & tailMask
			}
		}
	}
}

// PasteRows copies vertical rows already in bit-row layout into dst at a
// word offset, masking each row's tail word to `lanes` bits. It is the
// paste half of batched packing for operands that arrive pre-transposed
// (wide verify inputs). src rows shorter than Words(lanes) read as zero.
func PasteRows(dst [][]uint64, off int, src [][]uint64, lanes int) {
	w := Words(lanes)
	mask := ^uint64(0)
	if r := lanes % 64; r != 0 {
		mask = (uint64(1) << uint(r)) - 1
	}
	if len(dst) < len(src) {
		panic(fmt.Sprintf("transpose: %d destination rows for %d source rows", len(dst), len(src)))
	}
	for b := range src {
		if len(dst[b]) < off+w {
			panic(fmt.Sprintf("transpose: destination row %d has %d words, need %d", b, len(dst[b]), off+w))
		}
		for i := 0; i < w; i++ {
			var v uint64
			if i < len(src[b]) {
				v = src[b][i]
			}
			if i == w-1 {
				v &= mask
			}
			dst[b][off+i] = v
		}
	}
}

// FromVertical is the inverse of ToVertical: it gathers bit l of every row
// back into element l. Rows beyond len(rows) read as zero, so a narrower
// result can be widened for free.
func FromVertical(rows [][]uint64, width, lanes int) []uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("transpose: width %d out of range (1..64)", width))
	}
	elems := make([]uint64, lanes)
	var block [64]uint64
	for base := 0; base < lanes; base += 64 {
		n := lanes - base
		if n > 64 {
			n = 64
		}
		word := base / 64
		for b := 0; b < width && b < len(rows); b++ {
			if word < len(rows[b]) {
				block[b] = rows[b][word]
			} else {
				block[b] = 0
			}
		}
		for b := width; b < 64; b++ {
			block[b] = 0
		}
		if width <= len(rows) {
			for b := width; b < 64 && b < len(rows); b++ {
				block[b] = 0
			}
		}
		Transpose64(&block)
		for i := 0; i < n; i++ {
			elems[base+i] = block[i]
		}
	}
	return elems
}

// ToVerticalWide converts wide elements (each a little-endian slice of
// 64-bit limbs) into `width` bit-rows. width may exceed 64; limbs beyond
// an element's length read as zero.
func ToVerticalWide(elems [][]uint64, width, lanes int) [][]uint64 {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	if len(elems) < lanes {
		panic(fmt.Sprintf("transpose: %d elements for %d lanes", len(elems), lanes))
	}
	w := Words(lanes)
	rows := make([][]uint64, width)
	for b := range rows {
		rows[b] = make([]uint64, w)
	}
	limbs := (width + 63) / 64
	var block [64]uint64
	scratch := make([]uint64, 64)
	for limb := 0; limb < limbs; limb++ {
		lo := limb * 64
		hi := lo + 64
		if hi > width {
			hi = width
		}
		for base := 0; base < lanes; base += 64 {
			n := lanes - base
			if n > 64 {
				n = 64
			}
			for i := 0; i < 64; i++ {
				scratch[i] = 0
			}
			for i := 0; i < n; i++ {
				e := elems[base+i]
				if limb < len(e) {
					scratch[i] = e[limb]
				}
			}
			copy(block[:], scratch)
			Transpose64(&block)
			word := base / 64
			for b := lo; b < hi; b++ {
				rows[b][word] = block[b-lo]
			}
		}
	}
	return rows
}

// narrowBits is the most live bits a limb may hold for FromVerticalWide
// to gather it bit by bit: a Transpose64 costs the same for one live bit
// as for 64, so for a few bits direct extraction is cheaper. Gathering
// 8192 lanes on a 2-core Xeon, the bit-by-bit path took 0.59-0.79x the
// Transpose64 path's time at 1-4 bits, 0.92x (within run-to-run spread)
// at 5 and no less from 6 bits on.
const narrowBits = 4

// FromVerticalWide gathers bit-rows back into wide elements of
// ceil(width/64) limbs each. Rows beyond len(rows), and words beyond a
// row's length, read as zero. Every lane is cut from one backing array and
// capped at its own limbs, so the result costs two allocations whatever
// the lane count, and appending to one lane reallocates that lane instead
// of overwriting the next.
func FromVerticalWide(rows [][]uint64, width, lanes int) [][]uint64 {
	if width <= 0 {
		panic("transpose: non-positive width")
	}
	limbs := (width + 63) / 64
	backing := make([]uint64, lanes*limbs)
	elems := make([][]uint64, lanes)
	for i := range elems {
		elems[i] = backing[i*limbs : (i+1)*limbs : (i+1)*limbs]
	}
	var block [64]uint64
	for limb := 0; limb < limbs; limb++ {
		lo := limb * 64
		bits := min(width, len(rows)) - lo // live rows in this limb
		if bits <= 0 {
			break // every remaining limb reads as zero
		}
		bits = min(bits, 64)
		for base := 0; base < lanes; base += 64 {
			n := min(lanes-base, 64)
			word := base / 64
			for b := 0; b < bits; b++ {
				block[b] = 0
				if r := rows[lo+b]; word < len(r) {
					block[b] = r[word]
				}
			}
			out := backing[base*limbs+limb:]
			if bits <= narrowBits {
				for i := 0; i < n; i++ {
					var v uint64
					for b := 0; b < bits; b++ {
						v |= (block[b] >> uint(i) & 1) << uint(b)
					}
					out[i*limbs] = v
				}
				continue
			}
			for b := bits; b < 64; b++ {
				block[b] = 0
			}
			Transpose64(&block)
			for i := 0; i < n; i++ {
				out[i*limbs] = block[i]
			}
		}
	}
	return elems
}
