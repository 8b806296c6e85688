package transpose

import (
	"fmt"
	"math/rand"
	"testing"
)

// transposeGather is FromVerticalWide without the narrow-limb path: every
// 64-lane block of every limb goes through Transpose64. It is the oracle
// the bit-by-bit extraction must match.
func transposeGather(rows [][]uint64, width, lanes int) [][]uint64 {
	limbs := (width + 63) / 64
	elems := make([][]uint64, lanes)
	for i := range elems {
		elems[i] = make([]uint64, limbs)
	}
	var block [64]uint64
	for limb := 0; limb < limbs; limb++ {
		lo := limb * 64
		hi := min(lo+64, width)
		for base := 0; base < lanes; base += 64 {
			n := min(lanes-base, 64)
			word := base / 64
			block = [64]uint64{}
			for b := lo; b < hi && b < len(rows); b++ {
				if word < len(rows[b]) {
					block[b-lo] = rows[b][word]
				}
			}
			Transpose64(&block)
			for i := 0; i < n; i++ {
				elems[base+i][limb] = block[i]
			}
		}
	}
	return elems
}

func randomRows(rng *rand.Rand, n, words int) [][]uint64 {
	rows := make([][]uint64, n)
	for b := range rows {
		rows[b] = make([]uint64, words)
		for i := range rows[b] {
			rows[b][i] = rng.Uint64()
		}
	}
	return rows
}

func equalElems(t *testing.T, label string, got, want [][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lanes, want %d", label, len(got), len(want))
	}
	for l := range want {
		if len(got[l]) != len(want[l]) {
			t.Fatalf("%s lane %d: %d limbs, want %d", label, l, len(got[l]), len(want[l]))
		}
		for i := range want[l] {
			if got[l][i] != want[l][i] {
				t.Fatalf("%s lane %d limb %d: %#x, want %#x", label, l, i, got[l][i], want[l][i])
			}
		}
	}
}

// The narrow-limb gather (widths whose last limb holds <= narrowBits rows)
// must equal the all-Transpose64 path at every width and lane count,
// including partial tail blocks and rows carrying bits past the last lane.
func TestFromVerticalWideMatchesTransposePath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, width := range []int{1, 2, 3, 4, 5, 63, 64, 65, 128, 130} {
		for _, lanes := range []int{1, 63, 64, 65, 511, 512} {
			rows := randomRows(rng, width, Words(lanes))
			label := fmt.Sprintf("w=%d lanes=%d", width, lanes)
			equalElems(t, label, FromVerticalWide(rows, width, lanes), transposeGather(rows, width, lanes))
		}
	}
}

// Rows past len(rows), and words past a row's length, read as zero — in
// the narrow and the transpose path alike.
func TestFromVerticalWideMissingRowsReadZero(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct{ width, rows, lanes int }{
		{4, 2, 100},    // narrow limb, half its rows missing
		{66, 65, 130},  // second limb narrow with one row, one missing
		{130, 70, 200}, // second limb on the transpose path, third limb absent
		{128, 0, 64},   // no rows at all
	} {
		rows := randomRows(rng, tc.rows, Words(tc.lanes))
		if tc.rows > 1 {
			rows[1] = rows[1][:1] // a short row: words past it read as zero
		}
		got := FromVerticalWide(rows, tc.width, tc.lanes)
		label := fmt.Sprintf("w=%d rows=%d lanes=%d", tc.width, tc.rows, tc.lanes)
		equalElems(t, label, got, transposeGather(rows, tc.width, tc.lanes))
		for l, e := range got {
			for b := tc.rows; b < tc.width; b++ {
				if e[b/64]>>uint(b%64)&1 != 0 {
					t.Fatalf("%s lane %d: bit %d set past the last row", label, l, b)
				}
			}
			if tc.rows > 1 && l >= 64 && e[0]>>1&1 != 0 {
				t.Fatalf("%s lane %d: bit 1 set past the end of its short row", label, l)
			}
		}
	}
}

// Lanes share one backing array but are capped at their own limbs:
// appending to lane i must reallocate it, never overwrite lane i+1.
func TestFromVerticalWideAppendIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, width := range []int{1, 64, 130} {
		const lanes = 70
		got := FromVerticalWide(randomRows(rng, width, Words(lanes)), width, lanes)
		for i := 0; i+1 < lanes; i++ {
			next := append([]uint64(nil), got[i+1]...)
			grown := append(got[i], 0xdeadbeef, 0xfeedface)
			if len(grown) != len(got[i])+2 {
				t.Fatalf("w=%d: append grew lane %d to %d limbs", width, i, len(grown))
			}
			for k := range next {
				if got[i+1][k] != next[k] {
					t.Fatalf("w=%d: appending to lane %d changed lane %d limb %d", width, i, i+1, k)
				}
			}
		}
	}
}
