package chopper_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/perfbench"
	"chopper/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the RunTiled golden digests under testdata/")

const tiledGoldenFile = "testdata/runtiled_golden.txt"

// tiledGoldenCase is one kernel of the paper-tiled shape: a paper kernel on
// one target at perfbench.TiledGeometry(4), or the spilling DenseNet-16.
type tiledGoldenCase struct {
	name     string
	workload string
	target   chopper.Target
	geom     dram.Geometry
}

func tiledGoldenCases() []tiledGoldenCase {
	var cases []tiledGoldenCase
	for _, wl := range []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"} {
		for _, t := range []chopper.Target{chopper.Ambit, chopper.ELP2IM, chopper.SIMDRAM} {
			cases = append(cases, tiledGoldenCase{fmt.Sprintf("%s/%v", wl, t), wl, t, perfbench.TiledGeometry(4)})
		}
	}
	spill := perfbench.TiledGeometry(4)
	spill.RowsPerSub = 64 // 46 data rows for DenseNet-16's live set of 124
	return append(cases, tiledGoldenCase{"DenseNet-16/Ambit/spill", "DenseNet-16", chopper.Ambit, spill})
}

// goldenInputs fills every operand deterministically (a splitmix64 stream
// keyed by operand index), masked to the operand's width.
func goldenInputs(specs []chopper.IOSpec, lanes int) map[string][][]uint64 {
	in := make(map[string][][]uint64, len(specs))
	for oi, op := range specs {
		limbs := (op.Width + 63) / 64
		x := uint64(oi+1) * 0x9e3779b97f4a7c15
		vals := make([][]uint64, lanes)
		for l := range vals {
			v := make([]uint64, limbs)
			for i := range v {
				x += 0x9e3779b97f4a7c15
				z := x
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				v[i] = z ^ (z >> 31)
			}
			if r := op.Width % 64; r != 0 {
				v[limbs-1] &= (uint64(1) << uint(r)) - 1
			}
			vals[l] = v
		}
		in[op.Name] = vals
	}
	return in
}

// tiledDigest hashes everything a RunTiled call returns: outputs (in name
// order, lane by lane, limb by limb), the four simulated times, the
// engine statistics and the emitter statistics.
func tiledDigest(res *chopper.TiledResult) string {
	h := sha256.New()
	names := make([]string, 0, len(res.Outputs))
	for name := range res.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, name := range names {
		fmt.Fprintf(h, "%s:%d;", name, len(res.Outputs[name]))
		for _, lane := range res.Outputs[name] {
			word(uint64(len(lane)))
			for _, limb := range lane {
				word(limb)
			}
		}
	}
	for _, f := range []float64{res.TimeNs, res.TransferNs, res.OverlapNs, res.EndToEndNs} {
		word(math.Float64bits(f))
	}
	fmt.Fprintf(h, "tiles=%d channels=%d\nstats=%+v\nemit=%+v\n", res.Tiles, res.Channels, res.Stats, res.Emit)
	return hex.EncodeToString(h.Sum(nil))
}

func readTiledGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(tiledGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestRunTiledGoldenDigests -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRunTiledGoldenDigests pins RunTiled on the paper-tiled kernel set —
// the four paper kernels on all three targets over 16 tiles and 4 channel
// shards, plus the spilling DenseNet-16 — to SHA-256 digests of its full
// result. Any change to outputs, simulated times, engine or emitter
// statistics changes a digest. Regenerate only for an intended change of
// results: go test -run TestRunTiledGoldenDigests -update.
func TestRunTiledGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs 13 kernels over 8192 lanes")
	}
	got := map[string]string{}
	var order []string
	inputs := map[string]map[string][][]uint64{}
	for _, c := range tiledGoldenCases() {
		spec, ok := workloads.Get(c.workload)
		if !ok {
			t.Fatalf("unknown workload %q", c.workload)
		}
		k, err := chopper.Compile(spec.Src, chopper.Options{Target: c.target, Geometry: c.geom}.WithOpt(chopper.OptFull))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		in, ok := inputs[c.workload]
		if !ok {
			in = goldenInputs(k.Inputs, perfbench.TiledLanes)
			inputs[c.workload] = in
		}
		res, err := k.RunTiled(in, perfbench.TiledLanes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.geom.RowsPerSub == 64 && res.Stats.SpillOuts == 0 {
			t.Fatalf("%s: no spills on the 64-row geometry", c.name)
		}
		got[c.name] = tiledDigest(res)
		order = append(order, c.name)
	}

	if *updateGolden {
		var b strings.Builder
		b.WriteString("# SHA-256 of RunTiled results (outputs, TimeNs/TransferNs/OverlapNs/EndToEndNs, Stats, Emit).\n")
		b.WriteString("# Regenerate: go test -run TestRunTiledGoldenDigests -update\n")
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(tiledGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tiledGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readTiledGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file has %d digests, run produced %d", len(want), len(got))
	}
	for _, name := range order {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest", name)
		} else if got[name] != w {
			t.Errorf("%s: digest %s, golden %s", name, got[name], w)
		}
	}
}
