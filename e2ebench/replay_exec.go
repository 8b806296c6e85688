package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"chopper"
	"chopper/internal/dram"
	"chopper/internal/hostmodel"
	"chopper/internal/pool"
	"chopper/internal/sim"
	"chopper/internal/transpose"
	"chopper/internal/vircoe"
)

// execKernel is a compiled kernel plus what its traced replays need and
// the library keeps unexported: the decoded execution stream (decoded on
// the first replay, as the kernel decodes on its first run) and the host
// tag tables.
type execKernel struct {
	k       *chopper.Kernel
	decoded *sim.Decoded
	inTag   map[string]int
	outTag  map[string]int
	consts  map[int]uint64
}

// newExecKernel wraps a CHOPPER-pipeline kernel (the only kind the
// benchmark executes).
func newExecKernel(k *chopper.Kernel) *execKernel {
	return &execKernel{k: k, inTag: k.Code.InputTag, outTag: k.Code.OutputTag, consts: k.Code.ConstPattern}
}

// decode returns the decoded stream and the time decoding took now (0
// after the first call).
func (ek *execKernel) decode(tr *tracer, parent, op int) (*sim.Decoded, time.Duration) {
	if ek.decoded != nil {
		return ek.decoded, 0
	}
	sp := tr.begin("sim.decode", parent, op)
	ek.decoded = sim.Decode(ek.k.Prog())
	return ek.decoded, tr.end(sp)
}

// execLayers is what one traced execution replay measured. Host times are
// wall time on the operation's critical path: a phase that fans out over
// workers is charged its wall time, split between the layers inside it in
// proportion to their summed busy time.
type execLayers struct {
	scatter, gather, decode, exec, emit, replay time.Duration
	simOps, commands                            int
	placedBytes                                 int64
}

type bitRef struct {
	base string
	bit  int
}

func splitBit(s string) (bitRef, error) {
	i := strings.LastIndexByte(s, '[')
	if i < 0 || !strings.HasSuffix(s, "]") {
		return bitRef{}, fmt.Errorf("malformed bit name %q", s)
	}
	bit, err := strconv.Atoi(s[i+1 : len(s)-1])
	if err != nil {
		return bitRef{}, err
	}
	return bitRef{s[:i], bit}, nil
}

func tagRefs(tags map[string]int) (map[int]bitRef, error) {
	out := make(map[int]bitRef, len(tags))
	for name, tag := range tags {
		ref, err := splitBit(name)
		if err != nil {
			return nil, err
		}
		out[tag] = ref
	}
	return out, nil
}

// constRow is a constant-pattern row over n lanes.
func constRow(pat uint64, n int) []uint64 {
	row := make([]uint64, transpose.Words(n))
	for i := range row {
		row[i] = pat
	}
	if r := n % 64; r != 0 {
		row[len(row)-1] &= (uint64(1) << uint(r)) - 1
	}
	return row
}

// Pooled per-worker replay state, as RunTiled pools its own.
type tileState struct {
	sub   *sim.Subarray
	spill *sim.SpillStore
}

var (
	tileStates  sync.Pool
	tileEngines sync.Pool
	machines    sync.Pool
)

func getTileState(dRows, lanes int) *tileState {
	if v := tileStates.Get(); v != nil {
		ts := v.(*tileState)
		ts.sub.Configure(dRows, lanes)
		ts.spill.Reset()
		return ts
	}
	return &tileState{sub: sim.NewSubarray(dRows, lanes), spill: sim.NewSpillStore()}
}

func getEngine(g dram.Geometry, t dram.Timing, salp bool) *dram.Engine {
	if v := tileEngines.Get(); v != nil {
		e := v.(*dram.Engine)
		e.Reconfigure(g, t, salp)
		return e
	}
	return dram.NewEngine(g, t, salp)
}

// replayTiled re-runs what Kernel.RunTiled does, one public layer call at
// a time: transpose.ToVerticalWide per input tile -> sim.Decode (first
// replay only) -> Subarray.ExecDecoded per tile (fanned out over workers)
// -> vircoe.Placements/Emit and dram.Engine.RunCtx per channel shard
// (fanned out) -> the shard merge and host-transfer model ->
// transpose.FromVerticalWide. Options the paper-tiled kernels leave at
// their defaults (SALP, emitter, budgets) are replayed at those defaults.
func replayTiled(tr *tracer, op int, ek *execKernel, inputs map[string][][]uint64, lanes int) (*chopper.TiledResult, *execLayers, error) {
	k := ek.k
	l := &execLayers{}
	root := tr.begin("tiled.run", -1, op)
	defer tr.end(root)
	geom := k.Opts.Geometry
	tileLanes := geom.Bitlines()
	tiles := (lanes + tileLanes - 1) / tileLanes
	channels := geom.ChannelCount()
	laneCount := func(tile int) int { return min(lanes-tile*tileLanes, tileLanes) }

	type tileKey struct {
		name string
		tile int
	}
	sp := tr.begin("transpose.scatter", root, op)
	tileRows := make(map[tileKey][][]uint64)
	var inBytes float64
	for _, in := range k.Inputs {
		vals := inputs[in.Name]
		for tl := 0; tl < tiles; tl++ {
			n := laneCount(tl)
			tileRows[tileKey{in.Name, tl}] = transpose.ToVerticalWide(vals[tl*tileLanes:tl*tileLanes+n], in.Width, n)
			inBytes += float64(in.Width * transpose.Words(n) * 8)
		}
	}
	l.scatter = tr.end(sp)

	inByTag, err := tagRefs(ek.inTag)
	if err != nil {
		return nil, nil, err
	}
	outByTag, err := tagRefs(ek.outTag)
	if err != nil {
		return nil, nil, err
	}
	outRows := make(map[tileKey][][]uint64)
	var outBytes float64
	for _, o := range k.Outputs {
		for tl := 0; tl < tiles; tl++ {
			rows := make([][]uint64, o.Width)
			for b := range rows {
				rows[b] = make([]uint64, transpose.Words(laneCount(tl)))
			}
			outRows[tileKey{o.Name, tl}] = rows
			outBytes += float64(o.Width * transpose.Words(laneCount(tl)) * 8)
		}
	}

	d, dec := ek.decode(tr, root, op)
	l.decode = dec
	sp = tr.begin("sim.exec", root, op)
	if err := pool.Run(0, tiles, func(tl int) error {
		ts := getTileState(geom.DRows(), tileLanes)
		defer tileStates.Put(ts)
		tsp := tr.begin("sim.tile", sp, op)
		defer tr.end(tsp)
		constRows := make(map[int][]uint64, len(ek.consts))
		for tag, pat := range ek.consts {
			constRows[tag] = constRow(pat, laneCount(tl))
		}
		io := &sim.HostIO{
			WriteData: func(tag int) []uint64 {
				if ref, ok := inByTag[tag]; ok {
					return tileRows[tileKey{ref.base, tl}][ref.bit]
				}
				return constRows[tag]
			},
			ReadSink: func(tag int, data []uint64) {
				if ref, ok := outByTag[tag]; ok {
					copy(outRows[tileKey{ref.base, tl}][ref.bit], data)
				}
			},
		}
		for i := 0; i < d.Len(); i++ {
			if err := ts.sub.ExecDecoded(d, i, io, ts.spill); err != nil {
				return fmt.Errorf("tile %d op %d: %w", tl, i, err)
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	l.exec = tr.end(sp)
	l.simOps = tiles * d.Len()

	mode := vircoe.BankAware
	if k.Opts.SALP {
		mode = vircoe.SubarrayAware
	}
	timing := dram.TimingFor(k.Opts.Target, geom)
	shards := min(channels, tiles)
	type shardTiming struct {
		makespan     float64
		eng          dram.EngineStats
		emit         vircoe.Stats
		emitT, runT  time.Duration
		placedLength int
	}
	shardRes := make([]shardTiming, shards)
	sp = tr.begin("timing", root, op)
	if err := pool.Run(0, shards, func(s int) error {
		count := tiles / shards
		if s < tiles%shards {
			count++
		}
		r := &shardRes[s]
		esp := tr.begin("vircoe.emit", sp, op)
		pls, err := vircoe.Placements(geom, count)
		if err != nil {
			tr.end(esp)
			return err
		}
		stream, emitStats := vircoe.Emit(k.Prog(), pls, mode, timing)
		r.emitT = tr.end(esp)
		eng := getEngine(geom, timing, k.Opts.SALP)
		defer tileEngines.Put(eng)
		rsp := tr.begin("dram.replay", sp, op)
		ns, err := eng.RunCtx(nil, stream, 0)
		r.runT = tr.end(rsp)
		if err != nil {
			return err
		}
		r.makespan, r.eng, r.emit, r.placedLength = ns, eng.Stats(), emitStats, len(stream)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	phase := tr.end(sp)
	var emitBusy, runBusy time.Duration
	for _, r := range shardRes {
		emitBusy += r.emitT
		runBusy += r.runT
		l.commands += r.placedLength
		l.placedBytes += int64(r.placedLength) * int64(unsafe.Sizeof(dram.Placed{}))
	}
	if busy := emitBusy + runBusy; busy > 0 {
		l.emit = time.Duration(float64(phase) * float64(emitBusy) / float64(busy))
		l.replay = phase - l.emit
	}

	res := &chopper.TiledResult{
		Outputs:  make(map[string][][]uint64, len(k.Outputs)),
		Tiles:    tiles,
		Channels: shards,
	}
	for s := range shardRes {
		r := &shardRes[s]
		res.TimeNs = max(res.TimeNs, r.makespan)
		e := &res.Stats
		e.Ops += r.eng.Ops
		e.Transfers += r.eng.Transfers
		e.ComputeNs += r.eng.ComputeNs
		e.TransferNs += r.eng.TransferNs
		e.SSDNs += r.eng.SSDNs
		e.BusBusyNs += r.eng.BusBusyNs
		e.SpillIns += r.eng.SpillIns
		e.SpillOuts += r.eng.SpillOuts
		e.EnergyPJ += r.eng.EnergyPJ
		e.UnitBusySum += r.eng.UnitBusySum
		e.DistinctUnit += r.eng.DistinctUnit
		e.StallNs += r.eng.StallNs
		e.MakespanNs = max(e.MakespanNs, r.eng.MakespanNs)
		e.MaxUnitBusy = max(e.MaxUnitBusy, r.eng.MaxUnitBusy)
		m := &res.Emit
		m.Ops += r.emit.Ops
		m.Transfers += r.emit.Transfers
		m.Subarrays += r.emit.Subarrays
		m.Interleave += r.emit.Interleave
		m.BusBusyNs += r.emit.BusBusyNs
		m.SpanNs = max(m.SpanNs, r.emit.SpanNs)
	}
	tm := hostmodel.Transfer{ChannelBWGBs: k.Opts.Transfer.ChannelBWGBs, DMASetupNs: k.Opts.Transfer.DMASetupNs}
	scatterNs, gatherNs := tm.TimeNs(inBytes, channels), tm.TimeNs(outBytes, channels)
	var wireNs float64
	if inBytes > 0 {
		wireNs += scatterNs - tm.DMASetupNs
	}
	if outBytes > 0 {
		wireNs += gatherNs - tm.DMASetupNs
	}
	res.OverlapNs = min(wireNs*float64(tiles-1)/float64(tiles), res.TimeNs)
	res.TransferNs = scatterNs + gatherNs
	res.EndToEndNs = res.TimeNs + res.TransferNs - res.OverlapNs

	sp = tr.begin("transpose.gather", root, op)
	for _, o := range k.Outputs {
		all := make([][]uint64, 0, lanes)
		for tl := 0; tl < tiles; tl++ {
			all = append(all, transpose.FromVerticalWide(outRows[tileKey{o.Name, tl}], o.Width, laneCount(tl))...)
		}
		res.Outputs[o.Name] = all
	}
	l.gather = tr.end(sp)
	return res, l, nil
}

// tiledDigest condenses everything a RunTiled call returns — outputs,
// makespan, transfer model, command counts and engine statistics — so a
// traced run can compare a call with its replay without keeping either
// result alive while the other runs.
type tiledDigest struct {
	outputs [sha256.Size]byte
	timing  string
}

func digestTiled(r *chopper.TiledResult) tiledDigest {
	h := sha256.New()
	var buf [8]byte
	names := make([]string, 0, len(r.Outputs))
	for name := range r.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		for _, lane := range r.Outputs[name] {
			for _, limb := range lane {
				binary.LittleEndian.PutUint64(buf[:], limb)
				h.Write(buf[:])
			}
		}
	}
	var d tiledDigest
	h.Sum(d.outputs[:0])
	d.timing = fmt.Sprintf("makespan %v transfer %v overlap %v end-to-end %v tiles %d channels %d engine %+v emit %+v",
		r.TimeNs, r.TransferNs, r.OverlapNs, r.EndToEndNs, r.Tiles, r.Channels, r.Stats, r.Emit)
	return d
}

// checkTiledFidelity fails unless the replay reproduced the untraced
// RunTiled call exactly.
func checkTiledFidelity(name string, want, got tiledDigest) error {
	if want.outputs != got.outputs {
		return fmt.Errorf("replay of %s computed different outputs than RunTiled", name)
	}
	if want.timing != got.timing {
		return fmt.Errorf("replay of %s diverged from RunTiled: %s, RunTiled %s", name, got.timing, want.timing)
	}
	return nil
}

// replayRows re-runs what chopperd's run path does for one request —
// transpose.ToVertical per input, the kernel's single-subarray run on a
// simulated machine, transpose.FromVertical per output — with a span
// around each layer. It returns the outputs and the simulated makespan.
func replayRows(tr *tracer, parent, op int, ek *execKernel, inputs map[string][]uint64, lanes int) (map[string][]uint64, float64, *execLayers, error) {
	k := ek.k
	l := &execLayers{}
	sp := tr.begin("transpose.scatter", parent, op)
	rows := make(map[string][][]uint64, len(k.Inputs))
	for _, in := range k.Inputs {
		rows[in.Name] = transpose.ToVertical(inputs[in.Name], in.Width, lanes)
	}
	l.scatter = tr.end(sp)

	inByTag, err := tagRefs(ek.inTag)
	if err != nil {
		return nil, 0, nil, err
	}
	outByTag, err := tagRefs(ek.outTag)
	if err != nil {
		return nil, 0, nil, err
	}
	words := transpose.Words(lanes)
	outRows := make(map[string][][]uint64, len(k.Outputs))
	for _, o := range k.Outputs {
		rs := make([][]uint64, o.Width)
		for b := range rs {
			rs[b] = make([]uint64, words)
		}
		outRows[o.Name] = rs
	}
	constRows := make(map[int][]uint64, len(ek.consts))
	for tag, pat := range ek.consts {
		constRows[tag] = constRow(pat, lanes)
	}
	io := &sim.HostIO{
		WriteData: func(tag int) []uint64 {
			if ref, ok := inByTag[tag]; ok {
				return rows[ref.base][ref.bit]
			}
			return constRows[tag]
		},
		ReadSink: func(tag int, data []uint64) {
			if ref, ok := outByTag[tag]; ok {
				copy(outRows[ref.base][ref.bit], data)
			}
		},
	}
	d, dec := ek.decode(tr, parent, op)
	l.decode = dec
	sp = tr.begin("sim.exec", parent, op)
	mc := sim.MachineConfig{Geom: k.Opts.Geometry, Arch: k.Opts.Target, Lanes: lanes}
	var m *sim.Machine
	if v := machines.Get(); v != nil {
		m = v.(*sim.Machine)
		m.Reconfigure(mc)
	} else {
		m = sim.NewMachine(mc)
	}
	timeNs, err := m.RunDecodedCtx(nil, d, 0, 0, io, k.Opts.Budget)
	machines.Put(m)
	l.exec = tr.end(sp)
	if err != nil {
		return nil, 0, nil, err
	}
	l.simOps = d.Len()

	sp = tr.begin("transpose.gather", parent, op)
	out := make(map[string][]uint64, len(k.Outputs))
	for _, o := range k.Outputs {
		out[o.Name] = transpose.FromVertical(outRows[o.Name], o.Width, lanes)
	}
	l.gather = tr.end(sp)
	return out, timeNs, l, nil
}
