package sim

import (
	"context"
	"fmt"

	"chopper/internal/guard"
	"chopper/internal/isa"
)

// Decoded is an isa.Program pre-decoded into a flat execution stream: per
// op, the fields the executor needs are unpacked once and every statically
// decidable check (C-group destination legality, ROWINIT constant-pattern
// validation) is hoisted out of the per-op dispatch. A Decoded is immutable
// after Decode and safe to share across goroutines and trials; it is how a
// compiled kernel amortizes dispatch cost over thousands of verify /
// reliability replays.
type Decoded struct {
	prog *isa.Program
	ops  []dop
}

// dop is one pre-decoded micro-op. fast marks ops whose static checks all
// passed; ops that would fail them (or whose kind is unknown) run through
// the generic Exec so the error text, error position and fault-hook
// sequence stay byte-for-byte identical to the undecoded path.
type dop struct {
	kind  isa.OpKind
	fast  bool
	cskip bool // ROWINIT of a C-group row with the correct pattern
	ndst  int8
	src   isa.Row
	dst   [3]isa.Row
	tag   int32
	imm   uint64
}

// Decode pre-decodes prog. The result references prog (for the slow-path
// fallback), so the program must not be mutated afterwards.
func Decode(prog *isa.Program) *Decoded {
	d := &Decoded{prog: prog, ops: make([]dop, len(prog.Ops))}
	for i := range prog.Ops {
		op := &prog.Ops[i]
		e := &d.ops[i]
		e.kind = op.Kind
		e.src = op.Src
		e.dst = op.Dst
		e.ndst = int8(op.NDst)
		e.tag = int32(op.Tag)
		e.imm = op.Imm
		switch op.Kind {
		case isa.OpRowInit:
			if op.Dst[0].IsCGroup() {
				want := uint64(0)
				if op.Dst[0] == isa.C1 {
					want = ^uint64(0)
				}
				if op.Imm != want {
					continue // slow: Exec reports the pattern error
				}
				e.cskip = true
			}
			e.fast = true
		case isa.OpAAP:
			clean := true
			for _, r := range op.Dsts() {
				if r.IsCGroup() {
					clean = false // slow: Exec reports the C-group error
					break
				}
			}
			e.fast = clean
		case isa.OpWrite:
			e.fast = !op.Dst[0].IsCGroup()
		case isa.OpAP, isa.OpRead, isa.OpSpillOut, isa.OpSpillIn:
			e.fast = true
		}
	}
	return d
}

// Len returns the number of ops in the stream.
func (d *Decoded) Len() int { return len(d.ops) }

// Prog returns the underlying program.
func (d *Decoded) Prog() *isa.Program { return d.prog }

// ExecDecoded executes op i of the decoded stream. It is Exec with the
// statically hoisted checks removed; dynamic conditions (row presence,
// D-group bounds, host IO availability, spill-slot liveness) are still
// checked per op, and ops Decode flagged as slow delegate to Exec so every
// error and hook interaction is identical to the undecoded path.
func (s *Subarray) ExecDecoded(d *Decoded, i int, io *HostIO, spill *SpillStore) error {
	op := &d.ops[i]
	if !op.fast {
		return s.Exec(&d.prog.Ops[i], io, spill)
	}
	idx := s.opIdx
	s.opIdx++
	switch op.kind {
	case isa.OpAAP:
		src, err := s.load(idx, op.src)
		if err != nil {
			return err
		}
		tmp := s.scratch
		copy(tmp, src)
		if s.hook != nil {
			s.hook.AfterCopy(idx, tmp, s.lanes)
		}
		for k := 0; k < int(op.ndst); k++ {
			s.setRow(op.dst[k], tmp)
			s.stored(idx, op.dst[k])
		}
		return nil

	case isa.OpAP:
		a, err := s.load(idx, op.dst[0])
		if err != nil {
			return err
		}
		b, err := s.load(idx, op.dst[1])
		if err != nil {
			return err
		}
		c, err := s.load(idx, op.dst[2])
		if err != nil {
			return err
		}
		res := s.scratch
		for i := range res {
			res[i] = (a[i] & b[i]) | (b[i] & c[i]) | (a[i] & c[i])
		}
		if s.hook != nil {
			s.hook.AfterCompute(idx, res, s.lanes)
		}
		for _, r := range op.dst {
			s.setRow(r, res)
			s.stored(idx, r)
		}
		return nil

	case isa.OpWrite:
		if io == nil || io.WriteData == nil {
			return fmt.Errorf("sim: WRITE with no host data source (tag %d)", op.tag)
		}
		data := io.WriteData(int(op.tag))
		if data == nil {
			return fmt.Errorf("sim: host has no data for WRITE tag %d", op.tag)
		}
		s.setRow(op.dst[0], data)
		s.stored(idx, op.dst[0])
		return nil

	case isa.OpRead:
		src, err := s.load(idx, op.src)
		if err != nil {
			return err
		}
		if io == nil || io.ReadSink == nil {
			return fmt.Errorf("sim: READ with no host sink (tag %d)", op.tag)
		}
		out := s.readBuf
		copy(out, src)
		io.ReadSink(int(op.tag), out)
		return nil

	case isa.OpSpillOut:
		src, err := s.load(idx, op.src)
		if err != nil {
			return err
		}
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		spill.put(op.imm, src, s.words)
		return nil

	case isa.OpSpillIn:
		if spill == nil {
			return fmt.Errorf("sim: spill with no spill store")
		}
		data, ok := spill.get(op.imm)
		if !ok {
			return fmt.Errorf("sim: SPILL_IN of unwritten slot %d", op.imm)
		}
		s.setRow(op.dst[0], data)
		s.stored(idx, op.dst[0])
		return nil

	case isa.OpRowInit:
		if op.cskip {
			if slot, ok := s.slot(op.dst[0]); ok && s.isPresent(slot) && !s.cDirty {
				return nil
			}
		}
		s.initRow(op.dst[0], op.imm)
		return nil
	}
	return fmt.Errorf("sim: unknown op kind %d", int(op.kind))
}

// RunDecodedCtx executes a decoded program entirely on one subarray —
// the single-placement fast path behind the kernel run entry points. It is
// RunCtx specialized to a constant (bank, sub): the same guard budget
// checkpoints run per op (sim-steps, then dram-commands, ctx every 256
// ops), errors carry the same "op %d at bank %d sub %d" wrapping, and every
// executed op is issued to the timing engine, so makespans, stats and stop
// points match the generic stream path exactly — without building a
// []PlacedOp or copying an isa.Op per command.
func (m *Machine) RunDecodedCtx(ctx context.Context, d *Decoded, bank, sub int, io *HostIO, b guard.Budget) (float64, error) {
	s := m.Sub(bank, sub)
	spill := m.spillAt(bank, sub)
	effIO := io
	if io != nil && (io.WriteDataAt != nil || io.ReadSinkAt != nil) {
		effIO = adapterIO(io, bank, sub)
	}
	eng := m.engine
	for i := 0; i < len(d.ops); i++ {
		if i&255 == 0 {
			if err := guard.Ctx(ctx); err != nil {
				return eng.Makespan(), err
			}
		}
		if err := guard.Check(guard.DimSimSteps, b.MaxSimSteps, i+1); err != nil {
			return eng.Makespan(), err
		}
		if err := guard.Check(guard.DimDRAMCommands, b.MaxDRAMCommands, i+1); err != nil {
			return eng.Makespan(), err
		}
		if err := s.ExecDecoded(d, i, effIO, spill); err != nil {
			return eng.Makespan(), fmt.Errorf("op %d at bank %d sub %d: %w", i, bank, sub, err)
		}
		eng.IssueOp(bank, sub, d.ops[i].kind, d.ops[i].imm)
	}
	return eng.Makespan(), nil
}
