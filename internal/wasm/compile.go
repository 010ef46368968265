package wasm

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// ins is one lowered instruction. Immediates are pre-decoded; branch
// targets are absolute indexes into the function's code slice.
type ins struct {
	op      uint16
	a, b, c int32
	imm     uint64
}

// brTarget is one br_table destination.
type brTarget struct{ pc, drop, keep int32 }

// compiledFunc is a validated, lowered function body.
type compiledFunc struct {
	typeIdx    uint32
	numParams  int
	numLocals  int // excluding params
	numResults int
	maxStack   int // operand stack slots beyond locals
	localTypes []ValueType
	code       []ins
	brTables   [][]brTarget
	// reg marks a register-form body (PR 4): code is three-address over
	// the frame register file and executes through runRegBody. The frame
	// footprint is unchanged — operand-slot homes reuse the maxStack
	// area — so stack-overflow traps fire at the same call depths.
	reg bool
	// traces holds the superblock tier's compiled loop traces (PR 7),
	// indexed by sOpTraceEnter's .a operand. Non-nil only in the
	// superblock form of a function.
	traces []superTrace
}

// Compiled is a fully validated module with lowered function bodies, ready
// to instantiate under either engine. It is the immutable half of the
// module split: code (interpreter and AoT forms alike) is never written
// after compilation, so one Compiled can back any number of concurrently
// executing instances.
type Compiled struct {
	Module *Module
	Funcs  []compiledFunc // module-defined functions only

	// The AoT translation is derived lazily, once, and shared by every
	// AoT instance — instantiation no longer re-fuses per instance.
	aotOnce  sync.Once
	aotFuncs []compiledFunc

	// The register-IR translation (PR 4) is likewise derived once and
	// shared. Functions the translator cannot prove fall back to their
	// fused form, so a register-tier instance may mix both body kinds.
	// One form serves every instance, with or without a touch hook.
	regOnce  sync.Once
	regFuncs []compiledFunc
	regStats RegStats

	// The superblock translation (PR 7) is derived from the register
	// form, once, and shared the same way.
	superOnce  sync.Once
	superFuncs []compiledFunc
	superStats SuperStats
}

// aot returns the fused (AoT) form of the function bodies, translating on
// first use. The result is immutable and shared across instances.
func (c *Compiled) aot() []compiledFunc {
	c.aotOnce.Do(func() {
		fused := make([]compiledFunc, len(c.Funcs))
		for i := range c.Funcs {
			fused[i] = fuseFunc(c.Funcs[i])
		}
		c.aotFuncs = fused
	})
	return c.aotFuncs
}

// reg returns the register-IR form of the function bodies, translating
// on first use. The result is immutable and shared across instances.
func (c *Compiled) reg() []compiledFunc {
	c.regOnce.Do(func() {
		fused := c.aot()
		out := make([]compiledFunc, len(c.Funcs))
		for i := range c.Funcs {
			// Per-function counters merge only on success, so a bailed
			// function's discarded optimisations never inflate the
			// module's reported stats.
			var fs RegStats
			rf, ok := translateReg(c.Module, &c.Funcs[i], &fs)
			if ok {
				out[i] = rf
				c.regStats.merge(fs)
				c.regStats.Funcs++
			} else {
				out[i] = fused[i]
				c.regStats.Bailouts++
			}
		}
		c.regFuncs = out
	})
	return c.regFuncs
}

// super returns the superblock form of the function bodies (PR 7):
// register bodies with innermost self-loops patched into compiled traces.
// Functions without a register form stay fused, untraced. The result is
// immutable and shared across instances.
func (c *Compiled) super() []compiledFunc {
	c.superOnce.Do(func() {
		regs := c.reg()
		out := make([]compiledFunc, len(regs))
		for i := range regs {
			out[i] = translateSuper(&regs[i], &c.superStats)
		}
		c.superFuncs = out
	})
	return c.superFuncs
}

// code returns the function bodies engine e executes, translating them on
// first use.
func (c *Compiled) code(e Engine) ([]compiledFunc, error) {
	switch e {
	case EngineSuperblock:
		return c.super(), nil
	case EngineInterp:
		return c.Funcs, nil
	case EngineRegister:
		return c.reg(), nil
	case EngineAOT:
		return c.aot(), nil
	}
	return nil, fmt.Errorf("wasm: unknown %v", e)
}

// Translate derives the form engine e executes, so that a loader pays for
// translation (AoT, like wamrc) and no first instantiation does.
func (c *Compiled) Translate(e Engine) error {
	_, err := c.code(e)
	return err
}

// SuperStats reports the superblock-tier translation counters. Forces the
// translation if it has not run yet.
func (c *Compiled) SuperStats() SuperStats {
	c.super()
	return c.superStats
}

// RegStats reports the register-tier translation counters. Forces the
// translation if it has not run yet.
func (c *Compiled) RegStats() RegStats {
	c.reg()
	return c.regStats
}

// NumInstructions reports the total lowered instruction count across all
// functions (a proxy for the AoT artifact size).
func (c *Compiled) NumInstructions() int64 {
	var n int64
	for _, f := range c.Funcs {
		n += int64(len(f.code))
	}
	return n
}

// Compile validates every function body and lowers it. It implements the
// validation algorithm from the specification appendix, tracking the type
// stack and control frames, while simultaneously emitting branch-resolved
// code (dead code after unconditional transfers is type-checked but not
// emitted).
func Compile(m *Module) (*Compiled, error) {
	c := &Compiled{Module: m}
	for i := range m.Codes {
		fn, err := compileFunc(m, i)
		if err != nil {
			return nil, fmt.Errorf("%w: function %d: %v", ErrValidation, i, err)
		}
		c.Funcs = append(c.Funcs, fn)
	}
	return c, nil
}

// unknownType is the polymorphic stack sentinel used below unreachable code.
const unknownType ValueType = 0

type ctrlFrame struct {
	opcode      byte // OpBlock, OpLoop, OpIf, OpElse; 0 for the function body
	startTypes  []ValueType
	endTypes    []ValueType
	height      int
	unreachable bool

	startPC      int   // loop: branch destination
	elsePatch    int   // if: BrIfZ site to patch to the else/end, -1 if none
	patchSites   []int // code indexes whose .a patches to this frame's end
	tablePatches [][2]int
}

type funcCompiler struct {
	m      *Module
	r      *reader
	fn     compiledFunc
	vals   []ValueType
	ctrls  []ctrlFrame
	types  []ValueType // params + locals
	nGlob  int
	globTs []GlobalType
}

func compileFunc(m *Module, codeIdx int) (compiledFunc, error) {
	typeIdx := m.FuncTypeIdxs[codeIdx]
	ft := m.Types[typeIdx]
	code := m.Codes[codeIdx]

	fc := &funcCompiler{
		m: m,
		r: &reader{buf: code.Body},
		fn: compiledFunc{
			typeIdx:    typeIdx,
			numParams:  len(ft.Params),
			numLocals:  len(code.Locals),
			numResults: len(ft.Results),
		},
	}
	fc.types = append(append([]ValueType{}, ft.Params...), code.Locals...)
	fc.fn.localTypes = fc.types
	for _, imp := range m.Imports {
		if imp.Kind == KindGlobal {
			fc.globTs = append(fc.globTs, imp.Global)
		}
	}
	for _, g := range m.Globals {
		fc.globTs = append(fc.globTs, g.Type)
	}
	fc.nGlob = len(fc.globTs)

	// The function body is itself a frame whose end types are the results.
	fc.pushCtrlRaw(0, nil, ft.Results)

	if err := fc.run(); err != nil {
		return compiledFunc{}, err
	}
	return fc.fn, nil
}

// --- type-stack helpers ---

func (fc *funcCompiler) pushVal(t ValueType) {
	fc.vals = append(fc.vals, t)
	if len(fc.vals) > fc.fn.maxStack {
		fc.fn.maxStack = len(fc.vals)
	}
}

func (fc *funcCompiler) popVal() (ValueType, error) {
	f := &fc.ctrls[len(fc.ctrls)-1]
	if len(fc.vals) == f.height {
		if f.unreachable {
			return unknownType, nil
		}
		return 0, fmt.Errorf("operand stack underflow")
	}
	t := fc.vals[len(fc.vals)-1]
	fc.vals = fc.vals[:len(fc.vals)-1]
	return t, nil
}

func (fc *funcCompiler) popExpect(want ValueType) (ValueType, error) {
	got, err := fc.popVal()
	if err != nil {
		return 0, err
	}
	if got != unknownType && want != unknownType && got != want {
		return 0, fmt.Errorf("type mismatch: have %v, want %v", got, want)
	}
	return got, nil
}

func (fc *funcCompiler) popVals(ts []ValueType) error {
	for i := len(ts) - 1; i >= 0; i-- {
		if _, err := fc.popExpect(ts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (fc *funcCompiler) pushVals(ts []ValueType) {
	for _, t := range ts {
		fc.pushVal(t)
	}
}

func (fc *funcCompiler) pushCtrlRaw(op byte, in, out []ValueType) {
	fc.ctrls = append(fc.ctrls, ctrlFrame{
		opcode: op, startTypes: in, endTypes: out,
		height: len(fc.vals), elsePatch: -1,
	})
	fc.pushVals(in)
}

func (fc *funcCompiler) popCtrl() (ctrlFrame, error) {
	if len(fc.ctrls) == 0 {
		return ctrlFrame{}, fmt.Errorf("control stack underflow")
	}
	f := fc.ctrls[len(fc.ctrls)-1]
	if err := fc.popVals(f.endTypes); err != nil {
		return ctrlFrame{}, err
	}
	if len(fc.vals) != f.height {
		return ctrlFrame{}, fmt.Errorf("%d values left on stack at end of block", len(fc.vals)-f.height)
	}
	fc.ctrls = fc.ctrls[:len(fc.ctrls)-1]
	return f, nil
}

func (fc *funcCompiler) setUnreachable() {
	f := &fc.ctrls[len(fc.ctrls)-1]
	fc.vals = fc.vals[:f.height]
	f.unreachable = true
}

func (fc *funcCompiler) live() bool {
	return !fc.ctrls[len(fc.ctrls)-1].unreachable
}

// emit appends an instruction unless the current position is unreachable.
// It returns the instruction index (or -1 when dead).
func (fc *funcCompiler) emit(i ins) int {
	if !fc.live() {
		return -1
	}
	fc.fn.code = append(fc.fn.code, i)
	return len(fc.fn.code) - 1
}

// labelFrame resolves a branch label depth to its control frame.
func (fc *funcCompiler) labelFrame(l uint32) (*ctrlFrame, error) {
	if int(l) >= len(fc.ctrls) {
		return nil, fmt.Errorf("branch label %d out of range", l)
	}
	return &fc.ctrls[len(fc.ctrls)-1-int(l)], nil
}

// labelTypes returns the types a branch to this frame transfers.
func labelTypes(f *ctrlFrame) []ValueType {
	if f.opcode == OpLoop {
		return f.startTypes
	}
	return f.endTypes
}

// blockType parses an MVP block type: empty (0x40) or one value type.
func (fc *funcCompiler) blockType() ([]ValueType, []ValueType, error) {
	b, err := fc.r.byte()
	if err != nil {
		return nil, nil, err
	}
	if b == 0x40 {
		return nil, nil, nil
	}
	if !validValueType(b) {
		return nil, nil, fmt.Errorf("bad block type 0x%02x", b)
	}
	return nil, []ValueType{ValueType(b)}, nil
}

// brArgs computes the runtime drop/keep pair for a branch emitted now.
func (fc *funcCompiler) brArgs(f *ctrlFrame) (drop, keep int32) {
	lt := labelTypes(f)
	keep = int32(len(lt))
	drop = int32(len(fc.vals) - f.height - len(lt))
	if drop < 0 {
		drop = 0 // only reachable in dead code, which is not emitted
	}
	return drop, keep
}

func (fc *funcCompiler) hasMemory() error {
	if fc.m.NumImportedMems+len(fc.m.Memories) == 0 {
		return fmt.Errorf("memory instruction without memory")
	}
	return nil
}

// run compiles the whole body.
func (fc *funcCompiler) run() error {
	for {
		if len(fc.ctrls) == 0 {
			// Function frame popped by the final end.
			if fc.r.len() != 0 {
				return fmt.Errorf("trailing bytes after function end")
			}
			return nil
		}
		op, err := fc.r.byte()
		if err != nil {
			return err
		}
		if err := fc.instr(op); err != nil {
			return fmt.Errorf("at byte offset %d (op 0x%02x): %v", fc.r.pos-1, op, err)
		}
	}
}

func (fc *funcCompiler) instr(op byte) error {
	switch op {
	case OpUnreachable:
		fc.emit(ins{op: uint16(OpUnreachable)})
		fc.setUnreachable()
	case OpNop:
		// No emission.
	case OpBlock:
		in, out, err := fc.blockType()
		if err != nil {
			return err
		}
		if err := fc.popVals(in); err != nil {
			return err
		}
		dead := !fc.live()
		fc.pushCtrlRaw(OpBlock, in, out)
		if dead {
			fc.ctrls[len(fc.ctrls)-1].unreachable = true
		}
	case OpLoop:
		in, out, err := fc.blockType()
		if err != nil {
			return err
		}
		if err := fc.popVals(in); err != nil {
			return err
		}
		dead := !fc.live()
		fc.pushCtrlRaw(OpLoop, in, out)
		f := &fc.ctrls[len(fc.ctrls)-1]
		f.startPC = len(fc.fn.code)
		if dead {
			f.unreachable = true
		}
	case OpIf:
		in, out, err := fc.blockType()
		if err != nil {
			return err
		}
		if _, err := fc.popExpect(I32); err != nil {
			return err
		}
		if err := fc.popVals(in); err != nil {
			return err
		}
		dead := !fc.live()
		site := fc.emit(ins{op: opLoweredBrIfZ})
		fc.pushCtrlRaw(OpIf, in, out)
		f := &fc.ctrls[len(fc.ctrls)-1]
		f.elsePatch = site
		if dead {
			f.unreachable = true
		}
	case OpElse:
		f := &fc.ctrls[len(fc.ctrls)-1]
		if f.opcode != OpIf {
			return fmt.Errorf("else without if")
		}
		// Validate the then-branch produced the block results.
		if err := fc.popVals(f.endTypes); err != nil {
			return err
		}
		if len(fc.vals) != f.height {
			return fmt.Errorf("%d extra values at else", len(fc.vals)-f.height)
		}
		// Jump over the else branch (recorded to patch at end).
		site := fc.emit(ins{op: opLoweredBr})
		if site >= 0 {
			f.patchSites = append(f.patchSites, site)
		}
		// The if's false edge lands here.
		if f.elsePatch >= 0 {
			fc.fn.code[f.elsePatch].a = int32(len(fc.fn.code))
		}
		f.elsePatch = -1
		f.opcode = OpElse
		f.unreachable = false
		fc.pushVals(f.startTypes)
	case OpEnd:
		f, err := fc.popCtrl()
		if err != nil {
			return err
		}
		end := int32(len(fc.fn.code))
		for _, site := range f.patchSites {
			fc.fn.code[site].a = end
		}
		for _, tp := range f.tablePatches {
			fc.fn.brTables[tp[0]][tp[1]].pc = end
		}
		if f.opcode == OpIf {
			// if without else: param/result types must match (MVP: both
			// empty), and the false edge falls through to the end.
			if len(f.startTypes) != len(f.endTypes) {
				return fmt.Errorf("if without else requires matching types")
			}
			if f.elsePatch >= 0 {
				fc.fn.code[f.elsePatch].a = end
			}
		}
		fc.pushVals(f.endTypes)
		if len(fc.ctrls) == 0 {
			// Function end: emit the return trailer.
			fc.fn.code = append(fc.fn.code, ins{op: opLoweredReturn, c: int32(fc.fn.numResults)})
		}
	case OpBr:
		l, err := fc.r.u32()
		if err != nil {
			return err
		}
		f, err := fc.labelFrame(l)
		if err != nil {
			return err
		}
		drop, keep := fc.brArgs(f)
		site := fc.emit(ins{op: opLoweredBr, b: drop, c: keep})
		if site >= 0 {
			if f.opcode == OpLoop {
				fc.fn.code[site].a = int32(f.startPC)
			} else {
				f.patchSites = append(f.patchSites, site)
			}
		}
		if err := fc.popVals(labelTypes(f)); err != nil {
			return err
		}
		fc.setUnreachable()
	case OpBrIf:
		l, err := fc.r.u32()
		if err != nil {
			return err
		}
		if _, err := fc.popExpect(I32); err != nil {
			return err
		}
		f, err := fc.labelFrame(l)
		if err != nil {
			return err
		}
		drop, keep := fc.brArgs(f)
		site := fc.emit(ins{op: opLoweredBrIf, b: drop, c: keep})
		if site >= 0 {
			if f.opcode == OpLoop {
				fc.fn.code[site].a = int32(f.startPC)
			} else {
				f.patchSites = append(f.patchSites, site)
			}
		}
		lt := labelTypes(f)
		if err := fc.popVals(lt); err != nil {
			return err
		}
		fc.pushVals(lt)
	case OpBrTable:
		n, err := fc.r.u32()
		if err != nil {
			return err
		}
		labels := make([]uint32, n+1)
		for i := range labels {
			if labels[i], err = fc.r.u32(); err != nil {
				return err
			}
		}
		if _, err := fc.popExpect(I32); err != nil {
			return err
		}
		def, err := fc.labelFrame(labels[n])
		if err != nil {
			return err
		}
		defTypes := labelTypes(def)
		live := fc.live()
		var tableIdx int
		if live {
			tableIdx = len(fc.fn.brTables)
			fc.fn.brTables = append(fc.fn.brTables, make([]brTarget, n+1))
		}
		for i, l := range labels {
			f, err := fc.labelFrame(l)
			if err != nil {
				return err
			}
			lt := labelTypes(f)
			if len(lt) != len(defTypes) {
				return fmt.Errorf("br_table arity mismatch")
			}
			for j := range lt {
				if lt[j] != defTypes[j] {
					return fmt.Errorf("br_table type mismatch")
				}
			}
			if live {
				drop, keep := fc.brArgs(f)
				fc.fn.brTables[tableIdx][i] = brTarget{drop: drop, keep: keep}
				if f.opcode == OpLoop {
					fc.fn.brTables[tableIdx][i].pc = int32(f.startPC)
				} else {
					f.tablePatches = append(f.tablePatches, [2]int{tableIdx, i})
				}
			}
		}
		fc.emit(ins{op: opLoweredBrTable, a: int32(tableIdx)})
		if err := fc.popVals(defTypes); err != nil {
			return err
		}
		fc.setUnreachable()
	case OpReturn:
		results := fc.m.Types[fc.fn.typeIdx].Results
		fc.emit(ins{op: opLoweredReturn, c: int32(len(results))})
		if err := fc.popVals(results); err != nil {
			return err
		}
		fc.setUnreachable()
	case OpCall:
		fi, err := fc.r.u32()
		if err != nil {
			return err
		}
		ft, err := fc.m.TypeOfFunc(fi)
		if err != nil {
			return err
		}
		fc.emit(ins{op: uint16(OpCall), a: int32(fi)})
		if err := fc.popVals(ft.Params); err != nil {
			return err
		}
		fc.pushVals(ft.Results)
	case OpCallIndirect:
		ti, err := fc.r.u32()
		if err != nil {
			return err
		}
		if int(ti) >= len(fc.m.Types) {
			return fmt.Errorf("call_indirect type %d out of range", ti)
		}
		tb, err := fc.r.byte()
		if err != nil {
			return err
		}
		if tb != 0 {
			return fmt.Errorf("call_indirect reserved byte must be 0")
		}
		if fc.m.NumImportedTables+len(fc.m.Tables) == 0 {
			return fmt.Errorf("call_indirect without table")
		}
		if _, err := fc.popExpect(I32); err != nil {
			return err
		}
		ft := fc.m.Types[ti]
		fc.emit(ins{op: uint16(OpCallIndirect), a: int32(ti)})
		if err := fc.popVals(ft.Params); err != nil {
			return err
		}
		fc.pushVals(ft.Results)
	case OpDrop:
		if _, err := fc.popVal(); err != nil {
			return err
		}
		fc.emit(ins{op: uint16(OpDrop)})
	case OpSelect:
		if _, err := fc.popExpect(I32); err != nil {
			return err
		}
		t1, err := fc.popVal()
		if err != nil {
			return err
		}
		t2, err := fc.popExpect(t1)
		if err != nil {
			return err
		}
		if t2 != unknownType {
			fc.pushVal(t2)
		} else {
			fc.pushVal(t1)
		}
		fc.emit(ins{op: uint16(OpSelect)})
	case OpLocalGet, OpLocalSet, OpLocalTee:
		idx, err := fc.r.u32()
		if err != nil {
			return err
		}
		if int(idx) >= len(fc.types) {
			return fmt.Errorf("local %d out of range", idx)
		}
		t := fc.types[idx]
		switch op {
		case OpLocalGet:
			fc.pushVal(t)
		case OpLocalSet:
			if _, err := fc.popExpect(t); err != nil {
				return err
			}
		case OpLocalTee:
			if _, err := fc.popExpect(t); err != nil {
				return err
			}
			fc.pushVal(t)
		}
		fc.emit(ins{op: uint16(op), a: int32(idx)})
	case OpGlobalGet, OpGlobalSet:
		idx, err := fc.r.u32()
		if err != nil {
			return err
		}
		if int(idx) >= fc.nGlob {
			return fmt.Errorf("global %d out of range", idx)
		}
		gt := fc.globTs[idx]
		if op == OpGlobalGet {
			fc.pushVal(gt.Type)
		} else {
			if !gt.Mutable {
				return fmt.Errorf("global %d is immutable", idx)
			}
			if _, err := fc.popExpect(gt.Type); err != nil {
				return err
			}
		}
		fc.emit(ins{op: uint16(op), a: int32(idx)})
	case OpMemorySize, OpMemoryGrow:
		if err := fc.hasMemory(); err != nil {
			return err
		}
		b, err := fc.r.byte()
		if err != nil {
			return err
		}
		if b != 0 {
			return fmt.Errorf("memory instruction reserved byte must be 0")
		}
		if op == OpMemoryGrow {
			if _, err := fc.popExpect(I32); err != nil {
				return err
			}
		}
		fc.pushVal(I32)
		fc.emit(ins{op: uint16(op)})
	case OpI32Const:
		v, err := fc.r.sleb(32)
		if err != nil {
			return err
		}
		fc.pushVal(I32)
		fc.emit(ins{op: uint16(op), imm: uint64(uint32(int32(v)))})
	case OpI64Const:
		v, err := fc.r.sleb(64)
		if err != nil {
			return err
		}
		fc.pushVal(I64)
		fc.emit(ins{op: uint16(op), imm: uint64(v)})
	case OpF32Const:
		b, err := fc.r.bytes(4)
		if err != nil {
			return err
		}
		fc.pushVal(F32)
		fc.emit(ins{op: uint16(op), imm: uint64(binary.LittleEndian.Uint32(b))})
	case OpF64Const:
		b, err := fc.r.bytes(8)
		if err != nil {
			return err
		}
		fc.pushVal(F64)
		fc.emit(ins{op: uint16(op), imm: binary.LittleEndian.Uint64(b)})
	default:
		return fc.simpleInstr(op)
	}
	return nil
}

// memInstr handles loads and stores (align+offset immediates).
func (fc *funcCompiler) memInstr(op byte, natural uint32, valT ValueType, isStore bool) error {
	if err := fc.hasMemory(); err != nil {
		return err
	}
	align, err := fc.r.u32()
	if err != nil {
		return err
	}
	if 1<<align > natural {
		return fmt.Errorf("alignment 2^%d exceeds natural %d", align, natural)
	}
	offset, err := fc.r.u32()
	if err != nil {
		return err
	}
	if isStore {
		if _, err := fc.popExpect(valT); err != nil {
			return err
		}
		if _, err := fc.popExpect(I32); err != nil {
			return err
		}
	} else {
		if _, err := fc.popExpect(I32); err != nil {
			return err
		}
		fc.pushVal(valT)
	}
	fc.emit(ins{op: uint16(op), imm: uint64(offset)})
	return nil
}

// unop/binop/testop/relop/cvtop helpers.
func (fc *funcCompiler) unop(op byte, t ValueType) error {
	if _, err := fc.popExpect(t); err != nil {
		return err
	}
	fc.pushVal(t)
	fc.emit(ins{op: uint16(op)})
	return nil
}

func (fc *funcCompiler) binop(op byte, t ValueType) error {
	if _, err := fc.popExpect(t); err != nil {
		return err
	}
	if _, err := fc.popExpect(t); err != nil {
		return err
	}
	fc.pushVal(t)
	fc.emit(ins{op: uint16(op)})
	return nil
}

func (fc *funcCompiler) relop(op byte, t ValueType) error {
	if _, err := fc.popExpect(t); err != nil {
		return err
	}
	if _, err := fc.popExpect(t); err != nil {
		return err
	}
	fc.pushVal(I32)
	fc.emit(ins{op: uint16(op)})
	return nil
}

func (fc *funcCompiler) testop(op byte, t ValueType) error {
	if _, err := fc.popExpect(t); err != nil {
		return err
	}
	fc.pushVal(I32)
	fc.emit(ins{op: uint16(op)})
	return nil
}

func (fc *funcCompiler) cvtop(op byte, from, to ValueType) error {
	if _, err := fc.popExpect(from); err != nil {
		return err
	}
	fc.pushVal(to)
	fc.emit(ins{op: uint16(op)})
	return nil
}
