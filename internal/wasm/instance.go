package wasm

import (
	"fmt"
	"strings"
)

// Engine selects the execution tier. The paper's WAMR has an interpreter
// and an ahead-of-time mode (Table I / §IV-B: TWINE executes AoT only);
// this runtime stacks two further AoT stages on top. All four tiers are
// bit-identical in results, traps and EPC fault/eviction counts.
type Engine int

const (
	// EngineSuperblock executes the third AoT stage (PR 7): the register
	// IR with the innermost self-loops that match an idiom template
	// compiled into single Go closures whose bounds/EPC-TLB guards are
	// amortised to once per loop trip. Every other loop stays under the
	// register interpreter, and functions the register translator cannot
	// prove run in their fused form.
	//
	// It is the zero value, so an unset Config.Engine runs the fastest
	// tier on every workload measured (BENCHMARKS.md, "Tier × workload
	// matrix"): a slower zero value silently taxes every caller that
	// sets no option.
	EngineSuperblock Engine = iota
	// EngineInterp executes the lowered code directly. It is the oracle
	// the differential tests compare every other tier against.
	EngineInterp
	// EngineRegister executes the second AoT stage (PR 4): per-function
	// register IR with constant folding, copy propagation and hoisted
	// bounds checks; functions the translator cannot prove run in their
	// fused form.
	EngineRegister
	// EngineAOT executes a pre-translated form with fused
	// superinstructions — the stand-in for wamrc's AoT compilation step,
	// and the per-function fallback of the two tiers above.
	EngineAOT
)

var engineNames = [...]string{
	EngineSuperblock: "super",
	EngineInterp:     "interp",
	EngineRegister:   "reg",
	EngineAOT:        "aot",
}

// Valid reports whether e is one of the four tiers.
func (e Engine) Valid() bool { return e >= 0 && int(e) < len(engineNames) }

func (e Engine) String() string {
	if !e.Valid() {
		return fmt.Sprintf("engine(%d)", int(e))
	}
	return engineNames[e]
}

// ParseEngine is the inverse of Engine.String for the four tiers.
func ParseEngine(name string) (Engine, error) {
	for e, n := range engineNames {
		if n == name {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("wasm: unknown engine %q (want %s)", name, strings.Join(engineNames[:], ", "))
}

// HostFunc is a native function exposed to guest code.
type HostFunc struct {
	Module string
	Name   string
	Type   FuncType
	// Fn receives the instance (for memory access) and the raw argument
	// slots; it returns the result slots.
	Fn func(in *Instance, args []uint64) ([]uint64, error)
}

// ImportObject resolves module imports at instantiation.
type ImportObject struct {
	funcs map[string]HostFunc
}

// NewImportObject returns an empty import set.
func NewImportObject() *ImportObject {
	return &ImportObject{funcs: make(map[string]HostFunc)}
}

// AddFunc registers a host function under module/name.
func (io *ImportObject) AddFunc(f HostFunc) {
	io.funcs[f.Module+"\x00"+f.Name] = f
}

// Func looks up a registered host function.
func (io *ImportObject) Func(module, name string) (HostFunc, bool) {
	f, ok := io.funcs[module+"\x00"+name]
	return f, ok
}

// Config tunes an instance.
type Config struct {
	// Engine selects the execution tier (zero value: EngineSuperblock).
	Engine Engine
	// MaxMemoryPages caps linear memory below the module's own limit
	// (0 = module limit). Used by the PolyBench memory sweep.
	MaxMemoryPages uint32
	// StackSlots is the value-stack size in 8-byte slots (default 64k).
	StackSlots int
	// MaxCallDepth bounds recursion (default 2048 frames).
	MaxCallDepth int
	// Touch observes every linear-memory access.
	Touch TouchFunc
	// TouchGen optionally points at the touch provider's paging
	// generation, enabling the software EPC-TLB: accesses to pages
	// already proven hot at the current generation skip the Touch hook
	// entirely (see Memory.SetTouchGen for the provider contract).
	TouchGen *uint64
	// HostCtx is an opaque pointer host functions can retrieve with
	// Instance.HostCtx (the WASI layer stores its state here).
	HostCtx any
}

// Instance is an instantiated module ready for invocation. A single
// Instance is not safe for concurrent use, but distinct instances of the
// same Compiled module execute concurrently: all shared state (the module,
// its lowered and AoT-translated code, the link tables) is immutable, and
// everything mutable (memory, globals, table, stack) is per-instance.
type Instance struct {
	c   *Compiled
	m   *Module
	cfg Config

	mem     *Memory
	globals []uint64
	globTs  []GlobalType
	table   []int32
	hosts   []HostFunc
	funcs   []compiledFunc

	stack []uint64
	sp    int
	depth int

	hostArgBuf []uint64
	hostRetBuf []uint64

	// insRetired counts guest instructions dispatched by this instance
	// (all engines); benchmark/kernels.go reads it through InsRetired.
	insRetired int64
}

// newInstance builds the per-instance shell: resolved imports, shared
// code, fresh memory with the touch hook wired — everything except the
// initial memory/global/table contents, which either come from the
// module's segments (Instantiate) or from a snapshot
// (InstantiateFromSnapshot).
func newInstance(c *Compiled, imports *ImportObject, cfg Config) (*Instance, error) {
	if cfg.StackSlots == 0 {
		cfg.StackSlots = 64 << 10
	}
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 2048
	}
	m := c.Module
	in := &Instance{c: c, m: m, cfg: cfg, stack: make([]uint64, cfg.StackSlots)}

	// Resolve function imports.
	for _, imp := range m.Imports {
		switch imp.Kind {
		case KindFunc:
			want := m.Types[imp.TypeIdx]
			if imports == nil {
				return nil, fmt.Errorf("%w: no imports provided, need %s.%s", ErrLink, imp.Module, imp.Name)
			}
			hf, ok := imports.Func(imp.Module, imp.Name)
			if !ok {
				return nil, fmt.Errorf("%w: unresolved import %s.%s", ErrLink, imp.Module, imp.Name)
			}
			if !hf.Type.Equal(want) {
				return nil, fmt.Errorf("%w: import %s.%s signature %v, module wants %v",
					ErrLink, imp.Module, imp.Name, hf.Type, want)
			}
			in.hosts = append(in.hosts, hf)
		case KindMemory, KindTable, KindGlobal:
			return nil, fmt.Errorf("%w: %v imports are not supported (module must define its own)", ErrLink, imp.Kind)
		}
	}

	// The guarded forms pay one guard dispatch per hoisted window to skip
	// per-access EPC-TLB probes; worth it only when the TLB is live (a
	// guard can never pass without a generation to validate against, so
	// a touch hook without TouchGen — the NoEPCTLB ablation — takes the
	// unguarded form).
	funcs, err := c.code(cfg.Engine, cfg.TouchGen != nil)
	if err != nil {
		return nil, err
	}
	in.funcs = funcs

	// Memory.
	if len(m.Memories) > 0 {
		mem, err := NewMemory(m.Memories[0], cfg.MaxMemoryPages)
		if err != nil {
			return nil, err
		}
		if cfg.TouchGen != nil {
			mem.SetTouchGen(cfg.Touch, cfg.TouchGen)
		} else {
			mem.SetTouch(cfg.Touch)
		}
		in.mem = mem
	}
	return in, nil
}

// Instantiate links, allocates and initialises a compiled module, then
// runs its start function.
func Instantiate(c *Compiled, imports *ImportObject, cfg Config) (*Instance, error) {
	in, err := newInstance(c, imports, cfg)
	if err != nil {
		return nil, err
	}
	m := c.Module

	// Globals.
	for _, g := range m.Globals {
		v, err := in.evalInit(g.Init)
		if err != nil {
			return nil, err
		}
		in.globals = append(in.globals, v)
		in.globTs = append(in.globTs, g.Type)
	}

	// Table + element segments.
	if len(m.Tables) > 0 {
		in.table = make([]int32, m.Tables[0].Min)
		for i := range in.table {
			in.table[i] = -1
		}
	}
	for _, seg := range m.Elems {
		off, err := in.evalInit(seg.Offset)
		if err != nil {
			return nil, err
		}
		base := int(uint32(off))
		if base+len(seg.Indices) > len(in.table) {
			return nil, fmt.Errorf("%w: element segment out of table bounds", ErrValidation)
		}
		for i, fi := range seg.Indices {
			in.table[base+i] = int32(fi)
		}
	}

	// Data segments.
	for _, seg := range m.Data {
		off, err := in.evalInit(seg.Offset)
		if err != nil {
			return nil, err
		}
		base := uint32(off)
		if in.mem == nil {
			return nil, fmt.Errorf("%w: data segment without memory", ErrValidation)
		}
		dst, err := in.mem.Bytes(base, uint32(len(seg.Bytes)))
		if err != nil {
			return nil, fmt.Errorf("%w: data segment: %v", ErrValidation, err)
		}
		copy(dst, seg.Bytes)
	}

	// Start function.
	if m.HasStart {
		if _, err := in.call(m.StartIdx, nil); err != nil {
			return nil, fmt.Errorf("wasm: start function: %w", err)
		}
	}
	return in, nil
}

func (in *Instance) evalInit(e InitExpr) (uint64, error) {
	switch e.Kind {
	case OpI32Const, OpI64Const, OpF32Const, OpF64Const:
		return e.Value, nil
	case OpGlobalGet:
		return 0, fmt.Errorf("%w: imported-global init not supported", ErrLink)
	default:
		return 0, fmt.Errorf("%w: bad init expr", ErrValidation)
	}
}

// Memory returns the instance memory (nil when the module has none).
func (in *Instance) Memory() *Memory { return in.mem }

// InsRetired reports the guest instructions dispatched by this instance.
func (in *Instance) InsRetired() int64 { return in.insRetired }

// RetBuf returns the instance's host-call result buffer sized to n
// slots. Host functions use it (directly or via Ret1) so returning
// results does not allocate on every call; the buffer is consumed by
// invokeHost before the next host call can run.
func (in *Instance) RetBuf(n int) []uint64 {
	if cap(in.hostRetBuf) < n {
		in.hostRetBuf = make([]uint64, n)
	}
	return in.hostRetBuf[:n]
}

// Ret1 returns a single-result slice backed by the instance's reusable
// host-call result buffer.
func (in *Instance) Ret1(v uint64) []uint64 {
	r := in.RetBuf(1)
	r[0] = v
	return r
}

// HostCtx returns the opaque context configured at instantiation.
func (in *Instance) HostCtx() any { return in.cfg.HostCtx }

// SetHostCtx replaces the opaque host context. Worker repair uses it to
// hand a reset instance a fresh WASI system: the old context may hold
// descriptor state dirtied by the failed request. Must not race an
// invocation in flight.
func (in *Instance) SetHostCtx(ctx any) { in.cfg.HostCtx = ctx }

// Module returns the underlying module.
func (in *Instance) Module() *Module { return in.m }

// Global reads an exported global by name.
func (in *Instance) Global(name string) (uint64, bool) {
	for _, e := range in.m.Exports {
		if e.Kind == KindGlobal && e.Name == name {
			return in.globals[e.Idx], true
		}
	}
	return 0, false
}

// Invoke calls an exported function with raw 64-bit argument slots and
// returns raw result slots. A trap is returned as a *Trap error.
func (in *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	fi, ok := in.m.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchExport, name)
	}
	ft, err := in.m.TypeOfFunc(fi)
	if err != nil {
		return nil, err
	}
	if len(args) != len(ft.Params) {
		return nil, fmt.Errorf("wasm: %q takes %d arguments, got %d", name, len(ft.Params), len(args))
	}
	return in.call(fi, args)
}

// call invokes function index fi with args, catching traps.
func (in *Instance) call(fi uint32, args []uint64) (results []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*Trap); ok {
				err = t
				in.sp = 0
				in.depth = 0
				return
			}
			panic(r)
		}
	}()
	base := in.sp
	for _, a := range args {
		in.stack[in.sp] = a
		in.sp++
	}
	in.invokeFunc(int(fi))
	ft, terr := in.m.TypeOfFunc(fi)
	if terr != nil {
		return nil, terr
	}
	n := len(ft.Results)
	results = make([]uint64, n)
	copy(results, in.stack[base:base+n])
	in.sp = base
	return results, nil
}
