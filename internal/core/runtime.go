package core

import (
	"fmt"
	"io"
	"time"

	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/sgx"
	"twine/internal/wasi"
	"twine/internal/wasm"
)

// FSKind selects the file-system routing of the WASI layer.
type FSKind int

const (
	// FSIPFS routes file operations to the Intel protected file system
	// (TWINE's configuration: data encrypted and integrity-checked).
	FSIPFS FSKind = iota
	// FSHost forwards file operations to untrusted POSIX via OCALLs
	// (WAMR's original WASI implementation, the paper's baseline).
	FSHost
)

func (k FSKind) String() string {
	if k == FSHost {
		return "host-posix"
	}
	return "ipfs"
}

// SwitchlessMode controls the switchless-OCALL subsystem (PR 2): a shared
// request ring drained by an untrusted worker, so hot host calls skip the
// two enclave transitions a classic OCALL pays.
type SwitchlessMode int

const (
	// SwitchlessAuto enables the ring — the default for the twine variant,
	// matching the follow-up paper's runtime. (The sgx-lkl comparison
	// variant builds its enclave directly and never enables a ring.)
	SwitchlessAuto SwitchlessMode = iota
	// SwitchlessOff forces every OCALL through the classic two-transition
	// path, bit-identical to the pre-switchless runtime — used by ablation
	// benchmarks and the fidelity tests.
	SwitchlessOff
)

func (m SwitchlessMode) String() string {
	if m == SwitchlessOff {
		return "off"
	}
	return "on"
}

// RuntimeVersion is the enclave code identity string; it determines the
// measurement (MRENCLAVE) of every TWINE enclave of this build.
const RuntimeVersion = "twine-runtime-go-1.0"

// Config assembles a TWINE runtime.
type Config struct {
	// PlatformSeed selects the simulated CPU (sealing identity).
	PlatformSeed string
	// SGX configures the enclave; zero value = sgx.DefaultConfig().
	SGX sgx.Config
	// Engine is the Wasm execution tier. The zero value is wasm's zero
	// value, the superblock tier; out-of-range values run it too.
	Engine wasm.Engine
	// FS selects trusted (IPFS) or untrusted (host POSIX) file routing.
	FS FSKind
	// IPFSMode selects the standard or optimised protected FS (§V-F).
	IPFSMode ipfs.Mode
	// IPFSCacheNodes overrides the protected-FS node cache size.
	IPFSCacheNodes int
	// DisableUntrustedPOSIX applies the strict-mode compile flag (§IV-C).
	DisableUntrustedPOSIX bool
	// HostFS is the untrusted world (default: fresh in-memory FS).
	HostFS hostfs.FS
	// Preopens maps guest paths to host directories (default "/" -> "").
	Preopens map[string]string
	// Args/Env/stdio for the WASI program.
	Args   []string
	Env    []string
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
	// MaxMemoryPages caps guest linear memory (0 = module limit).
	MaxMemoryPages uint32
	// NoEPCTLB disables the interpreter's software EPC-TLB, forcing the
	// EPC model to be consulted on every guest memory access. The TLB is
	// exactly semantics-preserving (identical fault/eviction counts), so
	// this knob exists only for ablation benchmarks and fidelity tests.
	NoEPCTLB bool
	// HostRetryMax bounds transient-fault recovery at the WASI boundary:
	// a crossing failing with a chaos.ErrTransient-wrapped error is
	// re-issued up to this many times (0 = no retries, every error
	// surfaces). HostRetryBackoff is slept before the first retry and
	// doubles on each further one.
	HostRetryMax     int
	HostRetryBackoff time.Duration
	// Switchless selects the OCALL dispatch strategy (default: on). With
	// the ring off, ECALL/OCALL counts are bit-identical to the
	// pre-switchless runtime; with it on, WASI-visible results are
	// byte-identical while hot host calls skip the enclave transitions
	// (see internal/core's differential tests).
	Switchless SwitchlessMode
	// Timings receives the protected FS's Figure 7 time attribution
	// (ipfs.Options.Timings); nil reads no clock.
	Timings *ipfs.Timings
}

// Runtime is a live TWINE enclave ready to load modules.
type Runtime struct {
	cfg      Config
	Platform *sgx.Platform
	Enclave  *sgx.Enclave
	Host     hostfs.FS
	PFS      *ipfs.FS
	Sys      *wasi.System
	Imports  *wasm.ImportObject

	// hostBE is the host backend every instance's WASI system shares; it
	// holds the runtime's retry counters.
	hostBE *wasi.HostBackend

	// LaunchTime is the wall time spent creating the enclave and wiring
	// the runtime (Table IIIa "Launch").
	LaunchTime time.Duration
}

// HostRetryStats reports WASI-boundary retry activity aggregated across
// the runtime's primary WASI system and every per-instance clone (they
// share one host backend).
func (rt *Runtime) HostRetryStats() wasi.RetryStats {
	return rt.hostBE.RetryCounters()
}

// NewRuntime builds the enclave and the WASI plumbing.
func NewRuntime(cfg Config) (*Runtime, error) {
	start := time.Now()
	if cfg.SGX.EPCSize == 0 {
		cfg.SGX = sgx.DefaultConfig()
	}
	if cfg.HostFS == nil {
		cfg.HostFS = hostfs.NewMemFS()
	}
	if cfg.Preopens == nil {
		cfg.Preopens = map[string]string{"/": ""}
	}
	// An out-of-range engine runs the zero value, like an unset one.
	if !cfg.Engine.Valid() {
		cfg.Engine = 0
	}

	rt := &Runtime{cfg: cfg, Host: cfg.HostFS}
	rt.Platform = sgx.NewPlatform(cfg.PlatformSeed)
	enclave, err := rt.Platform.NewEnclave(cfg.SGX, []byte(RuntimeVersion))
	if err != nil {
		return nil, fmt.Errorf("twine: enclave creation: %w", err)
	}
	rt.Enclave = enclave
	if cfg.Switchless != SwitchlessOff {
		enclave.EnableSwitchless(sgx.DefaultSwitchlessConfig(cfg.SGX))
	}

	hostBE := wasi.NewHostBackend(cfg.HostFS, enclave)
	hostBE.Retry = wasi.RetryPolicy{Max: cfg.HostRetryMax, Backoff: cfg.HostRetryBackoff}
	rt.hostBE = hostBE
	var backend wasi.Backend
	if cfg.FS == FSIPFS {
		rt.PFS = ipfs.New(enclave, cfg.HostFS, ipfs.Options{
			Mode:       cfg.IPFSMode,
			CacheNodes: cfg.IPFSCacheNodes,
			Timings:    cfg.Timings,
		})
		backend = wasi.NewIPFSBackend(rt.PFS, hostBE)
	} else {
		backend = hostBE
	}

	sys, err := wasi.NewSystem(wasi.Config{
		Args:                  cfg.Args,
		Env:                   cfg.Env,
		Stdin:                 cfg.Stdin,
		Stdout:                cfg.Stdout,
		Stderr:                cfg.Stderr,
		FS:                    backend,
		Preopens:              cfg.Preopens,
		Enclave:               enclave,
		DisableUntrustedPOSIX: cfg.DisableUntrustedPOSIX,
	})
	if err != nil {
		return nil, err
	}
	rt.Sys = sys
	imp := wasm.NewImportObject()
	sys.Register(imp)
	registerMathImports(imp)
	rt.Imports = imp
	rt.LaunchTime = time.Since(start)
	return rt, nil
}

// registerMathImports provides the libm-equivalent host functions LLVM
// would otherwise inline; PolyBench kernels import exp and pow. They are
// trusted (in-enclave) intrinsics: no OCALL.
func registerMathImports(imp *wasm.ImportObject) {
	f64f64 := wasm.FuncType{Params: []wasm.ValueType{wasm.F64}, Results: []wasm.ValueType{wasm.F64}}
	f64x2 := wasm.FuncType{Params: []wasm.ValueType{wasm.F64, wasm.F64}, Results: []wasm.ValueType{wasm.F64}}
	imp.AddFunc(wasm.HostFunc{Module: "math", Name: "exp", Type: f64f64,
		Fn: func(in *wasm.Instance, a []uint64) ([]uint64, error) {
			return in.Ret1(pf64(mexp(f64(a[0])))), nil
		}})
	imp.AddFunc(wasm.HostFunc{Module: "math", Name: "pow", Type: f64x2,
		Fn: func(in *wasm.Instance, a []uint64) ([]uint64, error) {
			return in.Ret1(pf64(mpow(f64(a[0]), f64(a[1])))), nil
		}})
}

// Module is a loaded, AoT-prepared application.
type Module struct {
	Compiled *wasm.Compiled
	// WasmBytes is the size of the delivered binary; AotIns counts the
	// translated instructions (Table IIIb artefact sizes).
	WasmBytes int64
	AotIns    int64
	// LoadTime is the in-enclave decode+translate time.
	LoadTime time.Duration
	// Reg or Super holds the translation counters of the configured tier
	// (the other, and both under the interpreter and AoT tiers, stay
	// zero). The superblock tier stacks on the register form: its
	// counters say how many innermost loops became idiom traces and how
	// many stayed with the register interpreter.
	Reg   wasm.RegStats
	Super wasm.SuperStats
}

// LoadModule supplies a Wasm binary to the enclave through the single
// ECALL TWINE exposes (§IV-C): the code is copied into reserved memory,
// decoded, validated and AoT-translated, then the region is sealed
// execute-only. A further module re-opens the region for the duration of
// its load (SGX2 EMODPE semantics — the flip happens inside the ECALL,
// so the region is never writable while guest code can run) and appends;
// loaded code itself is immutable, which is what lets the multi-tenant
// registry share one compiled module across tenants.
func (rt *Runtime) LoadModule(wasmBytes []byte) (*Module, error) {
	start := time.Now()
	var mod *Module
	err := rt.Enclave.ECall("twine_load_module", func() error {
		rt.Enclave.Reserved().Protect(sgx.PermRW)
		defer rt.Enclave.Reserved().Protect(sgx.PermRX) // reseal on every path
		if _, err := rt.Enclave.Reserved().Load(wasmBytes); err != nil {
			return fmt.Errorf("twine: reserved memory: %w", err)
		}
		m, err := wasm.Decode(wasmBytes)
		if err != nil {
			return err
		}
		c, err := wasm.Compile(m)
		if err != nil {
			return err
		}
		// Translate the configured tier's form here, once per Compiled
		// (AoT, like wamrc): LoadTime carries it and no first request
		// does.
		if err := c.Translate(rt.cfg.Engine); err != nil {
			return err
		}
		mod = &Module{Compiled: c, WasmBytes: int64(len(wasmBytes)), AotIns: c.NumInstructions()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	switch rt.cfg.Engine {
	case wasm.EngineRegister:
		mod.Reg = mod.Compiled.RegStats()
	case wasm.EngineSuperblock:
		mod.Super = mod.Compiled.SuperStats()
	}
	mod.LoadTime = time.Since(start)
	return mod, nil
}

// Instance is an instantiated module whose linear memory is charged
// against the enclave's EPC. Each Instance owns its WASI state (Sys) — a
// clone of the runtime's primary System with its own descriptor table
// and clock guards over the shared file backend and storage — so
// distinct instances never share mutable WASI state. A single Instance
// is not safe for concurrent use; run distinct instances concurrently
// instead (the TCS pool bounds how many execute at once).
type Instance struct {
	rt  *Runtime
	In  *wasm.Instance
	Sys *wasi.System
	mem *sgx.Memory
	// arena is the enclave region backing the guest linear memory. It is
	// aligned to the enclave page size so guest 4 KiB pages and enclave
	// EPC pages coincide — the alignment the EPC-TLB contract requires.
	// arenaLen is its length in bytes (the guest's maximum linear memory).
	arena    int64
	arenaLen int64
	// allocOff is the raw allocator offset backing arena (arena rounds it
	// up to a page boundary); Release frees it. -1 once released.
	allocOff int64
}

// Release returns the instance's guest arena to the enclave allocator
// and discards its EPC pages (no eviction cost — the contents are dead,
// there is nothing to write back). After Release the instance must not
// execute again; its pages are reusable by future instantiations and its
// EPC residency is exactly zero — the invariant the swap tier depends on
// (a suspended instance must free real EPC headroom, and a leak here
// silently shrinks effective EPC; release_test.go pins it). Pool.Close
// releases every worker the same way. Idempotent.
func (inst *Instance) Release() error {
	if inst.allocOff < 0 {
		return nil
	}
	off := inst.allocOff
	inst.allocOff = -1
	err := inst.rt.Enclave.Allocator().Free(off)
	// Discard after Free: Free touches its block header, which lives on
	// the page below the page-aligned arena, so the discard covers exactly
	// the arena pages and nothing the allocator still uses.
	inst.mem.Discard(inst.arena, inst.arenaLen)
	return err
}

// ResidencyStats reports how many of the instance's arena pages are
// currently EPC-resident and how many of those are referenced (hold a
// clock second chance) — the per-instance working-set probe the swap
// tier's victim selection keys on. A released instance reports zero.
func (inst *Instance) ResidencyStats() (resident, referenced int) {
	if inst.allocOff < 0 {
		return 0, 0
	}
	return inst.mem.RangeResidency(inst.arena, inst.arenaLen)
}

// NewInstance instantiates mod inside the enclave with its own WASI
// state (a clone of the runtime's primary System — same args, stdio,
// preopens and storage, fresh descriptor table).
func (rt *Runtime) NewInstance(mod *Module) (*Instance, error) {
	sys, err := rt.Sys.Clone(wasi.CloneOptions{})
	if err != nil {
		return nil, err
	}
	return rt.newInstance(mod, sys, nil)
}

// newInstance carves a guest arena out of the enclave and instantiates
// mod over sys, inside one twine_instantiate ECALL. With a snapshot, the
// instance's memory, globals and table are copied from it (no
// data-segment replay, no start function) — the cheap path the serving
// pool stamps workers out with.
func (rt *Runtime) newInstance(mod *Module, sys *wasi.System, snap *wasm.Snapshot) (*Instance, error) {
	var inst *Instance
	err := rt.Enclave.ECall("twine_instantiate", func() error {
		var ierr error
		inst, ierr = rt.instantiate(mod, sys, snap)
		return ierr
	})
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// instantiate is newInstance without the ECALL wrapper: the caller is
// already inside the enclave. The swap tier's resume path needs this —
// rehydrating a suspended worker happens inside its own twine_resume
// ECALL, and same-goroutine ECALL re-entry is rejected by design.
func (rt *Runtime) instantiate(mod *Module, sys *wasi.System, snap *wasm.Snapshot) (*Instance, error) {
	inst := &Instance{rt: rt, Sys: sys, mem: rt.Enclave.Memory()}

	// Reserve enclave memory for the guest's maximum linear memory so
	// EPC pressure reflects guest usage.
	maxPages := uint32(wasm.MaxPages)
	if len(mod.Compiled.Module.Memories) > 0 {
		l := mod.Compiled.Module.Memories[0]
		if l.HasMax {
			maxPages = l.Max
		}
	}
	if rt.cfg.MaxMemoryPages != 0 && rt.cfg.MaxMemoryPages < maxPages {
		maxPages = rt.cfg.MaxMemoryPages
	}
	need := int64(maxPages)*wasm.PageSize + sgx.PageSize
	off, err := rt.Enclave.Allocator().Alloc(need)
	if err != nil {
		return nil, fmt.Errorf("twine: guest memory (%d pages) does not fit the enclave: %w", maxPages, err)
	}
	inst.allocOff = off
	inst.arena = (off + sgx.PageSize - 1) &^ (sgx.PageSize - 1)
	inst.arenaLen = int64(maxPages) * wasm.PageSize

	// The arena base is pre-translated into the view once; the per-access
	// hook is then a single add instead of a capture-and-check closure.
	view := inst.mem.ViewAt(inst.arena)
	var touchGen *uint64
	if !rt.cfg.NoEPCTLB {
		touchGen = inst.mem.GenRef()
	}

	cfg := wasm.Config{
		Engine:         rt.cfg.Engine,
		MaxMemoryPages: rt.cfg.MaxMemoryPages,
		Touch:          view.Touch,
		TouchGen:       touchGen,
		HostCtx:        sys,
	}
	var in *wasm.Instance
	if snap != nil {
		in, err = wasm.InstantiateFromSnapshot(mod.Compiled, rt.Imports, snap, cfg)
	} else {
		in, err = wasm.Instantiate(mod.Compiled, rt.Imports, cfg)
	}
	if err != nil {
		inst.allocOff = -1
		_ = rt.Enclave.Allocator().Free(off)
		return nil, err
	}
	inst.In = in
	return inst, nil
}

// Run executes the WASI start routine (_start) inside the enclave and
// returns the guest exit code.
func (inst *Instance) Run() (uint32, error) {
	var code uint32
	err := inst.rt.Enclave.ECall("twine_run", func() error {
		_, err := inst.In.Invoke("_start")
		if err != nil {
			if tr, ok := err.(*wasm.Trap); ok && tr.Kind == wasm.TrapExit {
				code = tr.Code
				return nil
			}
			return err
		}
		return nil
	})
	return code, err
}

// Invoke calls an exported guest function inside the enclave.
func (inst *Instance) Invoke(name string, args ...uint64) ([]uint64, error) {
	var out []uint64
	err := inst.rt.Enclave.ECall("twine_invoke", func() error {
		var ierr error
		out, ierr = inst.In.Invoke(name, args...)
		return ierr
	})
	return out, err
}

// ECall runs fn inside the enclave (for embedders such as the trusted
// database facade, whose host-side code must account enclave crossings).
func (rt *Runtime) ECall(name string, fn func() error) error {
	return rt.Enclave.ECall(name, fn)
}
