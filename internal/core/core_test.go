package core

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"

	"twine/internal/hostfs"
	"twine/internal/sgx"
	"twine/internal/wasm"
	"twine/wasmgen"
)

func testConfig(mutate ...func(*Config)) Config {
	cfg := Config{
		PlatformSeed: "core-test",
		SGX:          sgx.TestConfig(),
	}
	cfg.SGX.HeapSize = 64 << 20
	cfg.SGX.EPCSize = 16 << 20
	cfg.SGX.EPCUsable = 12 << 20
	for _, m := range mutate {
		m(&cfg)
	}
	return cfg
}

// helloModule writes a line to stdout and exits with the given code.
func helloModule(text string, exitCode int32) []byte {
	m := wasmgen.NewModule()
	fdWrite := m.ImportFunc("wasi_snapshot_preview1", "fd_write",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	procExit := m.ImportFunc("wasi_snapshot_preview1", "proc_exit", wasmgen.Sig(wasmgen.I32))
	m.Memory(1, 1)
	m.Data(64, []byte(text))
	f := m.Func(wasmgen.Sig())
	f.I32Const(0).I32Const(64).I32Store(0)
	f.I32Const(4).I32Const(int32(len(text))).I32Store(0)
	f.I32Const(1).I32Const(0).I32Const(1).I32Const(16).Call(fdWrite).Drop()
	f.I32Const(exitCode).Call(procExit)
	f.End()
	m.Export("_start", f)
	return m.Bytes()
}

func TestRunHelloWorld(t *testing.T) {
	var out bytes.Buffer
	rt, err := NewRuntime(testConfig(func(c *Config) { c.Stdout = &out }))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	mod, err := rt.LoadModule(helloModule("hello enclave\n", 0))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if mod.WasmBytes == 0 || mod.AotIns == 0 {
		t.Errorf("module metrics empty: %+v", mod)
	}
	inst, err := rt.NewInstance(mod)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	code, err := inst.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d", code)
	}
	if out.String() != "hello enclave\n" {
		t.Errorf("stdout = %q", out.String())
	}
	// The run entered the enclave and stdout left through an OCALL.
	st := rt.Enclave.Stats()
	if st.ECalls == 0 || st.OCalls == 0 {
		t.Errorf("stats = %+v, want crossings", st)
	}
}

func TestExitCodePropagates(t *testing.T) {
	rt, _ := NewRuntime(testConfig())
	mod, _ := rt.LoadModule(helloModule("x", 7))
	inst, _ := rt.NewInstance(mod)
	code, err := inst.Run()
	if err != nil || code != 7 {
		t.Errorf("Run = %d, %v, want 7", code, err)
	}
}

func TestInvokeExportedFunction(t *testing.T) {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig(wasmgen.I64).Returns(wasmgen.I64))
	f.LocalGet(0).LocalGet(0).I64Mul().End()
	m.Export("square", f)
	rt, _ := NewRuntime(testConfig())
	mod, err := rt.LoadModule(m.Bytes())
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	inst, _ := rt.NewInstance(mod)
	out, err := inst.Invoke("square", 12)
	if err != nil || out[0] != 144 {
		t.Errorf("square(12) = %v, %v", out, err)
	}
}

func TestBadModuleRejected(t *testing.T) {
	rt, _ := NewRuntime(testConfig())
	if _, err := rt.LoadModule([]byte("not wasm")); err == nil {
		t.Error("garbage module loaded")
	}
}

func TestGuestMemoryMustFitEnclave(t *testing.T) {
	cfg := testConfig()
	cfg.SGX.HeapSize = 4 << 20 // tiny heap
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	m := wasmgen.NewModule()
	m.Memory(128, 128) // wants 8 MiB of guest memory
	f := m.Func(wasmgen.Sig())
	f.End()
	m.Export("_start", f)
	mod, err := rt.LoadModule(m.Bytes())
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if _, err := rt.NewInstance(mod); err == nil {
		t.Error("instance fit in an enclave that is too small")
	}
}

func TestEmbeddedDBOverIPFS(t *testing.T) {
	host := hostfs.NewMemFS()
	rt, err := NewRuntime(testConfig(func(c *Config) {
		c.HostFS = host
		c.FS = FSIPFS
	}))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	db, err := rt.OpenDB(DBConfig{Name: "trusted.db", CachePages: 64})
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)`); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := db.Exec(`INSERT INTO t (b) VALUES ('SECRET-MARKER-XYZ'), ('row2')`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil || rows.All()[0][0].Int() != 2 {
		t.Fatalf("count = %v, %v", rows, err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Ciphertext on the untrusted host.
	raw, err := host.OpenFile("trusted.db", hostfs.ORead)
	if err != nil {
		t.Fatalf("host file: %v", err)
	}
	defer raw.Close()
	info, _ := raw.Stat()
	disk := make([]byte, info.Size)
	raw.ReadAt(disk, 0)
	if bytes.Contains(disk, []byte("SECRET-MARKER-XYZ")) {
		t.Fatal("plaintext on untrusted host")
	}
}

func TestEmbeddedDBInMemory(t *testing.T) {
	rt, _ := NewRuntime(testConfig())
	db, err := rt.OpenDB(DBConfig{Name: ":memory:", CachePages: 32, MemVFS: true})
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	defer db.Close()
	db.Exec(`CREATE TABLE t (a INTEGER)`)
	db.Exec(`INSERT INTO t VALUES (1),(2),(3)`)
	rows, err := db.Query(`SELECT SUM(a) FROM t`)
	if err != nil || rows.All()[0][0].Int() != 6 {
		t.Errorf("sum = %v, %v", rows, err)
	}
}

func TestProvisioningEndToEnd(t *testing.T) {
	module := helloModule("provisioned!\n", 0)
	var out bytes.Buffer
	rt, err := NewRuntime(testConfig(func(c *Config) { c.Stdout = &out }))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	svc := sgx.NewAttestationService()
	svc.Register(rt.Platform)
	provider := NewProvider(svc, rt.Enclave.Measurement(), module)

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- provider.Serve(server) }()
	mod, err := rt.FetchModule(client)
	if err != nil {
		t.Fatalf("FetchModule: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	inst, err := rt.NewInstance(mod)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	if code, err := inst.Run(); err != nil || code != 0 {
		t.Fatalf("Run = %d, %v", code, err)
	}
	if out.String() != "provisioned!\n" {
		t.Errorf("stdout = %q", out.String())
	}
}

func TestProvisioningRejectsWrongMeasurement(t *testing.T) {
	rt, _ := NewRuntime(testConfig())
	svc := sgx.NewAttestationService()
	svc.Register(rt.Platform)
	var wrong [32]byte
	wrong[0] = 0xFF
	provider := NewProvider(svc, wrong, []byte("module"))

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		err := provider.Serve(server)
		server.Close() // release the peer blocked on the reply
		done <- err
	}()
	_, fetchErr := rt.FetchModule(client)
	serveErr := <-done
	if !errors.Is(serveErr, ErrAttestation) {
		t.Errorf("Serve = %v, want ErrAttestation", serveErr)
	}
	if fetchErr == nil {
		t.Error("FetchModule succeeded against refusing provider")
	}
}

func TestProvisioningRejectsUnknownPlatform(t *testing.T) {
	rt, _ := NewRuntime(testConfig())
	svc := sgx.NewAttestationService() // platform NOT registered
	provider := NewProvider(svc, rt.Enclave.Measurement(), []byte("module"))
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		err := provider.Serve(server)
		server.Close()
		done <- err
	}()
	_, _ = rt.FetchModule(client)
	if err := <-done; !errors.Is(err, ErrAttestation) {
		t.Errorf("Serve = %v, want ErrAttestation", err)
	}
}

func TestDisableUntrustedPOSIX(t *testing.T) {
	rt, err := NewRuntime(testConfig(func(c *Config) {
		c.FS = FSHost
		c.DisableUntrustedPOSIX = true
	}))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	if _, err := rt.OpenDB(DBConfig{Name: "blocked.db", CachePages: 32}); err == nil {
		t.Error("host-backed DB opened with untrusted POSIX disabled")
	} else if !strings.Contains(err.Error(), "ENOTCAPABLE") {
		t.Logf("note: error was %v", err)
	}
}

func TestMathImports(t *testing.T) {
	m := wasmgen.NewModule()
	exp := m.ImportFunc("math", "exp", wasmgen.Sig(wasmgen.F64).Returns(wasmgen.F64))
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig(wasmgen.F64).Returns(wasmgen.F64))
	f.LocalGet(0).Call(exp).End()
	m.Export("e", f)
	rt, _ := NewRuntime(testConfig())
	mod, err := rt.LoadModule(m.Bytes())
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	inst, _ := rt.NewInstance(mod)
	out, err := inst.Invoke("e", pf64(1))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got := f64(out[0]); got < 2.7 || got > 2.72 {
		t.Errorf("exp(1) = %v", got)
	}
}

// TestEngineSelection: every engine a Config can name loads and runs, and
// an unset or out-of-range one resolves to the zero value.
func TestEngineSelection(t *testing.T) {
	for _, tc := range []struct{ set, want wasm.Engine }{
		{wasm.EngineSuperblock, wasm.EngineSuperblock},
		{wasm.EngineInterp, wasm.EngineInterp},
		{wasm.EngineRegister, wasm.EngineRegister},
		{wasm.EngineAOT, wasm.EngineAOT},
		{Config{}.Engine, 0},
		{wasm.Engine(-1), 0},
		{wasm.Engine(4), 0},
	} {
		rt, err := NewRuntime(testConfig(func(c *Config) { c.Engine = tc.set }))
		if err != nil {
			t.Fatalf("NewRuntime(%v): %v", tc.set, err)
		}
		if rt.cfg.Engine != tc.want {
			t.Errorf("engine %v resolved to %v, want %v", tc.set, rt.cfg.Engine, tc.want)
		}
		mod, err := rt.LoadModule(helloModule("x", 0))
		if err != nil {
			t.Fatalf("LoadModule(%v): %v", tc.set, err)
		}
		// The module names the tier that was translated.
		var wantSuper, wantReg int64
		switch tc.want {
		case wasm.EngineSuperblock:
			wantSuper = 1
		case wasm.EngineRegister:
			wantReg = 1
		}
		if s, r := int64(mod.Super.Funcs), mod.Reg.Funcs; s != wantSuper || r != wantReg {
			t.Errorf("engine %v: Module.Super.Funcs=%d Reg.Funcs=%d, want %d and %d", tc.set, s, r, wantSuper, wantReg)
		}
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("NewInstance(%v): %v", tc.set, err)
		}
		if code, err := inst.Run(); err != nil || code != 0 {
			t.Errorf("engine %v: run = %d, %v", tc.set, code, err)
		}
	}
}
