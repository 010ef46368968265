// Concurrent serving (PR 3): one module, many enclave instances, one
// front door. The host builds a tiny request handler in Wasm, loads it
// once, and serves a burst of requests through a twine.Pool — worker
// instances are stamped out by copy-from-snapshot, ECALLs multiplex over
// the enclave's TCS pool, and every request also pays a simulated
// untrusted transport wait (the part concurrency actually hides on a
// server).
//
// Run it twice to see the knob:
//
//	go run ./examples/concurrent           # 4 TCS: transport waits overlap
//	go run ./examples/concurrent -tcs 1    # 1 TCS: every request serialises
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"twine"
	"twine/wasmgen"
)

// buildHandler assembles the request handler: handle(x) returns a folded
// checksum of a 1 KiB in-enclave table mixed with the request argument —
// a stand-in for "look something up and compute on it".
func buildHandler() []byte {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	table := make([]byte, 1024)
	for i := range table {
		table[i] = byte(i*31 + 7)
	}
	m.Data(0, table)

	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	i, s := f.AddLocal(wasmgen.I32), f.AddLocal(wasmgen.I32)
	f.I32Const(0).LocalSet(i)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Const(int32(len(table))).I32GeS().BrIf(1)
	f.LocalGet(s).I32Const(31).I32Mul().LocalGet(i).I32Load8U(0).I32Add().LocalSet(s)
	f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(s).LocalGet(0).I32Xor()
	f.End()
	m.Export("handle", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

func main() {
	tcs := flag.Int("tcs", 4, "enclave TCS count (concurrent ECALL bound)")
	workers := flag.Int("workers", 0, "pool workers (default: TCS count)")
	requests := flag.Int("requests", 64, "requests to serve")
	wait := flag.Duration("io", 500*time.Microsecond, "untrusted transport wait per request")
	flag.Parse()

	cfg := twine.Config{}
	cfg.SGX = twine.SGXDefaultConfig()
	cfg.SGX.TCSNum = *tcs
	rt, err := twine.NewRuntime(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Enclave.Destroy()

	mod, err := rt.LoadModule(buildHandler())
	if err != nil {
		log.Fatal(err)
	}

	pool, err := rt.NewPool(mod, twine.PoolConfig{
		Workers: *workers,
		Entry:   "handle",
		HostIO: func() error { // request ingress/egress on the untrusted side
			time.Sleep(*wait)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	fmt.Printf("pool: %d workers over %d TCS (1 full instantiation + %d snapshot copies)\n",
		pool.Size(), rt.Enclave.TCSCount(), pool.Size()-1)

	start := time.Now()
	err = pool.Serve(*requests,
		func(i int) []uint64 { return []uint64{uint64(i)} },
		nil)
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}

	// One spot-check request, synchronously.
	out, err := pool.Submit(42)
	if err != nil {
		log.Fatal(err)
	}

	ps := pool.Stats()
	es := rt.Enclave.Stats()
	fmt.Printf("served %d requests in %s (%.0f req/s); handle(42) = %d\n",
		*requests, elapsed.Round(time.Millisecond), float64(*requests)/elapsed.Seconds(), uint32(out[0]))
	fmt.Printf("enclave: %d ECALLs, TCS busy high-water %d/%d, %d entries waited, pool queued %d\n",
		es.ECalls, es.TCSMaxBusy, rt.Enclave.TCSCount(), es.TCSWaits, ps.Waits)

	// Every request starts from the golden snapshot, so the pool must
	// answer exactly what a plain instance does.
	inst, err := rt.NewInstance(mod)
	if err != nil {
		log.Fatal(err)
	}
	want, err := inst.Invoke("handle", 42)
	if err != nil {
		log.Fatal(err)
	}
	if uint32(out[0]) != uint32(want[0]) {
		log.Fatalf("handle(42) = %d through the pool, %d on a plain instance", uint32(out[0]), uint32(want[0]))
	}
}
