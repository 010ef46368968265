package sgx

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// TestSealEmptyPlaintext: an empty payload round-trips — the blob still
// carries nonce+tag, still authenticates the label, and unseals to an
// empty (possibly nil) slice.
func TestSealEmptyPlaintext(t *testing.T) {
	e := newTestEnclave(t)
	blob, err := e.Seal("empty", nil)
	if err != nil {
		t.Fatalf("Seal(nil): %v", err)
	}
	if len(blob) == 0 {
		t.Fatal("empty plaintext sealed to an empty blob; nonce+tag missing")
	}
	pt, err := e.Unseal("empty", blob)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if len(pt) != 0 {
		t.Errorf("Unseal of empty plaintext = %d bytes", len(pt))
	}
	if _, err := e.Unseal("not-empty", blob); err == nil {
		t.Error("empty-plaintext blob unsealed under the wrong label")
	}
}

// TestSealSnapshotSizedPayload: multi-MB payloads (the size of an
// instance snapshot) round-trip bit-exactly, and a single flipped bit
// anywhere in a large blob is rejected.
func TestSealSnapshotSizedPayload(t *testing.T) {
	e := newTestEnclave(t)
	payload := make([]byte, 3<<20) // 3 MiB: snapshot territory
	if _, err := rand.Read(payload); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal("swap:tenant:0", payload)
	if err != nil {
		t.Fatalf("Seal(3MiB): %v", err)
	}
	pt, err := e.Unseal("swap:tenant:0", blob)
	if err != nil {
		t.Fatalf("Unseal(3MiB): %v", err)
	}
	if !bytes.Equal(pt, payload) {
		t.Fatal("3MiB payload did not round-trip bit-exactly")
	}
	// Tamper with one bit in the middle of the ciphertext.
	tampered := append([]byte(nil), blob...)
	tampered[len(tampered)/2] ^= 0x01
	if _, err := e.Unseal("swap:tenant:0", tampered); err == nil {
		t.Error("tampered multi-MB blob unsealed successfully")
	}
}

// TestSealNonceUniqueness: repeated seals of the same (label, plaintext)
// must produce distinct blobs — nonce reuse under one AES-GCM key is
// catastrophic, and a label is typically sealed under many times.
func TestSealNonceUniqueness(t *testing.T) {
	e := newTestEnclave(t)
	const seals = 256
	nonceLen := 12 // standard GCM nonce size; Seal prefixes it
	seen := make(map[string]int, seals)
	for i := 0; i < seals; i++ {
		blob, err := e.Seal("swap:worker:7", []byte("identical plaintext"))
		if err != nil {
			t.Fatalf("Seal #%d: %v", i, err)
		}
		if len(blob) < nonceLen {
			t.Fatalf("blob #%d shorter than a nonce (%d bytes)", i, len(blob))
		}
		n := string(blob[:nonceLen])
		if prev, dup := seen[n]; dup {
			t.Fatalf("nonce reused across seals #%d and #%d of the same label", prev, i)
		}
		seen[n] = i
	}
}

// TestSealKeyCacheTransparent: the per-label cache must be semantically
// invisible — the cached key equals a fresh derivation, and distinct
// labels still get distinct keys.
func TestSealKeyCacheTransparent(t *testing.T) {
	e := newTestEnclave(t)
	first := e.SealKey("cache-check")
	again := e.SealKey("cache-check") // served from the cache
	if first != again {
		t.Fatal("cached SealKey differs from first derivation")
	}
	if fresh := e.deriveSealKey("cache-check"); fresh != first {
		t.Fatal("cached SealKey differs from an uncached derivation")
	}
	if e.SealKey("cache-check") == e.SealKey("other-label") {
		t.Fatal("distinct labels yielded identical keys")
	}
}

// BenchmarkSealKey prices the per-label cache: "cached" is the SealKey
// hot path after first use, "derive" is what every Seal/Unseal paid
// before the cache (two HMAC-SHA256 passes per call).
func BenchmarkSealKey(b *testing.B) {
	e := newBenchEnclave(b)
	b.Run("cached", func(b *testing.B) {
		e.SealKey("hot-label") // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.SealKey("hot-label")
		}
	})
	b.Run("derive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = e.deriveSealKey("hot-label")
		}
	})
}

func newBenchEnclave(b *testing.B) *Enclave {
	b.Helper()
	p := NewPlatform("bench-platform")
	e, err := p.NewEnclave(TestConfig(), []byte("bench enclave"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Destroy() })
	return e
}
