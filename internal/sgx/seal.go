package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
)

// Sealing keys. On real SGX, every processor carries a fused secret from
// which enclave-specific sealing keys are derived; data sealed by an
// enclave can only be unsealed by the same enclave identity on the same
// processor. The paper's IPFS relies on exactly this (§IV-E), including
// its limitation: a key generated by a specific enclave on a given
// processor cannot be regenerated elsewhere.

// deriveSealRoot binds the platform root secret to an enclave measurement.
func (p *Platform) deriveSealRoot(measurement [32]byte) [32]byte {
	return hkdf(p.rootKey[:], measurement[:], []byte("seal-root"))
}

// SealKey derives a purpose-specific 32-byte key from the enclave's seal
// root. Identical (platform, enclave code, label) triples yield identical
// keys; anything else differs.
//
// Derivation is memoised per label: the inputs are fixed for the
// enclave's lifetime, so the first call per label pays the HKDF and every
// further Seal/Unseal under that label is a map lookup (see
// BenchmarkSealKey for the win).
func (e *Enclave) SealKey(label string) [32]byte {
	e.sealMu.RLock()
	k, ok := e.sealKeys[label]
	e.sealMu.RUnlock()
	if ok {
		return k
	}
	k = e.deriveSealKey(label)
	e.sealMu.Lock()
	if e.sealKeys == nil {
		e.sealKeys = make(map[string][32]byte)
	}
	e.sealKeys[label] = k
	e.sealMu.Unlock()
	return k
}

// deriveSealKey is the uncached derivation behind SealKey.
func (e *Enclave) deriveSealKey(label string) [32]byte {
	return hkdf(e.sealRoot[:], nil, []byte("seal-key:"+label))
}

// Seal encrypts plaintext under the enclave's sealing key for the given
// label using AES-256-GCM with a random nonce. The output is
// nonce || ciphertext+tag.
func (e *Enclave) Seal(label string, plaintext []byte) ([]byte, error) {
	key := e.SealKey(label)
	aead, err := newGCM(key[:])
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return aead.Seal(nonce, nonce, plaintext, []byte(label)), nil
}

// Unseal reverses Seal. It fails if the blob was sealed by a different
// enclave identity, on a different platform, under a different label, or
// was tampered with.
func (e *Enclave) Unseal(label string, blob []byte) ([]byte, error) {
	key := e.SealKey(label)
	aead, err := newGCM(key[:])
	if err != nil {
		return nil, err
	}
	if len(blob) < aead.NonceSize() {
		return nil, fmt.Errorf("sgx: sealed blob too short (%d bytes)", len(blob))
	}
	nonce, ct := blob[:aead.NonceSize()], blob[aead.NonceSize():]
	pt, err := aead.Open(nil, nonce, ct, []byte(label))
	if err != nil {
		return nil, fmt.Errorf("sgx: unseal: %w", err)
	}
	return pt, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// hkdf is a single-block HKDF-SHA256 (extract-then-expand), sufficient for
// 32-byte outputs.
func hkdf(secret, salt, info []byte) [32]byte {
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)

	exp := hmac.New(sha256.New, prk)
	exp.Write(info)
	exp.Write([]byte{1})
	var out [32]byte
	copy(out[:], exp.Sum(nil))
	return out
}
