package sgx

import "fmt"

// Perm is a reserved-memory page permission.
type Perm int

const (
	// PermRW allows writing the region (code loading phase).
	PermRW Perm = iota
	// PermRX allows executing/reading but no longer writing (locked).
	PermRX
)

// Reserved models the SGX "reserved memory" feature the paper uses to load
// Wasm AoT code into a running enclave (§IV-B): a region whose page
// permissions can be flipped from writable to executable, so arbitrary
// code received over a secure channel never leaves enclave memory.
type Reserved struct {
	mem  *Memory
	size int64
	used int64
	perm Perm
}

func newReserved(mem *Memory, size int64) *Reserved {
	mem.reservedBytes = size
	return &Reserved{mem: mem, size: size, perm: PermRW}
}

// Size returns the capacity of the reserved region in bytes.
func (r *Reserved) Size() int64 { return r.size }

// Used returns the number of bytes loaded so far.
func (r *Reserved) Used() int64 { return r.used }

// Perm returns the region's current permission.
func (r *Reserved) Perm() Perm { return r.perm }

// Load appends code to the region while it is writable and returns the
// offset at which it was placed.
func (r *Reserved) Load(code []byte) (int64, error) {
	if r.perm != PermRW {
		return 0, fmt.Errorf("%w: region is execute-only", ErrPerm)
	}
	if r.used+int64(len(code)) > r.size {
		return 0, fmt.Errorf("%w: reserved region full (%d of %d bytes used)", ErrOutOfMemory, r.used, r.size)
	}
	off := r.used
	if err := r.mem.Write(off, code); err != nil {
		return 0, err
	}
	r.used += int64(len(code))
	return off, nil
}

// Protect flips the region's permission. Moving to PermRX locks the region
// against further loads; moving back to PermRW is allowed (SGX2 EMODPE
// semantics) and clears nothing.
func (r *Reserved) Protect(p Perm) {
	r.perm = p
}

// Bytes returns a read view of the loaded code at off with length n. Like
// Memory.Slice, it is valid only while the enclave is reachable and not
// destroyed.
func (r *Reserved) Bytes(off, n int64) ([]byte, error) {
	if off < 0 || off+n > r.used {
		return nil, fmt.Errorf("%w: reserved read [%d,%d) of %d", ErrBounds, off, off+n, r.used)
	}
	return r.mem.Slice(off, n)
}
