package wasm

import "fmt"

// Snapshot is a frozen copy of an instance's mutable state — linear
// memory, globals and the indirect-call table — taken after the module's
// data segments and start function have run (the "ready to serve" point).
// Instantiating from a snapshot replays none of that work: the copy *is*
// the initialisation. One snapshot can stamp out any number of instances,
// which is how the serving pool (internal/core) gets cheap per-worker
// instantiation: decode, validation, AoT translation and linking happen
// once per module; a new worker costs one memory copy.
//
// A Snapshot is immutable after capture and safe to share between
// goroutines.
type Snapshot struct {
	module  *Module
	mem     []byte
	globals []uint64
	globTs  []GlobalType
	table   []int32
}

// MemBytes returns the snapshot's linear-memory size in bytes.
func (s *Snapshot) MemBytes() int { return len(s.mem) }

// Snapshot captures the instance's current mutable state. The instance
// must be quiescent (no invocation in flight).
func (in *Instance) Snapshot() *Snapshot {
	s := &Snapshot{
		module:  in.m,
		globals: append([]uint64(nil), in.globals...),
		globTs:  append([]GlobalType(nil), in.globTs...),
		table:   append([]int32(nil), in.table...),
	}
	if in.mem != nil {
		s.mem = append([]byte(nil), in.mem.data...)
	}
	return s
}

// ResetFromSnapshot restores the instance's mutable state — linear
// memory, globals and the indirect-call table — to snap, in place. It is
// the serving pool's per-request reset: every request's worker, failed or
// not, is stamped back to the golden snapshot instead of being
// re-instantiated, so it must be cheap. Resetting is exactly as strong as stamping out a new
// worker (the snapshot is the same bytes) without re-allocating the
// enclave arena, the value stack or the links. The memory's reservation
// is reused: the bytes a request grew past the snapshot are zeroed, the
// snapshot is copied over the rest, and the software EPC-TLB is dropped,
// so neither a grown page's contents nor a stale hot-page entry survives
// the reset. A reset instance is bit-identical to a fresh
// InstantiateFromSnapshot of the same snapshot, down to what a later
// memory.grow exposes and the sequence of EPC touch calls its next
// invocation performs (the properties the serve/reset cycle tests and
// TestGrowAfterResetReadsZero pin). On the hot path — an instance whose
// globals and table were sized by a prior instantiation of the same
// snapshot — the reset performs no allocation, and the immutable
// per-module global types are not copied at all. The instance must be
// quiescent (no invocation in flight).
func (in *Instance) ResetFromSnapshot(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: reset from nil snapshot", ErrValidation)
	}
	if snap.module != in.m {
		return fmt.Errorf("%w: snapshot belongs to a different module", ErrLink)
	}
	if in.mem != nil {
		if err := in.mem.restore(snap.mem); err != nil {
			return err
		}
	} else if len(snap.mem) > 0 {
		return fmt.Errorf("%w: snapshot has memory but module defines none", ErrValidation)
	}
	in.globals = append(in.globals[:0], snap.globals...)
	// globTs holds the module's global *types*, which never change after
	// instantiation; the module-identity check above guarantees they
	// already match, so the hot path skips the copy.
	in.table = append(in.table[:0], snap.table...)
	in.sp = 0
	in.depth = 0
	return nil
}

// InstantiateFromSnapshot builds a fresh instance of c whose memory,
// globals and table start as copies of snap, skipping data-segment
// replay, linking re-validation work and the start function. The snapshot
// must come from an instance of the same module.
func InstantiateFromSnapshot(c *Compiled, imports *ImportObject, snap *Snapshot, cfg Config) (*Instance, error) {
	if snap == nil {
		return Instantiate(c, imports, cfg)
	}
	if snap.module != c.Module {
		return nil, fmt.Errorf("%w: snapshot belongs to a different module", ErrLink)
	}
	in, err := newInstance(c, imports, cfg)
	if err != nil {
		return nil, err
	}
	if in.mem != nil {
		if err := in.mem.restore(snap.mem); err != nil {
			return nil, err
		}
	} else if len(snap.mem) > 0 {
		return nil, fmt.Errorf("%w: snapshot has memory but module defines none", ErrValidation)
	}
	in.globals = append([]uint64(nil), snap.globals...)
	in.globTs = append([]GlobalType(nil), snap.globTs...)
	in.table = append([]int32(nil), snap.table...)
	return in, nil
}
