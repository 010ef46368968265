package wasm

import (
	"errors"
	"fmt"
)

// LEB128 primitives shared by the decoder (and mirrored by the public
// wasmgen emitter).

var errLEBOverflow = errors.New("wasm: LEB128 value overflows target type")

// reader is a cursor over the module bytes.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) len() int   { return len(r.buf) - r.pos }
func (r *reader) done() bool { return r.pos >= len(r.buf) }

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errUnexpectedEOF
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, errUnexpectedEOF
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

var errUnexpectedEOF = errors.New("wasm: unexpected end of section or function")

// uleb decodes an unsigned LEB128 integer of at most bits bits.
func (r *reader) uleb(bits int) (uint64, error) {
	var result uint64
	var shift uint
	for {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		if shift+7 > uint(bits) && b>>(uint(bits)-shift) != 0 {
			return 0, fmt.Errorf("%w (u%d)", errLEBOverflow, bits)
		}
		result |= uint64(b&0x7F) << shift
		if b&0x80 == 0 {
			return result, nil
		}
		shift += 7
		if shift >= uint(bits)+7 {
			return 0, fmt.Errorf("%w (u%d)", errLEBOverflow, bits)
		}
	}
}

// sleb decodes a signed LEB128 integer of at most bits bits.
func (r *reader) sleb(bits int) (int64, error) {
	var result int64
	var shift uint
	for {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		result |= int64(b&0x7F) << shift
		shift += 7
		if b&0x80 == 0 {
			// Sign-extend.
			if shift < 64 && b&0x40 != 0 {
				result |= -1 << shift
			}
			// Range check.
			if bits < 64 {
				min := int64(-1) << (uint(bits) - 1)
				max := int64(1)<<(uint(bits)-1) - 1
				if result < min || result > max {
					return 0, fmt.Errorf("%w (s%d)", errLEBOverflow, bits)
				}
			}
			return result, nil
		}
		if shift >= 64+7 {
			return 0, fmt.Errorf("%w (s%d)", errLEBOverflow, bits)
		}
	}
}

func (r *reader) u32() (uint32, error) {
	v, err := r.uleb(32)
	return uint32(v), err
}

func (r *reader) name() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
