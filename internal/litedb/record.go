package litedb

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Record format, following SQLite's design: a header of varints (header
// length, then one serial type per column) followed by the column bodies.
//
// Serial types:
//
//	0        NULL
//	1..6     big-endian signed integers of 1,2,3,4,6,8 bytes
//	7        IEEE-754 float64
//	8, 9     literal integers 0 and 1
//	N>=12 even  BLOB of (N-12)/2 bytes
//	N>=13 odd   TEXT of (N-13)/2 bytes

// putUvarint appends SQLite-style varints (we use the Go uvarint encoding,
// which serves the same purpose with the same asymptotics).
func putUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func serialTypeOf(v Value) (typ uint64, size int) {
	switch v.typ {
	case Null:
		return 0, 0
	case Integer:
		switch i := v.i; {
		case i == 0:
			return 8, 0
		case i == 1:
			return 9, 0
		case i >= math.MinInt8 && i <= math.MaxInt8:
			return 1, 1
		case i >= math.MinInt16 && i <= math.MaxInt16:
			return 2, 2
		case i >= -(1<<23) && i < 1<<23:
			return 3, 3
		case i >= math.MinInt32 && i <= math.MaxInt32:
			return 4, 4
		case i >= -(1<<47) && i < 1<<47:
			return 5, 6
		default:
			return 6, 8
		}
	case Real:
		return 7, 8
	case Blob:
		return uint64(12 + 2*len(v.b)), len(v.b)
	default: // Text
		return uint64(13 + 2*len(v.s)), len(v.s)
	}
}

// EncodeRecord serialises a row into dst (appended) and returns it.
func EncodeRecord(dst []byte, row []Value) []byte {
	var hdr [10 * 12]byte
	hdrBuf := hdr[:0]
	for _, v := range row {
		st, _ := serialTypeOf(v)
		hdrBuf = putUvarint(hdrBuf, st)
	}
	// Header length includes its own varint; iterate to fixpoint (the
	// length varint rarely changes size).
	hl := len(hdrBuf) + 1
	for {
		if n := uvarintLen(uint64(hl)); n+len(hdrBuf) == hl {
			break
		} else {
			hl = n + len(hdrBuf)
		}
	}
	dst = putUvarint(dst, uint64(hl))
	dst = append(dst, hdrBuf...)
	for _, v := range row {
		st, size := serialTypeOf(v)
		switch {
		case st == 0 || st == 8 || st == 9:
		case st >= 1 && st <= 6:
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], uint64(v.i))
			dst = append(dst, tmp[8-size:]...)
		case st == 7:
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v.f))
			dst = append(dst, tmp[:]...)
		case st >= 13 && st%2 == 1:
			dst = append(dst, v.s...)
		default:
			dst = append(dst, v.b...)
		}
	}
	return dst
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeRecord parses a serialised row. Text and blob values alias buf.
func DecodeRecord(buf []byte) ([]Value, error) {
	hl, n := binary.Uvarint(buf)
	if n <= 0 || hl > uint64(len(buf)) || hl < uint64(n) {
		return nil, fmt.Errorf("litedb: corrupt record header")
	}
	hdr := buf[n:hl]
	body := buf[hl:]
	var row []Value
	for len(hdr) > 0 {
		st, sn := binary.Uvarint(hdr)
		if sn <= 0 {
			return nil, fmt.Errorf("litedb: corrupt serial type")
		}
		hdr = hdr[sn:]
		v, size, err := decodeSerial(st, body)
		if err != nil {
			return nil, err
		}
		body = body[size:]
		row = append(row, v)
	}
	return row, nil
}

// intSizes is the body size of integer serial types 1..6.
var intSizes = [7]int{0, 1, 2, 3, 4, 6, 8}

// serialSize returns the body size of serial type st, and false for a
// type no record holds.
func serialSize(st uint64) (uint64, bool) {
	switch {
	case st == 0 || st == 8 || st == 9:
		return 0, true
	case st >= 1 && st <= 6:
		return uint64(intSizes[st]), true
	case st == 7:
		return 8, true
	case st >= 12:
		return (st - 12) / 2, true // (st-13)/2 for odd (TEXT) st
	default:
		return 0, false
	}
}

func decodeSerial(st uint64, body []byte) (Value, int, error) {
	usize, ok := serialSize(st)
	if !ok {
		return Value{}, 0, fmt.Errorf("litedb: unknown serial type %d", st)
	}
	if usize > uint64(len(body)) {
		return Value{}, 0, fmt.Errorf("litedb: truncated record body")
	}
	size := int(usize)
	switch {
	case st == 0:
		return NullVal(), 0, nil
	case st == 8:
		return IntVal(0), 0, nil
	case st == 9:
		return IntVal(1), 0, nil
	case st <= 6:
		var v int64
		for i := 0; i < size; i++ {
			v = v<<8 | int64(body[i])
		}
		// Sign-extend.
		shift := uint(64 - 8*size)
		v = v << shift >> shift
		return IntVal(v), size, nil
	case st == 7:
		return RealVal(math.Float64frombits(binary.BigEndian.Uint64(body))), 8, nil
	case st%2 == 0:
		return BlobVal(body[:size:size]), size, nil
	default:
		return TextVal(string(body[:size])), size, nil
	}
}

// CompareRecords orders two serialised rows without fully materialising
// them (used for index keys, where the last column is the rowid
// tiebreaker).
func CompareRecords(a, b []byte) int {
	ra, errA := DecodeRecord(a)
	rb, errB := DecodeRecord(b)
	if errA != nil || errB != nil {
		return compareBytes(a, b)
	}
	return CompareRows(ra, rb, nil)
}
