package wasm

import "math/bits"

// regops.go — opcode classification and translation-time evaluation for
// the register tier. The fold tables are integer-only and exclude every
// trapping operation: div/rem can trap on the value, and float arithmetic
// is never folded so that all float results come from the exact same
// runtime code paths on every tier (no chance of a compile-time rounding
// or NaN-bit divergence).

// regBinaryOp reports whether op is a plain wasm binary value opcode
// (two operands, one result) reused three-address by the register tier.
func regBinaryOp(op uint16) bool {
	if op >= 0x100 {
		return false
	}
	b := byte(op)
	switch {
	case b >= OpI32Eq && b <= OpI32GeU: // i32 compares
		return true
	case b >= OpI64Eq && b <= OpI64GeU: // i64 compares
		return true
	case b >= OpF32Eq && b <= OpF64Ge: // float compares
		return true
	case b >= OpI32Add && b <= OpI32Rotr:
		return true
	case b >= OpI64Add && b <= OpI64Rotr:
		return true
	case b >= OpF32Add && b <= OpF32Copysign:
		return true
	case b >= OpF64Add && b <= OpF64Copysign:
		return true
	}
	return false
}

// regUnaryOp reports whether op is a plain wasm unary value opcode
// (one operand, one result), including all conversions.
func regUnaryOp(op uint16) bool {
	if op >= 0x100 {
		return false
	}
	b := byte(op)
	switch {
	case b == OpI32Eqz || b == OpI64Eqz:
		return true
	case b >= OpI32Clz && b <= OpI32Popcnt:
		return true
	case b >= OpI64Clz && b <= OpI64Popcnt:
		return true
	case b >= OpF32Abs && b <= OpF32Sqrt:
		return true
	case b >= OpF64Abs && b <= OpF64Sqrt:
		return true
	case b >= OpI32WrapI64 && b <= OpI64Extend32S: // conversions + sign extends
		return true
	}
	return false
}

// regPure reports whether op's value depends only on its register
// operands (safe for local value numbering). Trapping ops are excluded so
// CSE can never elide a trap.
func regPure(op uint16) bool {
	if !regBinaryOp(op) && !regUnaryOp(op) {
		return false
	}
	switch byte(op) {
	case OpI32DivS, OpI32DivU, OpI32RemS, OpI32RemU,
		OpI64DivS, OpI64DivU, OpI64RemS, OpI64RemU,
		OpI32TruncF32S, OpI32TruncF32U, OpI32TruncF64S, OpI32TruncF64U,
		OpI64TruncF32S, OpI64TruncF32U, OpI64TruncF64S, OpI64TruncF64U:
		return false
	}
	return true
}

// regSideEffectFree reports instructions DSE may remove outright.
func regSideEffectFree(op uint16) bool {
	switch op {
	case rOpConst, rOpCopy, rOpSelect,
		rOpI32AddImm, rOpI32MulImm, rOpI64AddImm,
		rOpI32MulAdd, rOpI32MulAddII, rOpF64MulAdd, rOpF64MulImm:
		return true
	}
	return regPure(op)
}

// regCommutative reports operand-order-insensitive ops (for LVN keys).
func regCommutative(op uint16) bool {
	switch byte(op) {
	case OpI32Add, OpI32Mul, OpI32And, OpI32Or, OpI32Xor, OpI32Eq, OpI32Ne,
		OpI64Add, OpI64Mul, OpI64And, OpI64Or, OpI64Xor, OpI64Eq, OpI64Ne:
		return op < 0x100
	}
	return false
}

// regRetargetable reports instructions whose dst (.a) can be redirected
// into a local register by the local.set peephole.
func regRetargetable(op uint16) bool {
	switch op {
	case rOpConst, rOpCopy, rOpGlobalGet, rOpSelect,
		rOpI32AddImm, rOpI32MulImm, rOpI64AddImm,
		rOpI32MulAdd, rOpI32MulAddII, rOpF64MulAdd, rOpF64MulImm,
		rOpLoad32U, rOpLoad64, rOpLoad8U, rOpLoad16U, rOpLoad8S32,
		rOpLoad16S32, rOpLoad8S64, rOpLoad16S64, rOpLoad32S64,
		rOpLoadAff64, rOpLoadAff32:
		return true
	}
	return regBinaryOp(op) || regUnaryOp(op)
}

// isI32CmpOp reports the ten i32 comparison opcodes (BrCmp fusion).
func isI32CmpOp(op uint16) bool {
	return op >= uint16(OpI32Eq) && op <= uint16(OpI32GeU)
}

// negCmpOp returns the complement comparison (for br_if_z fusion).
func negCmpOp(op byte) byte {
	switch op {
	case OpI32Eq:
		return OpI32Ne
	case OpI32Ne:
		return OpI32Eq
	case OpI32LtS:
		return OpI32GeS
	case OpI32LtU:
		return OpI32GeU
	case OpI32GtS:
		return OpI32LeS
	case OpI32GtU:
		return OpI32LeU
	case OpI32LeS:
		return OpI32GtS
	case OpI32LeU:
		return OpI32GtU
	case OpI32GeS:
		return OpI32LtS
	case OpI32GeU:
		return OpI32LtU
	}
	return op
}

// i32Cmp evaluates an i32 comparison opcode (shared by the translator's
// folder and the fused compare-and-branch dispatch).
func i32Cmp(op byte, a, b uint32) bool {
	switch op {
	case OpI32Eq:
		return a == b
	case OpI32Ne:
		return a != b
	case OpI32LtS:
		return int32(a) < int32(b)
	case OpI32LtU:
		return a < b
	case OpI32GtS:
		return int32(a) > int32(b)
	case OpI32GtU:
		return a > b
	case OpI32LeS:
		return int32(a) <= int32(b)
	case OpI32LeU:
		return a <= b
	case OpI32GeS:
		return int32(a) >= int32(b)
	case OpI32GeU:
		return a >= b
	}
	return false
}

// foldBinary evaluates an integer binary op on literals at translation
// time. It mirrors the exec arms exactly. Trapping ops and every float
// op return false.
func foldBinary(op uint16, x, y uint64) (uint64, bool) {
	if op >= 0x100 {
		return 0, false
	}
	b := byte(op)
	if b >= OpI32Eq && b <= OpI32GeU {
		return b2u(i32Cmp(b, uint32(x), uint32(y))), true
	}
	switch b {
	case OpI64Eq:
		return b2u(x == y), true
	case OpI64Ne:
		return b2u(x != y), true
	case OpI64LtS:
		return b2u(int64(x) < int64(y)), true
	case OpI64LtU:
		return b2u(x < y), true
	case OpI64GtS:
		return b2u(int64(x) > int64(y)), true
	case OpI64GtU:
		return b2u(x > y), true
	case OpI64LeS:
		return b2u(int64(x) <= int64(y)), true
	case OpI64LeU:
		return b2u(x <= y), true
	case OpI64GeS:
		return b2u(int64(x) >= int64(y)), true
	case OpI64GeU:
		return b2u(x >= y), true

	case OpI32Add:
		return uint64(uint32(x) + uint32(y)), true
	case OpI32Sub:
		return uint64(uint32(x) - uint32(y)), true
	case OpI32Mul:
		return uint64(uint32(x) * uint32(y)), true
	case OpI32And:
		return x & y, true
	case OpI32Or:
		return x | y, true
	case OpI32Xor:
		return x ^ y, true
	case OpI32Shl:
		return uint64(uint32(x) << (uint32(y) & 31)), true
	case OpI32ShrS:
		return uint64(uint32(int32(x) >> (uint32(y) & 31))), true
	case OpI32ShrU:
		return uint64(uint32(x) >> (uint32(y) & 31)), true
	case OpI32Rotl:
		return uint64(bits.RotateLeft32(uint32(x), int(uint32(y)&31))), true
	case OpI32Rotr:
		return uint64(bits.RotateLeft32(uint32(x), -int(uint32(y)&31))), true

	case OpI64Add:
		return x + y, true
	case OpI64Sub:
		return x - y, true
	case OpI64Mul:
		return x * y, true
	case OpI64And:
		return x & y, true
	case OpI64Or:
		return x | y, true
	case OpI64Xor:
		return x ^ y, true
	case OpI64Shl:
		return x << (y & 63), true
	case OpI64ShrS:
		return uint64(int64(x) >> (y & 63)), true
	case OpI64ShrU:
		return x >> (y & 63), true
	case OpI64Rotl:
		return bits.RotateLeft64(x, int(y&63)), true
	case OpI64Rotr:
		return bits.RotateLeft64(x, -int(y&63)), true
	}
	return 0, false
}

// foldUnary evaluates an integer unary op on a literal. Conversions that
// touch floats (and trapping truncations) are never folded.
func foldUnary(op uint16, x uint64) (uint64, bool) {
	if op >= 0x100 {
		return 0, false
	}
	switch byte(op) {
	case OpI32Eqz:
		return b2u(uint32(x) == 0), true
	case OpI64Eqz:
		return b2u(x == 0), true
	case OpI32Clz:
		return uint64(bits.LeadingZeros32(uint32(x))), true
	case OpI32Ctz:
		return uint64(bits.TrailingZeros32(uint32(x))), true
	case OpI32Popcnt:
		return uint64(bits.OnesCount32(uint32(x))), true
	case OpI64Clz:
		return uint64(bits.LeadingZeros64(x)), true
	case OpI64Ctz:
		return uint64(bits.TrailingZeros64(x)), true
	case OpI64Popcnt:
		return uint64(bits.OnesCount64(x)), true
	case OpI32WrapI64:
		return uint64(uint32(x)), true
	case OpI64ExtendI32S:
		return uint64(int64(int32(x))), true
	case OpI64ExtendI32U:
		return uint64(uint32(x)), true
	case OpI32Extend8S:
		return uint64(uint32(int32(int8(x)))), true
	case OpI32Extend16S:
		return uint64(uint32(int32(int16(x)))), true
	case OpI64Extend8S:
		return uint64(int64(int8(x))), true
	case OpI64Extend16S:
		return uint64(int64(int16(x))), true
	case OpI64Extend32S:
		return uint64(int64(int32(x))), true
	}
	return 0, false
}
