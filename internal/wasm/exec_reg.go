package wasm

import (
	"math"
	"math/bits"
)

// runRegBody is the register-tier execution loop: three-address
// instructions over the frame's register file (params+locals, then the
// operand-slot homes). Plain wasm value opcodes are interpreted with dst
// in .a and sources in .b/.c; every arithmetic arm is the same Go
// expression as the stack tiers', so results are bit-identical, and every
// checked memory access goes through the same memLoad*/memStore* helpers
// (identical bounds traps and EPC touch sequences).
func (in *Instance) runRegBody(fn *compiledFunc, bp int) {
	code := fn.code
	mem := in.mem
	r := in.stack[bp:]
	pc := 0
	var retired int64

	for {
		i := &code[pc]
		retired++
		switch i.op {

		// --- moves ---
		case rOpConst:
			r[i.a] = i.imm
		case rOpCopy:
			r[i.a] = r[i.b]

		// --- control ---
		case rOpBr:
			pc = int(i.a)
			continue
		case rOpBrIf:
			if uint32(r[i.b]) != 0 {
				pc = int(i.a)
				continue
			}
		case rOpBrIfZ:
			if uint32(r[i.b]) == 0 {
				pc = int(i.a)
				continue
			}
		case rOpBrCmp:
			if i32Cmp(byte(i.imm), uint32(r[i.b]), uint32(r[i.c])) {
				pc = int(i.a)
				continue
			}
		case rOpBrCmpImm:
			if i32Cmp(byte(i.imm), uint32(r[i.b]), uint32(i.imm>>32)) {
				pc = int(i.a)
				continue
			}
		case sOpTraceEnter:
			// Superblock tier: run the compiled loop trace. Its retired
			// count includes this dispatch, which the loop top already
			// counted once.
			next, n := fn.traces[i.a](in, r, mem)
			retired += n - 1
			pc = next
			continue
		case rOpBrTable:
			idx := uint32(r[i.b])
			table := fn.brTables[i.a]
			t := table[len(table)-1]
			if int(idx) < len(table)-1 {
				t = table[idx]
			}
			if t.drop > 0 {
				top := int(i.c)
				copy(r[top-int(t.keep)-int(t.drop):top-int(t.drop)], r[top-int(t.keep):top])
			}
			pc = int(t.pc)
			continue
		case rOpReturn:
			keep := int(i.c)
			copy(r[:keep], r[i.a:int(i.a)+keep])
			in.sp = bp + keep
			in.insRetired += retired
			return
		case rOpUnreach:
			trap(TrapUnreachable, "")

		case rOpCall:
			in.sp = bp + int(i.b)
			in.invokeFunc(int(i.a))
		case rOpCallIndirect:
			elem := uint32(r[i.c])
			if int(elem) >= len(in.table) {
				trap(TrapUndefinedElem, "index %d of %d", elem, len(in.table))
			}
			target := in.table[elem]
			if target < 0 {
				trap(TrapUndefinedElem, "uninitialised element %d", elem)
			}
			want := in.m.Types[i.a]
			got, err := in.m.TypeOfFunc(uint32(target))
			if err != nil || !got.Equal(want) {
				trap(TrapIndirectType, "want %v got %v", want, got)
			}
			in.sp = bp + int(i.b)
			in.invokeFunc(int(target))

		// --- parametric ---
		case rOpSelect:
			if uint32(r[uint32(i.imm)]) != 0 {
				r[i.a] = r[i.b]
			} else {
				r[i.a] = r[i.c]
			}

		// --- globals ---
		case rOpGlobalGet:
			r[i.a] = in.globals[i.b]
		case rOpGlobalSet:
			in.globals[i.a] = r[i.b]

		// --- memory management ---
		case rOpMemSize:
			r[i.a] = uint64(mem.Pages())
		case rOpMemGrow:
			r[i.a] = uint64(uint32(mem.Grow(uint32(r[i.b]))))

		// --- checked memory ---
		case rOpLoad32U:
			r[i.a] = uint64(memLoad32(mem, r[i.b], i.imm))
		case rOpLoad64:
			r[i.a] = memLoad64(mem, r[i.b], i.imm)
		case rOpLoad8U:
			r[i.a] = uint64(memLoad8(mem, r[i.b], i.imm))
		case rOpLoad16U:
			r[i.a] = uint64(memLoad16(mem, r[i.b], i.imm))
		case rOpLoad8S32:
			r[i.a] = uint64(uint32(int32(int8(memLoad8(mem, r[i.b], i.imm)))))
		case rOpLoad16S32:
			r[i.a] = uint64(uint32(int32(int16(memLoad16(mem, r[i.b], i.imm)))))
		case rOpLoad8S64:
			r[i.a] = uint64(int64(int8(memLoad8(mem, r[i.b], i.imm))))
		case rOpLoad16S64:
			r[i.a] = uint64(int64(int16(memLoad16(mem, r[i.b], i.imm))))
		case rOpLoad32S64:
			r[i.a] = uint64(int64(int32(memLoad32(mem, r[i.b], i.imm))))
		case rOpStore8:
			memStore8(mem, r[i.a], i.imm, byte(r[i.b]))
		case rOpStore16:
			memStore16(mem, r[i.a], i.imm, uint16(r[i.b]))
		case rOpStore32:
			memStore32(mem, r[i.a], i.imm, uint32(r[i.b]))
		case rOpStore64:
			memStore64(mem, r[i.a], i.imm, r[i.b])
		case rOpStore64Imm:
			memStore64(mem, r[i.a], uint64(uint32(i.c)), i.imm)
		case rOpLoadAff64:
			addr := uint64(uint32(r[i.b])*uint32(i.imm>>32) + uint32(i.imm))
			r[i.a] = memLoad64(mem, addr, uint64(uint32(i.c)))
		case rOpLoadAff32:
			addr := uint64(uint32(r[i.b])*uint32(i.imm>>32) + uint32(i.imm))
			r[i.a] = uint64(memLoad32(mem, addr, uint64(uint32(i.c))))
		case rOpStoreAff64:
			addr := uint64(uint32(r[i.a])*uint32(i.imm>>32) + uint32(i.imm))
			memStore64(mem, addr, uint64(uint32(i.c)), r[i.b])

		// --- fused ALU ---
		case rOpI32AddImm:
			r[i.a] = uint64(uint32(r[i.b]) + uint32(i.imm))
		case rOpI32MulImm:
			r[i.a] = uint64(uint32(r[i.b]) * uint32(i.imm))
		case rOpI64AddImm:
			r[i.a] = r[i.b] + i.imm
		case rOpI32MulAdd:
			r[i.a] = uint64(uint32(r[i.b])*uint32(i.imm) + uint32(r[i.c]))
		case rOpI32MulAddII:
			r[i.a] = uint64(uint32(r[i.b])*uint32(i.imm>>32) + uint32(i.imm))
		case rOpF64MulImm:
			// c records which side the constant came from: float operand
			// order is observable via NaN payload propagation.
			if i.c != 0 {
				r[i.a] = pf64(f64(i.imm) * f64(r[i.b]))
			} else {
				r[i.a] = pf64(f64(r[i.b]) * f64(i.imm))
			}
		case rOpF64MulAdd:
			// The conversion forces the product rounding before the add
			// (no FMA contraction), exactly like opFusedF64MulAdd.
			prod := float64(f64(r[i.b]) * f64(r[i.c]))
			r[i.a] = pf64(f64(r[uint32(i.imm)]) + prod)

		// --- i32 compare ---
		case uint16(OpI32Eqz):
			r[i.a] = b2u(uint32(r[i.b]) == 0)
		case uint16(OpI32Eq):
			r[i.a] = b2u(uint32(r[i.b]) == uint32(r[i.c]))
		case uint16(OpI32Ne):
			r[i.a] = b2u(uint32(r[i.b]) != uint32(r[i.c]))
		case uint16(OpI32LtS):
			r[i.a] = b2u(int32(r[i.b]) < int32(r[i.c]))
		case uint16(OpI32LtU):
			r[i.a] = b2u(uint32(r[i.b]) < uint32(r[i.c]))
		case uint16(OpI32GtS):
			r[i.a] = b2u(int32(r[i.b]) > int32(r[i.c]))
		case uint16(OpI32GtU):
			r[i.a] = b2u(uint32(r[i.b]) > uint32(r[i.c]))
		case uint16(OpI32LeS):
			r[i.a] = b2u(int32(r[i.b]) <= int32(r[i.c]))
		case uint16(OpI32LeU):
			r[i.a] = b2u(uint32(r[i.b]) <= uint32(r[i.c]))
		case uint16(OpI32GeS):
			r[i.a] = b2u(int32(r[i.b]) >= int32(r[i.c]))
		case uint16(OpI32GeU):
			r[i.a] = b2u(uint32(r[i.b]) >= uint32(r[i.c]))

		// --- i64 compare ---
		case uint16(OpI64Eqz):
			r[i.a] = b2u(r[i.b] == 0)
		case uint16(OpI64Eq):
			r[i.a] = b2u(r[i.b] == r[i.c])
		case uint16(OpI64Ne):
			r[i.a] = b2u(r[i.b] != r[i.c])
		case uint16(OpI64LtS):
			r[i.a] = b2u(int64(r[i.b]) < int64(r[i.c]))
		case uint16(OpI64LtU):
			r[i.a] = b2u(r[i.b] < r[i.c])
		case uint16(OpI64GtS):
			r[i.a] = b2u(int64(r[i.b]) > int64(r[i.c]))
		case uint16(OpI64GtU):
			r[i.a] = b2u(r[i.b] > r[i.c])
		case uint16(OpI64LeS):
			r[i.a] = b2u(int64(r[i.b]) <= int64(r[i.c]))
		case uint16(OpI64LeU):
			r[i.a] = b2u(r[i.b] <= r[i.c])
		case uint16(OpI64GeS):
			r[i.a] = b2u(int64(r[i.b]) >= int64(r[i.c]))
		case uint16(OpI64GeU):
			r[i.a] = b2u(r[i.b] >= r[i.c])

		// --- float compare ---
		case uint16(OpF32Eq):
			r[i.a] = b2u(f32(r[i.b]) == f32(r[i.c]))
		case uint16(OpF32Ne):
			r[i.a] = b2u(f32(r[i.b]) != f32(r[i.c]))
		case uint16(OpF32Lt):
			r[i.a] = b2u(f32(r[i.b]) < f32(r[i.c]))
		case uint16(OpF32Gt):
			r[i.a] = b2u(f32(r[i.b]) > f32(r[i.c]))
		case uint16(OpF32Le):
			r[i.a] = b2u(f32(r[i.b]) <= f32(r[i.c]))
		case uint16(OpF32Ge):
			r[i.a] = b2u(f32(r[i.b]) >= f32(r[i.c]))
		case uint16(OpF64Eq):
			r[i.a] = b2u(f64(r[i.b]) == f64(r[i.c]))
		case uint16(OpF64Ne):
			r[i.a] = b2u(f64(r[i.b]) != f64(r[i.c]))
		case uint16(OpF64Lt):
			r[i.a] = b2u(f64(r[i.b]) < f64(r[i.c]))
		case uint16(OpF64Gt):
			r[i.a] = b2u(f64(r[i.b]) > f64(r[i.c]))
		case uint16(OpF64Le):
			r[i.a] = b2u(f64(r[i.b]) <= f64(r[i.c]))
		case uint16(OpF64Ge):
			r[i.a] = b2u(f64(r[i.b]) >= f64(r[i.c]))

		// --- i32 arithmetic ---
		case uint16(OpI32Clz):
			r[i.a] = uint64(bits.LeadingZeros32(uint32(r[i.b])))
		case uint16(OpI32Ctz):
			r[i.a] = uint64(bits.TrailingZeros32(uint32(r[i.b])))
		case uint16(OpI32Popcnt):
			r[i.a] = uint64(bits.OnesCount32(uint32(r[i.b])))
		case uint16(OpI32Add):
			r[i.a] = uint64(uint32(r[i.b]) + uint32(r[i.c]))
		case uint16(OpI32Sub):
			r[i.a] = uint64(uint32(r[i.b]) - uint32(r[i.c]))
		case uint16(OpI32Mul):
			r[i.a] = uint64(uint32(r[i.b]) * uint32(r[i.c]))
		case uint16(OpI32DivS):
			d := int32(r[i.c])
			n := int32(r[i.b])
			if d == 0 {
				trap(TrapDivZero, "i32.div_s")
			}
			if n == math.MinInt32 && d == -1 {
				trap(TrapIntOverflow, "i32.div_s")
			}
			r[i.a] = uint64(uint32(n / d))
		case uint16(OpI32DivU):
			d := uint32(r[i.c])
			if d == 0 {
				trap(TrapDivZero, "i32.div_u")
			}
			r[i.a] = uint64(uint32(r[i.b]) / d)
		case uint16(OpI32RemS):
			d := int32(r[i.c])
			n := int32(r[i.b])
			if d == 0 {
				trap(TrapDivZero, "i32.rem_s")
			}
			if n == math.MinInt32 && d == -1 {
				r[i.a] = 0
			} else {
				r[i.a] = uint64(uint32(n % d))
			}
		case uint16(OpI32RemU):
			d := uint32(r[i.c])
			if d == 0 {
				trap(TrapDivZero, "i32.rem_u")
			}
			r[i.a] = uint64(uint32(r[i.b]) % d)
		case uint16(OpI32And):
			r[i.a] = r[i.b] & r[i.c]
		case uint16(OpI32Or):
			r[i.a] = r[i.b] | r[i.c]
		case uint16(OpI32Xor):
			r[i.a] = r[i.b] ^ r[i.c]
		case uint16(OpI32Shl):
			r[i.a] = uint64(uint32(r[i.b]) << (uint32(r[i.c]) & 31))
		case uint16(OpI32ShrS):
			r[i.a] = uint64(uint32(int32(r[i.b]) >> (uint32(r[i.c]) & 31)))
		case uint16(OpI32ShrU):
			r[i.a] = uint64(uint32(r[i.b]) >> (uint32(r[i.c]) & 31))
		case uint16(OpI32Rotl):
			r[i.a] = uint64(bits.RotateLeft32(uint32(r[i.b]), int(uint32(r[i.c])&31)))
		case uint16(OpI32Rotr):
			r[i.a] = uint64(bits.RotateLeft32(uint32(r[i.b]), -int(uint32(r[i.c])&31)))

		// --- i64 arithmetic ---
		case uint16(OpI64Clz):
			r[i.a] = uint64(bits.LeadingZeros64(r[i.b]))
		case uint16(OpI64Ctz):
			r[i.a] = uint64(bits.TrailingZeros64(r[i.b]))
		case uint16(OpI64Popcnt):
			r[i.a] = uint64(bits.OnesCount64(r[i.b]))
		case uint16(OpI64Add):
			r[i.a] = r[i.b] + r[i.c]
		case uint16(OpI64Sub):
			r[i.a] = r[i.b] - r[i.c]
		case uint16(OpI64Mul):
			r[i.a] = r[i.b] * r[i.c]
		case uint16(OpI64DivS):
			d := int64(r[i.c])
			n := int64(r[i.b])
			if d == 0 {
				trap(TrapDivZero, "i64.div_s")
			}
			if n == math.MinInt64 && d == -1 {
				trap(TrapIntOverflow, "i64.div_s")
			}
			r[i.a] = uint64(n / d)
		case uint16(OpI64DivU):
			if r[i.c] == 0 {
				trap(TrapDivZero, "i64.div_u")
			}
			r[i.a] = r[i.b] / r[i.c]
		case uint16(OpI64RemS):
			d := int64(r[i.c])
			n := int64(r[i.b])
			if d == 0 {
				trap(TrapDivZero, "i64.rem_s")
			}
			if n == math.MinInt64 && d == -1 {
				r[i.a] = 0
			} else {
				r[i.a] = uint64(n % d)
			}
		case uint16(OpI64RemU):
			if r[i.c] == 0 {
				trap(TrapDivZero, "i64.rem_u")
			}
			r[i.a] = r[i.b] % r[i.c]
		case uint16(OpI64And):
			r[i.a] = r[i.b] & r[i.c]
		case uint16(OpI64Or):
			r[i.a] = r[i.b] | r[i.c]
		case uint16(OpI64Xor):
			r[i.a] = r[i.b] ^ r[i.c]
		case uint16(OpI64Shl):
			r[i.a] = r[i.b] << (r[i.c] & 63)
		case uint16(OpI64ShrS):
			r[i.a] = uint64(int64(r[i.b]) >> (r[i.c] & 63))
		case uint16(OpI64ShrU):
			r[i.a] = r[i.b] >> (r[i.c] & 63)
		case uint16(OpI64Rotl):
			r[i.a] = bits.RotateLeft64(r[i.b], int(r[i.c]&63))
		case uint16(OpI64Rotr):
			r[i.a] = bits.RotateLeft64(r[i.b], -int(r[i.c]&63))

		// --- f64 arithmetic (hot PolyBench arms first) ---
		case uint16(OpF64Add):
			r[i.a] = pf64(f64(r[i.b]) + f64(r[i.c]))
		case uint16(OpF64Sub):
			r[i.a] = pf64(f64(r[i.b]) - f64(r[i.c]))
		case uint16(OpF64Mul):
			r[i.a] = pf64(f64(r[i.b]) * f64(r[i.c]))
		case uint16(OpF64Div):
			r[i.a] = pf64(f64(r[i.b]) / f64(r[i.c]))
		case uint16(OpF64Min):
			r[i.a] = pf64(math.Min(f64(r[i.b]), f64(r[i.c])))
		case uint16(OpF64Max):
			r[i.a] = pf64(math.Max(f64(r[i.b]), f64(r[i.c])))
		case uint16(OpF64Copysign):
			r[i.a] = pf64(math.Copysign(f64(r[i.b]), f64(r[i.c])))
		case uint16(OpF64Abs):
			r[i.a] = r[i.b] &^ (1 << 63)
		case uint16(OpF64Neg):
			r[i.a] = r[i.b] ^ (1 << 63)
		case uint16(OpF64Ceil):
			r[i.a] = pf64(math.Ceil(f64(r[i.b])))
		case uint16(OpF64Floor):
			r[i.a] = pf64(math.Floor(f64(r[i.b])))
		case uint16(OpF64Trunc):
			r[i.a] = pf64(math.Trunc(f64(r[i.b])))
		case uint16(OpF64Nearest):
			r[i.a] = pf64(math.RoundToEven(f64(r[i.b])))
		case uint16(OpF64Sqrt):
			r[i.a] = pf64(math.Sqrt(f64(r[i.b])))

		// --- f32 arithmetic ---
		case uint16(OpF32Add):
			r[i.a] = pf32(f32(r[i.b]) + f32(r[i.c]))
		case uint16(OpF32Sub):
			r[i.a] = pf32(f32(r[i.b]) - f32(r[i.c]))
		case uint16(OpF32Mul):
			r[i.a] = pf32(f32(r[i.b]) * f32(r[i.c]))
		case uint16(OpF32Div):
			r[i.a] = pf32(f32(r[i.b]) / f32(r[i.c]))
		case uint16(OpF32Min):
			r[i.a] = pf32(float32(math.Min(float64(f32(r[i.b])), float64(f32(r[i.c])))))
		case uint16(OpF32Max):
			r[i.a] = pf32(float32(math.Max(float64(f32(r[i.b])), float64(f32(r[i.c])))))
		case uint16(OpF32Copysign):
			r[i.a] = pf32(float32(math.Copysign(float64(f32(r[i.b])), float64(f32(r[i.c])))))
		case uint16(OpF32Abs):
			r[i.a] = pf32(float32(math.Abs(float64(f32(r[i.b])))))
		case uint16(OpF32Neg):
			r[i.a] = r[i.b] ^ 0x80000000
		case uint16(OpF32Ceil):
			r[i.a] = pf32(float32(math.Ceil(float64(f32(r[i.b])))))
		case uint16(OpF32Floor):
			r[i.a] = pf32(float32(math.Floor(float64(f32(r[i.b])))))
		case uint16(OpF32Trunc):
			r[i.a] = pf32(float32(math.Trunc(float64(f32(r[i.b])))))
		case uint16(OpF32Nearest):
			r[i.a] = pf32(float32(math.RoundToEven(float64(f32(r[i.b])))))
		case uint16(OpF32Sqrt):
			r[i.a] = pf32(float32(math.Sqrt(float64(f32(r[i.b])))))

		// --- conversions ---
		case uint16(OpI32WrapI64):
			r[i.a] = uint64(uint32(r[i.b]))
		case uint16(OpI32TruncF32S):
			r[i.a] = uint64(uint32(truncS32(float64(f32(r[i.b])))))
		case uint16(OpI32TruncF32U):
			r[i.a] = uint64(truncU32(float64(f32(r[i.b]))))
		case uint16(OpI32TruncF64S):
			r[i.a] = uint64(uint32(truncS32(f64(r[i.b]))))
		case uint16(OpI32TruncF64U):
			r[i.a] = uint64(truncU32(f64(r[i.b])))
		case uint16(OpI64ExtendI32S):
			r[i.a] = uint64(int64(int32(r[i.b])))
		case uint16(OpI64ExtendI32U):
			r[i.a] = uint64(uint32(r[i.b]))
		case uint16(OpI64TruncF32S):
			r[i.a] = uint64(truncS64(float64(f32(r[i.b]))))
		case uint16(OpI64TruncF32U):
			r[i.a] = truncU64(float64(f32(r[i.b])))
		case uint16(OpI64TruncF64S):
			r[i.a] = uint64(truncS64(f64(r[i.b])))
		case uint16(OpI64TruncF64U):
			r[i.a] = truncU64(f64(r[i.b]))
		case uint16(OpF32ConvertI32S):
			r[i.a] = pf32(float32(int32(r[i.b])))
		case uint16(OpF32ConvertI32U):
			r[i.a] = pf32(float32(uint32(r[i.b])))
		case uint16(OpF32ConvertI64S):
			r[i.a] = pf32(float32(int64(r[i.b])))
		case uint16(OpF32ConvertI64U):
			r[i.a] = pf32(float32(r[i.b]))
		case uint16(OpF32DemoteF64):
			r[i.a] = pf32(float32(f64(r[i.b])))
		case uint16(OpF64ConvertI32S):
			r[i.a] = pf64(float64(int32(r[i.b])))
		case uint16(OpF64ConvertI32U):
			r[i.a] = pf64(float64(uint32(r[i.b])))
		case uint16(OpF64ConvertI64S):
			r[i.a] = pf64(float64(int64(r[i.b])))
		case uint16(OpF64ConvertI64U):
			r[i.a] = pf64(float64(r[i.b]))
		case uint16(OpF64PromoteF32):
			r[i.a] = pf64(float64(f32(r[i.b])))
		case uint16(OpI32ReinterpretF32), uint16(OpI64ReinterpretF64),
			uint16(OpF32ReinterpretI32), uint16(OpF64ReinterpretI64):
			r[i.a] = r[i.b]

		// --- sign extension ---
		case uint16(OpI32Extend8S):
			r[i.a] = uint64(uint32(int32(int8(r[i.b]))))
		case uint16(OpI32Extend16S):
			r[i.a] = uint64(uint32(int32(int16(r[i.b]))))
		case uint16(OpI64Extend8S):
			r[i.a] = uint64(int64(int8(r[i.b])))
		case uint16(OpI64Extend16S):
			r[i.a] = uint64(int64(int16(r[i.b])))
		case uint16(OpI64Extend32S):
			r[i.a] = uint64(int64(int32(r[i.b])))

		default:
			trap(TrapUnreachable, "bad register opcode 0x%x", i.op)
		}
		pc++
	}
}
