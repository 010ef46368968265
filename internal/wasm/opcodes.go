package wasm

// WebAssembly MVP opcodes (binary encodings). The compiler lowers some of
// these away (structured control) and the AoT engine introduces fused
// superinstructions in the 0x200+ range.
const (
	OpUnreachable  = 0x00
	OpNop          = 0x01
	OpBlock        = 0x02
	OpLoop         = 0x03
	OpIf           = 0x04
	OpElse         = 0x05
	OpEnd          = 0x0B
	OpBr           = 0x0C
	OpBrIf         = 0x0D
	OpBrTable      = 0x0E
	OpReturn       = 0x0F
	OpCall         = 0x10
	OpCallIndirect = 0x11

	OpDrop   = 0x1A
	OpSelect = 0x1B

	OpLocalGet  = 0x20
	OpLocalSet  = 0x21
	OpLocalTee  = 0x22
	OpGlobalGet = 0x23
	OpGlobalSet = 0x24

	OpI32Load    = 0x28
	OpI64Load    = 0x29
	OpF32Load    = 0x2A
	OpF64Load    = 0x2B
	OpI32Load8S  = 0x2C
	OpI32Load8U  = 0x2D
	OpI32Load16S = 0x2E
	OpI32Load16U = 0x2F
	OpI64Load8S  = 0x30
	OpI64Load8U  = 0x31
	OpI64Load16S = 0x32
	OpI64Load16U = 0x33
	OpI64Load32S = 0x34
	OpI64Load32U = 0x35
	OpI32Store   = 0x36
	OpI64Store   = 0x37
	OpF32Store   = 0x38
	OpF64Store   = 0x39
	OpI32Store8  = 0x3A
	OpI32Store16 = 0x3B
	OpI64Store8  = 0x3C
	OpI64Store16 = 0x3D
	OpI64Store32 = 0x3E
	OpMemorySize = 0x3F
	OpMemoryGrow = 0x40

	OpI32Const = 0x41
	OpI64Const = 0x42
	OpF32Const = 0x43
	OpF64Const = 0x44

	OpI32Eqz = 0x45
	OpI32Eq  = 0x46
	OpI32Ne  = 0x47
	OpI32LtS = 0x48
	OpI32LtU = 0x49
	OpI32GtS = 0x4A
	OpI32GtU = 0x4B
	OpI32LeS = 0x4C
	OpI32LeU = 0x4D
	OpI32GeS = 0x4E
	OpI32GeU = 0x4F

	OpI64Eqz = 0x50
	OpI64Eq  = 0x51
	OpI64Ne  = 0x52
	OpI64LtS = 0x53
	OpI64LtU = 0x54
	OpI64GtS = 0x55
	OpI64GtU = 0x56
	OpI64LeS = 0x57
	OpI64LeU = 0x58
	OpI64GeS = 0x59
	OpI64GeU = 0x5A

	OpF32Eq = 0x5B
	OpF32Ne = 0x5C
	OpF32Lt = 0x5D
	OpF32Gt = 0x5E
	OpF32Le = 0x5F
	OpF32Ge = 0x60

	OpF64Eq = 0x61
	OpF64Ne = 0x62
	OpF64Lt = 0x63
	OpF64Gt = 0x64
	OpF64Le = 0x65
	OpF64Ge = 0x66

	OpI32Clz    = 0x67
	OpI32Ctz    = 0x68
	OpI32Popcnt = 0x69
	OpI32Add    = 0x6A
	OpI32Sub    = 0x6B
	OpI32Mul    = 0x6C
	OpI32DivS   = 0x6D
	OpI32DivU   = 0x6E
	OpI32RemS   = 0x6F
	OpI32RemU   = 0x70
	OpI32And    = 0x71
	OpI32Or     = 0x72
	OpI32Xor    = 0x73
	OpI32Shl    = 0x74
	OpI32ShrS   = 0x75
	OpI32ShrU   = 0x76
	OpI32Rotl   = 0x77
	OpI32Rotr   = 0x78

	OpI64Clz    = 0x79
	OpI64Ctz    = 0x7A
	OpI64Popcnt = 0x7B
	OpI64Add    = 0x7C
	OpI64Sub    = 0x7D
	OpI64Mul    = 0x7E
	OpI64DivS   = 0x7F
	OpI64DivU   = 0x80
	OpI64RemS   = 0x81
	OpI64RemU   = 0x82
	OpI64And    = 0x83
	OpI64Or     = 0x84
	OpI64Xor    = 0x85
	OpI64Shl    = 0x86
	OpI64ShrS   = 0x87
	OpI64ShrU   = 0x88
	OpI64Rotl   = 0x89
	OpI64Rotr   = 0x8A

	OpF32Abs      = 0x8B
	OpF32Neg      = 0x8C
	OpF32Ceil     = 0x8D
	OpF32Floor    = 0x8E
	OpF32Trunc    = 0x8F
	OpF32Nearest  = 0x90
	OpF32Sqrt     = 0x91
	OpF32Add      = 0x92
	OpF32Sub      = 0x93
	OpF32Mul      = 0x94
	OpF32Div      = 0x95
	OpF32Min      = 0x96
	OpF32Max      = 0x97
	OpF32Copysign = 0x98

	OpF64Abs      = 0x99
	OpF64Neg      = 0x9A
	OpF64Ceil     = 0x9B
	OpF64Floor    = 0x9C
	OpF64Trunc    = 0x9D
	OpF64Nearest  = 0x9E
	OpF64Sqrt     = 0x9F
	OpF64Add      = 0xA0
	OpF64Sub      = 0xA1
	OpF64Mul      = 0xA2
	OpF64Div      = 0xA3
	OpF64Min      = 0xA4
	OpF64Max      = 0xA5
	OpF64Copysign = 0xA6

	OpI32WrapI64        = 0xA7
	OpI32TruncF32S      = 0xA8
	OpI32TruncF32U      = 0xA9
	OpI32TruncF64S      = 0xAA
	OpI32TruncF64U      = 0xAB
	OpI64ExtendI32S     = 0xAC
	OpI64ExtendI32U     = 0xAD
	OpI64TruncF32S      = 0xAE
	OpI64TruncF32U      = 0xAF
	OpI64TruncF64S      = 0xB0
	OpI64TruncF64U      = 0xB1
	OpF32ConvertI32S    = 0xB2
	OpF32ConvertI32U    = 0xB3
	OpF32ConvertI64S    = 0xB4
	OpF32ConvertI64U    = 0xB5
	OpF32DemoteF64      = 0xB6
	OpF64ConvertI32S    = 0xB7
	OpF64ConvertI32U    = 0xB8
	OpF64ConvertI64S    = 0xB9
	OpF64ConvertI64U    = 0xBA
	OpF64PromoteF32     = 0xBB
	OpI32ReinterpretF32 = 0xBC
	OpI64ReinterpretF64 = 0xBD
	OpF32ReinterpretI32 = 0xBE
	OpF64ReinterpretI64 = 0xBF

	// Sign-extension operators (post-MVP but emitted by modern LLVM).
	OpI32Extend8S  = 0xC0
	OpI32Extend16S = 0xC1
	OpI64Extend8S  = 0xC2
	OpI64Extend16S = 0xC3
	OpI64Extend32S = 0xC4
)

// Internal lowered opcodes (not present in binaries). The compiler replaces
// structured control with these; targets are absolute instruction indexes.
const (
	opLoweredBr      uint16 = 0x100 // a=target, b=drop, c=keep
	opLoweredBrIf    uint16 = 0x101 // branch when top != 0
	opLoweredBrIfZ   uint16 = 0x102 // branch when top == 0 (from if)
	opLoweredBrTable uint16 = 0x103 // a=index into fn.brTables
	opLoweredReturn  uint16 = 0x104 // c=keep
)

// Fused superinstructions used by the AoT engine (compile-time peephole).
const (
	opFusedLocalGet2    uint16 = 0x200 // push locals a and b
	opFusedLocalGetC    uint16 = 0x201 // push local a and const imm
	opFusedIncrLocal    uint16 = 0x202 // local[a] = i32(local[a] + imm); no stack traffic
	opFusedI32AddConst  uint16 = 0x203 // top = i32(top + imm)
	opFusedI64AddConst  uint16 = 0x204
	opFusedCmpBr        uint16 = 0x205 // fused i32 compare + conditional branch; b=compare op, a=target, c=drop<<16|keep
	opFusedF64LoadLocal uint16 = 0x206 // push f64 mem[local[a] + offset imm]
	opFusedF64MulAdd    uint16 = 0x207 // x + a*b on f64 stack triple; both roundings kept (no FMA contraction)

	// Load/store superinstructions. Each batches the address arithmetic
	// that the PolyBench-style codegen emits around every array element
	// access — and therefore pays at most one EPC touch per fused op
	// instead of one per constituent instruction.
	opFusedLocalMulC        uint16 = 0x208 // push u32(local[a] * imm)
	opFusedAddLocal         uint16 = 0x209 // top = u32(top + local[a])
	opFusedI32MulConst      uint16 = 0x20A // top = u32(top * imm)
	opFusedScaleBase        uint16 = 0x20B // top = u32(u32(top*a) + b): address finalize (elem scale + array base)
	opFusedScaleBaseF64Load uint16 = 0x20C // top = f64 mem[u32(u32(top*a)+b) + imm]
	opFusedF64StoreConst    uint16 = 0x20D // pop addr; mem[addr+a] = f64 const imm
	opFusedF64StoreLocal    uint16 = 0x20E // pop addr; mem[addr+a] = local[b]
	opFusedF64AddStore      uint16 = 0x20F // pop addr,x,y; mem[addr+a] = x+y
	opFusedF64LoadCmp       uint16 = 0x210 // pop addr; top = b2u(cmp_b(top, mem[addr+imm]))
	opFusedI32LoadLocal     uint16 = 0x211 // push u32 mem[local[a] + offset imm]
)

// Register-IR opcodes (PR 4). The register tier rewrites each function's
// lowered stack code into three-address instructions over a register file
// that reuses the frame layout: registers 0..numParams+numLocals-1 are the
// locals, and register numParams+numLocals+i is the canonical home of
// operand-stack slot i. Plain value-typed wasm opcodes (arithmetic,
// compares, conversions) are reused verbatim in register code interpreted
// three-address — dst in .a, sources in .b/.c — so only control flow,
// moves, memory and immediate-fused forms need dedicated encodings.
const (
	// Moves and constants.
	rOpConst uint16 = 0x300 // r[a] = imm
	rOpCopy  uint16 = 0x301 // r[a] = r[b]

	// Control. Branch targets (.a) are absolute register-code indexes.
	rOpBr      uint16 = 0x302 // pc = a
	rOpBrIf    uint16 = 0x303 // if u32(r[b]) != 0: pc = a
	rOpBrIfZ   uint16 = 0x304 // if u32(r[b]) == 0: pc = a
	rOpBrTable uint16 = 0x305 // a=table idx, b=index reg, c=frame offset of operand top
	rOpReturn  uint16 = 0x306 // copy r[a:a+c] to r[0:c]; c=nresults
	rOpUnreach uint16 = 0x307

	// Calls. b is the frame offset of the operand-stack top (args
	// included) so the callee frame can be placed without tracking sp.
	rOpCall         uint16 = 0x308 // a=function index
	rOpCallIndirect uint16 = 0x309 // a=type idx, b=top offset after elem pop, c=elem reg

	// Parametric. select: r[a] = u32(r[imm]) != 0 ? r[b] : r[c].
	rOpSelect uint16 = 0x30A

	// Globals.
	rOpGlobalGet uint16 = 0x30B // r[a] = globals[b]
	rOpGlobalSet uint16 = 0x30C // globals[a] = r[b]

	// Memory management.
	rOpMemSize uint16 = 0x30D // r[a] = pages
	rOpMemGrow uint16 = 0x30E // r[a] = grow(u32(r[b]))

	// Checked memory accesses, 0x310..0x31F. Loads are
	// r[a] = mem[u32(r[b]) + imm]; stores are mem[u32(r[a]) + imm] = r[b].
	// All go through the same memLoad*/memStore* helpers the stack tiers
	// use: identical bounds checks, trap messages and EPC touch sequences.
	rOpLoad32U   uint16 = 0x310 // i32.load / f32.load / i64.load32_u
	rOpLoad64    uint16 = 0x311 // i64.load / f64.load
	rOpLoad8U    uint16 = 0x312 // i32.load8_u / i64.load8_u
	rOpLoad16U   uint16 = 0x313 // i32.load16_u / i64.load16_u
	rOpLoad8S32  uint16 = 0x314 // i32.load8_s
	rOpLoad16S32 uint16 = 0x315 // i32.load16_s
	rOpLoad8S64  uint16 = 0x316 // i64.load8_s
	rOpLoad16S64 uint16 = 0x317 // i64.load16_s
	rOpLoad32S64 uint16 = 0x318 // i64.load32_s
	rOpStore8    uint16 = 0x319
	rOpStore16   uint16 = 0x31A
	rOpStore32   uint16 = 0x31B
	rOpStore64   uint16 = 0x31C
	// mem[u32(r[a]) + uint32(c)] = imm (64-bit const store, init loops).
	rOpStore64Imm uint16 = 0x31D
	// Affine accesses: addr = u32(u32(r)*m + A) with imm = m<<32|A and
	// the wasm offset in c. Loads (index in r[b]): r[a] = mem[addr+c];
	// the store (index in r[a]) does mem[addr+c] = r[b]. One dispatch for
	// the "scale index, add array base, access" tail of every
	// array-element access.
	rOpLoadAff64  uint16 = 0x31E
	rOpLoadAff32  uint16 = 0x31F
	rOpStoreAff64 uint16 = 0x320

	// Immediate-fused ALU forms (the register tier's superinstructions).
	rOpI32AddImm   uint16 = 0x380 // r[a] = u32(r[b]) + u32(imm)
	rOpI32MulImm   uint16 = 0x381 // r[a] = u32(r[b]) * u32(imm)
	rOpI64AddImm   uint16 = 0x382 // r[a] = r[b] + imm
	rOpI32MulAdd   uint16 = 0x383 // r[a] = u32(r[b])*u32(imm) + u32(r[c])
	rOpI32MulAddII uint16 = 0x384 // r[a] = u32(r[b])*u32(imm>>32) + u32(imm)
	rOpF64MulAdd   uint16 = 0x385 // r[a] = f64(r[imm]) + f64(r[b])*f64(r[c]), both roundings kept

	// f64 multiply with an immediate operand (NOT constant folding —
	// the multiply runs at execution with the exact constant bits).
	// c = 0: r[a] = f64(r[b]) * f64(imm); c = 1: the constant was the
	// left operand, r[a] = f64(imm) * f64(r[b]) — order is preserved
	// because NaN payload propagation makes it observable.
	rOpF64MulImm uint16 = 0x386

	// Fused compare-and-branch. The low 32 bits of imm hold the i32
	// compare opcode; rhs is r[c] (rOpBrCmp) or the constant in imm's
	// high 32 bits (rOpBrCmpImm). Only emitted for drop-free branches.
	rOpBrCmp    uint16 = 0x390 // if cmp(r[b], r[c]): pc = a
	rOpBrCmpImm uint16 = 0x391 // if cmp(r[b], u32(imm>>32)): pc = a

	// Superblock tier (PR 7). In the superblock form of a function the
	// header instruction of every compiled self-loop trace is replaced by
	// sOpTraceEnter; a = index into compiledFunc.traces. Interior pcs of
	// the region keep their original register instructions, so a forward
	// jump into the middle of a traced loop still executes correctly
	// through runRegBody and re-enters the trace at the next back-edge.
	sOpTraceEnter uint16 = 0x3A0
)
