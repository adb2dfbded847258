// CIR instructions and operand references.
//
// The IR is register-based, alloca-backed (clang -O0 shape): every mutable
// user variable lives behind an Alloca/GlobalVar address; expression
// temporaries are virtual registers identified by the id of the defining
// instruction. This is exactly the representation the paper's blame analysis
// assumes ("we did not use --fast since our intraprocedural analysis heavily
// depends on the generated LLVM bitcode").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/type.h"
#include "support/source_manager.h"

namespace cb::ir {

using InstrId = uint32_t;
using BlockId = uint32_t;
using FuncId = uint32_t;
using GlobalId = uint32_t;
using DebugVarId = uint32_t;
inline constexpr uint32_t kNone = ~0u;

/// Operand: a register (result of an instruction), a function argument, a
/// module global's address, or an immediate constant.
struct ValueRef {
  enum class Kind : uint8_t { None, Reg, Arg, GlobalAddr, ConstInt, ConstReal, ConstBool, ConstString };
  Kind kind = Kind::None;
  union {
    InstrId reg;
    uint32_t arg;
    GlobalId global;
    int64_t i;
    double r;
    bool b;
    uint32_t stringId;  // index into Module::stringPool
  };

  ValueRef() : reg(0) {}
  static ValueRef none() { return ValueRef(); }
  static ValueRef makeReg(InstrId id) { ValueRef v; v.kind = Kind::Reg; v.reg = id; return v; }
  static ValueRef makeArg(uint32_t idx) { ValueRef v; v.kind = Kind::Arg; v.arg = idx; return v; }
  static ValueRef makeGlobal(GlobalId g) { ValueRef v; v.kind = Kind::GlobalAddr; v.global = g; return v; }
  static ValueRef makeInt(int64_t x) { ValueRef v; v.kind = Kind::ConstInt; v.i = x; return v; }
  static ValueRef makeReal(double x) { ValueRef v; v.kind = Kind::ConstReal; v.r = x; return v; }
  static ValueRef makeBool(bool x) { ValueRef v; v.kind = Kind::ConstBool; v.b = x; return v; }
  static ValueRef makeString(uint32_t id) { ValueRef v; v.kind = Kind::ConstString; v.stringId = id; return v; }

  bool isReg() const { return kind == Kind::Reg; }
  bool isNone() const { return kind == Kind::None; }
};

enum class Opcode : uint8_t {
  // Memory.
  Alloca,      // result: Ref(T). extra.debugVar names the user variable (or temp)
  Load,        // ops: [addr] -> value
  Store,       // ops: [value, addr]
  FieldAddr,   // ops: [recordAddr], imm = field index -> Ref(fieldTy)
  IndexAddr,   // ops: [arrayValue, idx...] -> Ref(elemTy); one per access, cost
               // scales with rank. imm is a bit-field: bit0 = linear (flat
               // 0-based index), bit1 = feeds a Store (set by markIndexStores)
  TupleAddr,   // ops: [tupleAddr], imm = element index -> Ref(elemTy)

  // Values.
  Bin,         // ops: [lhs, rhs], binKind
  Un,          // ops: [v], unKind
  TupleMake,   // ops: elems -> Tuple value (construct cost: the CENN story)
  TupleGet,    // ops: [tupleValue], imm = index

  // Aggregates / Chapel-specific.
  DomainMake,    // ops: [lo0, hi0, lo1, hi1, ...], imm = rank -> Domain
  DomainExpand,  // ops: [domain, amount] -> Domain       (binSpace.expand(k))
  DomainSize,    // ops: [domain] -> Int                  (D.size)
  DomainDim,     // ops: [domain], imm = dim*2 + (0=lo,1=hi) -> Int
  ArrayNew,      // ops: [domain] -> Array over domain; heap allocation (VG story)
  ArrayView,     // ops: [array, domain] -> Array alias (slice / domain remap)
  RecordNew,     // no ops -> Record value with default-initialized fields

  // Control.
  Call,        // callee = extra.func, ops = args (refs passed as addresses)
  Ret,         // ops: [value?]
  Br,          // target0
  CondBr,      // ops: [cond], target0 = then, target1 = else

  // Parallelism (lowered forms of forall / coforall).
  Spawn,       // extra.func = outlined task fn; ops: [lo, hi, capturedArgs...]
               // imm: 0 = forall (range chunked over workers), 1 = coforall
               // (one task per index)

  // Iterator bookkeeping the lowering inserts so the cost model can charge
  // Chapel's iterator machinery (the zippered-iteration / domain-remapping
  // overhead the paper's case studies hinge on).
  IterOverhead,  // imm = number of coordinated iterands (>=2 means zippered)

  // Builtins.
  Builtin,     // extra.builtin, ops = args
};

enum class BinKind : uint8_t {
  Add, Sub, Mul, Div, Mod, Pow,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or, Min, Max,
};

enum class UnKind : uint8_t { Neg, Not, IntToReal, RealToInt, Abs, Sqrt, Sin, Cos, Exp, Floor };

// The int arithmetic rule, written once for both engines and the --fast
// constant folder: Add, Sub, Mul, Neg and Abs wrap (two's complement),
// min / -1 = min and min % -1 = 0, so no int operand pair traps or is
// undefined. Division and modulo by zero have no value (nullopt): an engine
// raises its run-time error, and the folder leaves the instruction for it.

inline int64_t intNeg(int64_t x) { return static_cast<int64_t>(0 - static_cast<uint64_t>(x)); }

inline int64_t intAbs(int64_t x) { return x < 0 ? intNeg(x) : x; }

/// `x k y` for an int-result arithmetic kind; nullopt for division or
/// modulo by zero and for kinds with no int result.
inline std::optional<int64_t> intBin(BinKind k, int64_t x, int64_t y) {
  int64_t r = 0;
  switch (k) {
    case BinKind::Add: __builtin_add_overflow(x, y, &r); return r;
    case BinKind::Sub: __builtin_sub_overflow(x, y, &r); return r;
    case BinKind::Mul: __builtin_mul_overflow(x, y, &r); return r;
    case BinKind::Div:
      if (y == 0) return std::nullopt;
      return y == -1 ? intNeg(x) : x / y;
    case BinKind::Mod:
      if (y == 0) return std::nullopt;
      return y == -1 ? 0 : x % y;
    case BinKind::Min: return x < y ? x : y;
    case BinKind::Max: return x > y ? x : y;
    default: return std::nullopt;
  }
}

enum class BuiltinKind : uint8_t {
  Writeln,     // prints args (suppressed under profiling by default)
  Random,      // deterministic PRNG double in [0,1)
  Clock,       // current virtual cycle count of this task
  Yield,       // cooperative yield marker (charged as chpl_task_yield)
  HeapHint,    // marks the preceding ArrayNew as a tracked heap allocation
  ArrayFill,   // ops: [array, scalar] — whole-array broadcast assignment
  ArrayCopy,   // ops: [dstArray, srcArray] — whole-array copy
  ConfigGet,   // ops: [nameString, default] — config-const with CLI override

  // Multi-locale PGAS simulation (`on` blocks and distributed domains).
  Dmapped,     // ops: [domain, distKind] — stamp a distribution onto a domain
               // (1 = Block, 2 = Cyclic); locale count is bound at run time
  OnBegin,     // ops: [locale] — push the current locale, switch to `locale`
  OnEnd,       // pop the locale pushed by the matching OnBegin
  HereId,      // -> Int: the current locale id (`here.id`)
  NumLocales,  // -> Int: the simulated locale count (`numLocales`)

  // Remote-access aggregation (simulated Src/DstAggregator task intents).
  AggOpen,     // ops: [isSrc] -> Int handle; opens a per-task aggregator
  AggCopy,     // ops: [handle, a, b, c] — one agg.copy(). Src form: a = dst
               // element address, (b, c) = source array + index. Dst form:
               // (a, b) = destination array + index, c = source value.
  AggClose,    // ops: [handle] — flush all buffered peers, close
};

/// One instruction. Result registers are identified by the instruction's own
/// id within the function.
struct Instr {
  Opcode op = Opcode::Ret;
  TypeId type = kInvalidType;            // result type (void -> no result)
  std::vector<ValueRef> ops;
  SourceLoc loc;
  BlockId target0 = kNone;               // Br/CondBr successors
  BlockId target1 = kNone;
  uint32_t imm = 0;                      // field/tuple index, rank, spawn kind…
  union Extra {
    BinKind bin;
    UnKind un;
    BuiltinKind builtin;
    FuncId func;
    DebugVarId debugVar;
    uint32_t raw;
    Extra() : raw(0) {}
  } extra;

  bool isTerminator() const {
    return op == Opcode::Ret || op == Opcode::Br || op == Opcode::CondBr;
  }
  bool producesValue(const TypeContext& types) const {
    return type != kInvalidType && types.kindOf(type) != TypeKind::Void;
  }
};

const char* opcodeName(Opcode op);
const char* binKindName(BinKind k);
const char* unKindName(UnKind k);
const char* builtinName(BuiltinKind k);

}  // namespace cb::ir
