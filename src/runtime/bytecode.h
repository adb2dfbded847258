// Flat bytecode form of CIR plus the parallel-replay eligibility analysis.
//
// `compile()` lowers every ir::Function once (rt::lower shares the result
// across runs of one module and cost profile) into a cache-friendly
// instruction array with pre-decoded operands: register indices, frame-slot
// indices for allocas, pre-resolved branch targets (bytecode pcs instead of
// block ids), interned constants, and per-instruction cycle costs pre-scaled
// by the function's icache multiplier. Hot idioms are fused into
// superinstructions (compare+branch, array index+load/store, int/real
// arithmetic into a slot); each fused instruction carries BOTH constituents'
// instruction ids and costs so the executed-instruction count, sample
// points and sample instruction pointers stay bit-identical to the
// tree-walking reference interpreter.
//
// For every Spawn site the compiler also runs a conservative independence
// analysis over the outlined task function and records a SpawnPlan: when a
// top-level forall/coforall region is provably race-free (all shared-array
// accesses go through one disjoint induction-affine index signature per
// written array, no global stores, no captured-variable stores, no RNG, no
// nested spawns, no calls), the engine may replay its worker streams in
// parallel (see exec.cpp); otherwise the region runs sequentially. Either
// way the RunLog is identical.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/race.h"
#include "ir/module.h"
#include "runtime/cost_model.h"
#include "runtime/value.h"

namespace cb::rt::bc {

enum class Op : uint8_t {
  Alloca,        // dst reg = ref to frame slot t0
  LoadSlot,      // dst = slots[t0] (addr statically known to be a local alloca)
  StoreSlot,     // slots[t0] = a
  LoadRef,       // dst = *a   (flag kNestedHandle: charge on array-from-field)
  StoreRef,      // *b = a
  FieldAddr,     // dst = &record(a).field[imm]
  TupleAddr,     // dst = &tuple(a).elem[imm or dyn b]
  IndexAddr,     // dst = &array[idx...]; window = [array, idx...]
  Bin,           // dst = a <sub> b; rk = result TypeKind
  Un,            // dst = <sub> a
  TupleMake,     // dst = tuple(window)
  TupleGet,      // dst = tuple(a)[imm or dyn b]
  RecordNew,     // dst = default record of type t0; imm = per-field charge
  DomainMake,    // dst = domain(window); sub = rank
  DomainExpand,  // dst = domain(a).expand(b)
  DomainSize,    // dst = size(a)
  DomainDim,     // dst = dim of a; imm = dim*2 + (0=lo,1=hi)
  ArrayNew,      // dst = new array over domain a; t0 = elem TypeId
  ArrayView,     // dst = view of array a over domain b
  Call,          // dst = call t0(window)
  Ret,           // return a (or none)
  Br,            // goto t0 (bytecode pc)
  CondBr,        // a ? goto t0 : goto t1
  Spawn,         // task fn t0, plan t1, kind sub (0 forall / 1 coforall)
  IterOverhead,  // pure cost
  Builtin,       // sub = BuiltinKind; window = args
  // Fused superinstructions. Semantics == first op then second op, with the
  // per-instruction prologue (count, skid tick, charge) run for each part.
  CmpBr,         // Bin(bool) a,b then CondBr on the result
  IndexLoad,     // IndexAddr(window) then dst2 = *elem
  IndexStore,    // IndexAddr(window) then *elem = a
  BinStoreSlot,  // Bin a,b (int/real) then slots[dst2] = result
  TupleGetSlot,  // LoadSlot t0 then dst2 = tuple[imm or dyn b]; elides the
                 //   whole-tuple copy into the (single-use, dead) load reg
  TupleGetRef,   // TupleAddr a[imm or dyn b] then dst2 = *elem
  Count
};

/// Pre-decoded operand. Const indexes the module constant pool; Reg/Arg
/// index the current frame; Global indexes the interpreter's global store.
/// Slot reads a frame slot directly: a single-use slot load whose in-block
/// consumer is reached only through slot-safe instructions is emitted as a
/// prologue-only IterOverhead and its consumer reads the slot in place,
/// eliding the (dead) copy into the load's register.
struct BOperand {
  enum class K : uint8_t { None, Reg, Arg, Global, Const, Slot };
  K k = K::None;
  uint32_t idx = 0;
};

inline constexpr uint8_t kNestedHandle = 1;  // LoadRef: addr comes from FieldAddr
inline constexpr uint8_t kLinear = 2;        // IndexAddr family: linear (imm bit 0) mode
inline constexpr uint8_t kDynIndex = 4;      // TupleAddr/TupleGet: runtime index in b
inline constexpr uint8_t kStore = 8;         // IndexAddr family: address feeds a Store
                                             //   (imm bit 1; remote access = PUT)

struct BInstr {
  Op op = Op::Ret;
  uint8_t sub = 0;    // BinKind / UnKind / BuiltinKind / rank / spawn kind
  uint8_t rk = 0;     // Bin & fused-bin: result TypeKind
  uint8_t flags = 0;
  uint32_t ir = 0;    // originating InstrId (curInstr for samples/errors)
  uint32_t cost = 0;  // static cost, pre-scaled by the icache multiplier
  uint32_t dst = 0;   // result register (== ir)
  BOperand a, b;
  uint32_t opBase = 0, nops = 0;  // extra operand window in BFunc::operands
  uint32_t t0 = 0, t1 = 0;        // branch pcs / callee / type / slot / plan
  uint64_t imm = 0;
  // Second component of a fused superinstruction.
  uint32_t ir2 = 0, cost2 = 0, dst2 = 0;
};

struct BFunc {
  std::vector<BInstr> code;
  std::vector<BOperand> operands;  // shared operand windows
  uint32_t numSlots = 0;           // alloca slots
  uint32_t numRegs = 0;            // == numInstrs of the source function
  // Slots that might be read before being stored in some activation and so
  // must be reset to None when a pooled frame is reused. A slot is exempt
  // when every Alloca producing it is immediately followed by a Store to it
  // (the lowering's default-init idiom): all reads then observe the stored
  // value, never pool-stale state — and exempt tuple slots keep their warm
  // element buffers across calls.
  std::vector<uint32_t> resetSlots;
};

/// A shared-array root the task function accesses (see analysis/race.h —
/// the race-freedom prover both engines gate parallel replay on).
using RootRef = ::cb::an::race::RootRef;

/// Result of the static independence analysis for one Spawn site: the
/// prover's Verdict for the task function. A race-free region's streams may
/// replay on OS threads; its `roots` are the shared arrays needing runtime
/// alias checks. `cb --lint` reports the same verdicts.
struct SpawnPlan {
  ir::FuncId taskFn = ir::kNone;
  an::race::Verdict verdict;
};

struct CompiledModule {
  std::vector<BFunc> funcs;
  std::vector<Value> constPool;
  std::vector<SpawnPlan> plans;
  std::vector<std::vector<int32_t>> allocaSlot;  // per function, InstrId -> slot
  std::vector<uint32_t> numSlots;
};

/// Lowers the whole module. `icacheQ10` is the per-function Q10 cycle
/// multiplier (see Interp); costs are folded as (cost * q10) >> 10.
CompiledModule compile(const ir::Module& m, const CostModel& cost,
                       const std::vector<uint64_t>& icacheQ10);

}  // namespace cb::rt::bc
