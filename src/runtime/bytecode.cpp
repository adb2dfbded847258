#include "runtime/bytecode.h"

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "analysis/race.h"
#include "support/common.h"

namespace cb::rt::bc {

using ir::BinKind;
using ir::BuiltinKind;
using ir::FuncId;
using ir::Instr;
using ir::InstrId;
using ir::Opcode;
using ir::TypeId;
using ir::TypeKind;
using ir::ValueRef;

namespace {

// ---------------------------------------------------------------------------
// Bytecode lowering.
// ---------------------------------------------------------------------------

struct FnCompiler {
  const ir::Module& m;
  const ir::Function& fn;
  FuncId fid;
  CompiledModule& cm;
  const CostModel& cost;
  uint64_t q10;
  std::unordered_map<FuncId, uint32_t>& planOf;

  std::vector<uint32_t> uses;           // Reg use counts across the function
  std::vector<uint32_t> blockPc;        // BlockId -> bytecode pc
  struct Fixup { uint32_t pc; bool second; ir::BlockId block; };
  std::vector<Fixup> fixups;
  // Slot loads elided by operand forwarding: the load emits as a
  // prologue-only IterOverhead and its (single) consumer reads the slot in
  // place via a BOperand::K::Slot operand.
  std::unordered_map<uint32_t, uint32_t> slotForward;
  BFunc out;

  FnCompiler(const ir::Module& mod, FuncId f, CompiledModule& c, const CostModel& cst,
             uint64_t icq10, std::unordered_map<FuncId, uint32_t>& plans)
      : m(mod), fn(mod.function(f)), fid(f), cm(c), cost(cst), q10(icq10), planOf(plans) {
    uses.assign(fn.numInstrs(), 0);
    for (InstrId i = 0; i < fn.numInstrs(); ++i)
      for (const ValueRef& o : fn.instrs[i].ops)
        if (o.isReg()) ++uses[o.reg];
  }

  uint32_t scaled(const Instr& in) const {
    return static_cast<uint32_t>((cost.cost(in) * q10) >> 10);
  }

  BOperand dec(const ValueRef& v) {
    BOperand o;
    switch (v.kind) {
      case ValueRef::Kind::Reg: {
        auto fw = slotForward.find(v.reg);
        if (fw != slotForward.end()) { o = {BOperand::K::Slot, fw->second}; break; }
        o = {BOperand::K::Reg, v.reg};
        break;
      }
      case ValueRef::Kind::Arg: o = {BOperand::K::Arg, v.arg}; break;
      case ValueRef::Kind::GlobalAddr: o = {BOperand::K::Global, v.global}; break;
      case ValueRef::Kind::ConstInt: o = {BOperand::K::Const, addConst(Value::makeInt(v.i))}; break;
      case ValueRef::Kind::ConstReal:
        o = {BOperand::K::Const, addConst(Value::makeReal(v.r))};
        break;
      case ValueRef::Kind::ConstBool:
        o = {BOperand::K::Const, addConst(Value::makeBool(v.b))};
        break;
      case ValueRef::Kind::ConstString:
        o = {BOperand::K::Const, addConst(Value::makeStr(m.string(v.stringId)))};
        break;
      case ValueRef::Kind::None: o = {BOperand::K::None, 0}; break;
    }
    return o;
  }

  uint32_t addConst(Value v) {
    cm.constPool.push_back(std::move(v));
    return static_cast<uint32_t>(cm.constPool.size() - 1);
  }

  uint32_t window(const std::vector<ValueRef>& ops, size_t from = 0) {
    uint32_t base = static_cast<uint32_t>(out.operands.size());
    for (size_t k = from; k < ops.size(); ++k) out.operands.push_back(dec(ops[k]));
    return base;
  }

  /// Slot index when `v` is the register of an Alloca in this function.
  int32_t slotOf(const ValueRef& v) const {
    if (!v.isReg() || fn.instrs[v.reg].op != Opcode::Alloca) return -1;
    return cm.allocaSlot[fid][v.reg];
  }

  uint32_t planFor(FuncId taskFn) {
    auto it = planOf.find(taskFn);
    if (it != planOf.end()) return it->second;
    // Parallel-replay eligibility comes from the shared race-freedom prover
    // (analysis/race.h); the plan keeps its verdict for `cb --lint`.
    uint32_t idx = static_cast<uint32_t>(cm.plans.size());
    cm.plans.push_back(SpawnPlan{taskFn, an::race::analyzeTaskFunction(m, taskFn)});
    planOf.emplace(taskFn, idx);
    return idx;
  }

  /// Operand forwarding: slot index when single-use slot load `id` at block
  /// position `p` has its one consumer inside the same block, reachable only
  /// through instructions that cannot modify any frame slot (so the consumer
  /// observes the same value reading the slot in place of the dead register
  /// copy). Returns -1 when the copy must be materialized. The load still
  /// emits a prologue-only instruction carrying its InstrId and cost, so
  /// instruction counts, sample points and charges are unchanged.
  int32_t forwardableSlot(const std::vector<InstrId>& instrs, size_t p, InstrId id) {
    const Instr& in = fn.instrs[id];
    if (uses.size() <= id || uses[id] != 1) return -1;
    int32_t slot = slotOf(in.ops[0]);
    if (slot < 0) return -1;
    for (size_t q = p + 1; q < instrs.size(); ++q) {
      const Instr& c = fn.instrs[instrs[q]];
      for (const ValueRef& o : c.ops)
        if (o.isReg() && o.reg == id) return c.op == Opcode::Spawn ? -1 : slot;
      switch (c.op) {
        case Opcode::Load:
        case Opcode::Alloca:
        case Opcode::FieldAddr:
        case Opcode::TupleAddr:
        case Opcode::IndexAddr:
        case Opcode::Bin:
        case Opcode::Un:
        case Opcode::TupleMake:
        case Opcode::TupleGet:
        case Opcode::DomainMake:
        case Opcode::DomainExpand:
        case Opcode::DomainSize:
        case Opcode::DomainDim:
        case Opcode::RecordNew:
        case Opcode::ArrayNew:
        case Opcode::ArrayView:
        case Opcode::IterOverhead:
          continue;  // cannot write any frame slot
        case Opcode::Store: {
          int32_t s = slotOf(c.ops[1]);
          if (s >= 0 && s != slot) continue;  // store to a different slot
          return -1;  // same slot, or an arbitrary ref target
        }
        default:
          return -1;  // Call/Spawn/Builtin may write through captured refs
      }
    }
    return -1;  // consumed in a later block
  }

  void compile() {
    blockPc.assign(fn.blocks.size(), 0);
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      blockPc[b] = static_cast<uint32_t>(out.code.size());
      const auto& instrs = fn.blocks[b].instrs;
      for (size_t p = 0; p < instrs.size(); ++p) {
        InstrId id = instrs[p];
        const Instr* next = p + 1 < instrs.size() ? &fn.instrs[instrs[p + 1]] : nullptr;
        InstrId nextId = p + 1 < instrs.size() ? instrs[p + 1] : 0;
        if (next && emitFused(id, fn.instrs[id], nextId, *next)) { ++p; continue; }
        const Instr& in = fn.instrs[id];
        if (in.op == Opcode::Load) {
          int32_t fw = forwardableSlot(instrs, p, id);
          if (fw >= 0) {
            slotForward.emplace(id, static_cast<uint32_t>(fw));
            out.code.push_back(base(id, in, Op::IterOverhead));
            continue;
          }
        }
        emitOne(id, in);
      }
    }
    for (const Fixup& fx : fixups) {
      if (fx.second) out.code[fx.pc].t1 = blockPc[fx.block];
      else out.code[fx.pc].t0 = blockPc[fx.block];
    }
    out.numSlots = cm.numSlots[fid];
    out.numRegs = static_cast<uint32_t>(fn.numInstrs());
    // Slots whose every Alloca is immediately followed by a Store to it are
    // always written before any read; all others must be reset on frame
    // reuse (see BFunc::resetSlots).
    std::vector<uint8_t> mustReset(out.numSlots, 0), inited(out.numSlots, 0);
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      const auto& instrs = fn.blocks[b].instrs;
      for (size_t p = 0; p < instrs.size(); ++p) {
        InstrId id = instrs[p];
        if (fn.instrs[id].op != Opcode::Alloca) continue;
        int32_t slot = cm.allocaSlot[fid][id];
        if (slot < 0) continue;
        const Instr* nx = p + 1 < instrs.size() ? &fn.instrs[instrs[p + 1]] : nullptr;
        bool storedNext = nx && nx->op == Opcode::Store && nx->ops[1].isReg() &&
                          nx->ops[1].reg == id;
        (storedNext ? inited : mustReset)[static_cast<uint32_t>(slot)] = 1;
      }
    }
    for (uint32_t s = 0; s < out.numSlots; ++s)
      if (mustReset[s] || !inited[s]) out.resetSlots.push_back(s);
  }

  BInstr base(InstrId id, const Instr& in, Op op) {
    BInstr b;
    b.op = op;
    b.ir = id;
    b.cost = scaled(in);
    b.dst = id;
    return b;
  }

  bool emitFused(InstrId id, const Instr& in, InstrId nid, const Instr& nx) {
    if (uses.size() <= id || uses[id] != 1) return false;
    // Bin(bool) + CondBr -> CmpBr.
    if (in.op == Opcode::Bin && m.types().kindOf(in.type) == TypeKind::Bool &&
        nx.op == Opcode::CondBr && nx.ops[0].isReg() && nx.ops[0].reg == id) {
      BInstr b = base(id, in, Op::CmpBr);
      b.sub = static_cast<uint8_t>(in.extra.bin);
      b.rk = static_cast<uint8_t>(TypeKind::Bool);
      b.a = dec(in.ops[0]);
      b.b = dec(in.ops[1]);
      b.ir2 = nid;
      b.cost2 = scaled(nx);
      fixups.push_back({static_cast<uint32_t>(out.code.size()), false, nx.target0});
      fixups.push_back({static_cast<uint32_t>(out.code.size()), true, nx.target1});
      out.code.push_back(b);
      return true;
    }
    // IndexAddr + Load -> IndexLoad.
    if (in.op == Opcode::IndexAddr && nx.op == Opcode::Load && nx.ops[0].isReg() &&
        nx.ops[0].reg == id) {
      BInstr b = base(id, in, Op::IndexLoad);
      if (in.imm & 1) b.flags |= kLinear;
      if (in.imm & 2) b.flags |= kStore;
      b.opBase = window(in.ops);
      b.nops = static_cast<uint32_t>(in.ops.size());
      b.ir2 = nid;
      b.cost2 = scaled(nx);
      b.dst2 = nid;
      out.code.push_back(b);
      return true;
    }
    // IndexAddr + Store -> IndexStore.
    if (in.op == Opcode::IndexAddr && nx.op == Opcode::Store && nx.ops[1].isReg() &&
        nx.ops[1].reg == id) {
      BInstr b = base(id, in, Op::IndexStore);
      if (in.imm & 1) b.flags |= kLinear;
      if (in.imm & 2) b.flags |= kStore;
      b.opBase = window(in.ops);
      b.nops = static_cast<uint32_t>(in.ops.size());
      b.a = dec(nx.ops[0]);  // stored value
      b.ir2 = nid;
      b.cost2 = scaled(nx);
      out.code.push_back(b);
      return true;
    }
    // Load-from-slot + TupleGet -> TupleGetSlot. The dominant tuple-read
    // idiom (`t(k)` where t is a local) loads the whole tuple just to
    // extract one element; fused, the element is read straight out of the
    // slot and the dead whole-tuple copy disappears.
    if (in.op == Opcode::Load && nx.op == Opcode::TupleGet && nx.ops[0].isReg() &&
        nx.ops[0].reg == id) {
      int32_t slot = slotOf(in.ops[0]);
      if (slot >= 0) {
        BInstr b = base(id, in, Op::TupleGetSlot);
        b.t0 = static_cast<uint32_t>(slot);
        if (nx.ops.size() == 2) { b.b = dec(nx.ops[1]); b.flags |= kDynIndex; }
        b.imm = nx.imm;
        b.ir2 = nid;
        b.cost2 = scaled(nx);
        b.dst2 = nid;
        out.code.push_back(b);
        return true;
      }
    }
    // TupleAddr + Load -> TupleGetRef (`hourgam(i)(j)` style ref chains).
    if (in.op == Opcode::TupleAddr && nx.op == Opcode::Load && nx.ops[0].isReg() &&
        nx.ops[0].reg == id) {
      BInstr b = base(id, in, Op::TupleGetRef);
      b.a = dec(in.ops[0]);
      if (in.ops.size() == 2) { b.b = dec(in.ops[1]); b.flags |= kDynIndex; }
      b.imm = in.imm;
      b.ir2 = nid;
      b.cost2 = scaled(nx);
      b.dst2 = nid;
      out.code.push_back(b);
      return true;
    }
    // Bin(int/real) + Store-to-slot -> BinStoreSlot.
    if (in.op == Opcode::Bin && nx.op == Opcode::Store && nx.ops[0].isReg() &&
        nx.ops[0].reg == id) {
      TypeKind rk = m.types().kindOf(in.type);
      int32_t slot = slotOf(nx.ops[1]);
      if ((rk == TypeKind::Int || rk == TypeKind::Real) && slot >= 0) {
        BInstr b = base(id, in, Op::BinStoreSlot);
        b.sub = static_cast<uint8_t>(in.extra.bin);
        b.rk = static_cast<uint8_t>(rk);
        b.a = dec(in.ops[0]);
        b.b = dec(in.ops[1]);
        b.ir2 = nid;
        b.cost2 = scaled(nx);
        b.dst2 = static_cast<uint32_t>(slot);
        out.code.push_back(b);
        return true;
      }
    }
    return false;
  }

  void emitOne(InstrId id, const Instr& in) {
    switch (in.op) {
      case Opcode::Alloca: {
        BInstr b = base(id, in, Op::Alloca);
        b.t0 = static_cast<uint32_t>(cm.allocaSlot[fid][id]);
        out.code.push_back(b);
        break;
      }
      case Opcode::Load: {
        int32_t slot = slotOf(in.ops[0]);
        if (slot >= 0) {
          BInstr b = base(id, in, Op::LoadSlot);
          b.t0 = static_cast<uint32_t>(slot);
          out.code.push_back(b);
        } else {
          BInstr b = base(id, in, Op::LoadRef);
          b.a = dec(in.ops[0]);
          if (in.ops[0].isReg() && fn.instrs[in.ops[0].reg].op == Opcode::FieldAddr)
            b.flags |= kNestedHandle;
          out.code.push_back(b);
        }
        break;
      }
      case Opcode::Store: {
        int32_t slot = slotOf(in.ops[1]);
        if (slot >= 0) {
          BInstr b = base(id, in, Op::StoreSlot);
          b.a = dec(in.ops[0]);
          b.t0 = static_cast<uint32_t>(slot);
          out.code.push_back(b);
        } else {
          BInstr b = base(id, in, Op::StoreRef);
          b.a = dec(in.ops[0]);
          b.b = dec(in.ops[1]);
          out.code.push_back(b);
        }
        break;
      }
      case Opcode::FieldAddr: {
        BInstr b = base(id, in, Op::FieldAddr);
        b.a = dec(in.ops[0]);
        b.imm = in.imm;
        out.code.push_back(b);
        break;
      }
      case Opcode::TupleAddr: {
        BInstr b = base(id, in, Op::TupleAddr);
        b.a = dec(in.ops[0]);
        if (in.ops.size() == 2) { b.b = dec(in.ops[1]); b.flags |= kDynIndex; }
        b.imm = in.imm;
        out.code.push_back(b);
        break;
      }
      case Opcode::IndexAddr: {
        BInstr b = base(id, in, Op::IndexAddr);
        if (in.imm & 1) b.flags |= kLinear;
        if (in.imm & 2) b.flags |= kStore;
        b.opBase = window(in.ops);
        b.nops = static_cast<uint32_t>(in.ops.size());
        out.code.push_back(b);
        break;
      }
      case Opcode::Bin: {
        BInstr b = base(id, in, Op::Bin);
        b.sub = static_cast<uint8_t>(in.extra.bin);
        b.rk = static_cast<uint8_t>(m.types().kindOf(in.type));
        b.a = dec(in.ops[0]);
        b.b = dec(in.ops[1]);
        out.code.push_back(b);
        break;
      }
      case Opcode::Un: {
        BInstr b = base(id, in, Op::Un);
        b.sub = static_cast<uint8_t>(in.extra.un);
        b.a = dec(in.ops[0]);
        out.code.push_back(b);
        break;
      }
      case Opcode::TupleMake: {
        BInstr b = base(id, in, Op::TupleMake);
        b.opBase = window(in.ops);
        b.nops = static_cast<uint32_t>(in.ops.size());
        out.code.push_back(b);
        break;
      }
      case Opcode::TupleGet: {
        BInstr b = base(id, in, Op::TupleGet);
        b.a = dec(in.ops[0]);
        if (in.ops.size() == 2) { b.b = dec(in.ops[1]); b.flags |= kDynIndex; }
        b.imm = in.imm;
        out.code.push_back(b);
        break;
      }
      case Opcode::RecordNew: {
        BInstr b = base(id, in, Op::RecordNew);
        b.t0 = in.type;
        b.imm = cost.profile().recordNewPerField * m.types().get(in.type).fields.size();
        out.code.push_back(b);
        break;
      }
      case Opcode::DomainMake: {
        BInstr b = base(id, in, Op::DomainMake);
        b.sub = static_cast<uint8_t>(in.imm);
        b.opBase = window(in.ops);
        b.nops = static_cast<uint32_t>(in.ops.size());
        out.code.push_back(b);
        break;
      }
      case Opcode::DomainExpand: {
        BInstr b = base(id, in, Op::DomainExpand);
        b.a = dec(in.ops[0]);
        b.b = dec(in.ops[1]);
        out.code.push_back(b);
        break;
      }
      case Opcode::DomainSize: {
        BInstr b = base(id, in, Op::DomainSize);
        b.a = dec(in.ops[0]);
        out.code.push_back(b);
        break;
      }
      case Opcode::DomainDim: {
        BInstr b = base(id, in, Op::DomainDim);
        b.a = dec(in.ops[0]);
        b.imm = in.imm;
        out.code.push_back(b);
        break;
      }
      case Opcode::ArrayNew: {
        BInstr b = base(id, in, Op::ArrayNew);
        b.a = dec(in.ops[0]);
        b.t0 = m.types().get(in.type).elem;
        out.code.push_back(b);
        break;
      }
      case Opcode::ArrayView: {
        BInstr b = base(id, in, Op::ArrayView);
        b.a = dec(in.ops[0]);
        b.b = dec(in.ops[1]);
        out.code.push_back(b);
        break;
      }
      case Opcode::Call: {
        BInstr b = base(id, in, Op::Call);
        b.opBase = window(in.ops);
        b.nops = static_cast<uint32_t>(in.ops.size());
        b.t0 = in.extra.func;
        out.code.push_back(b);
        break;
      }
      case Opcode::Ret: {
        BInstr b = base(id, in, Op::Ret);
        if (!in.ops.empty()) b.a = dec(in.ops[0]);
        out.code.push_back(b);
        break;
      }
      case Opcode::Br: {
        BInstr b = base(id, in, Op::Br);
        fixups.push_back({static_cast<uint32_t>(out.code.size()), false, in.target0});
        out.code.push_back(b);
        break;
      }
      case Opcode::CondBr: {
        BInstr b = base(id, in, Op::CondBr);
        b.a = dec(in.ops[0]);
        fixups.push_back({static_cast<uint32_t>(out.code.size()), false, in.target0});
        fixups.push_back({static_cast<uint32_t>(out.code.size()), true, in.target1});
        out.code.push_back(b);
        break;
      }
      case Opcode::Spawn: {
        BInstr b = base(id, in, Op::Spawn);
        b.sub = static_cast<uint8_t>(in.imm);
        b.opBase = window(in.ops);
        b.nops = static_cast<uint32_t>(in.ops.size());
        b.t0 = in.extra.func;
        b.t1 = planFor(in.extra.func);
        out.code.push_back(b);
        break;
      }
      case Opcode::IterOverhead:
        out.code.push_back(base(id, in, Op::IterOverhead));
        break;
      case Opcode::Builtin: {
        BInstr b = base(id, in, Op::Builtin);
        b.sub = static_cast<uint8_t>(in.extra.builtin);
        b.opBase = window(in.ops);
        b.nops = static_cast<uint32_t>(in.ops.size());
        out.code.push_back(b);
        break;
      }
    }
  }
};

}  // namespace

CompiledModule compile(const ir::Module& m, const CostModel& cost,
                       const std::vector<uint64_t>& icacheQ10) {
  CompiledModule cm;
  cm.allocaSlot.resize(m.numFunctions());
  cm.numSlots.assign(m.numFunctions(), 0);
  for (FuncId f = 0; f < m.numFunctions(); ++f) {
    const ir::Function& fn = m.function(f);
    cm.allocaSlot[f].assign(fn.numInstrs(), -1);
    uint32_t n = 0;
    for (InstrId i = 0; i < fn.numInstrs(); ++i)
      if (fn.instrs[i].op == Opcode::Alloca)
        cm.allocaSlot[f][i] = static_cast<int32_t>(n++);
    cm.numSlots[f] = n;
  }
  cm.funcs.resize(m.numFunctions());
  std::unordered_map<FuncId, uint32_t> planOf;
  for (FuncId f = 0; f < m.numFunctions(); ++f) {
    FnCompiler fc(m, f, cm, cost, icacheQ10[f], planOf);
    fc.compile();
    cm.funcs[f] = std::move(fc.out);
  }
  return cm;
}

}  // namespace cb::rt::bc
