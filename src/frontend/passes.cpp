#include "frontend/passes.h"

#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "support/common.h"

namespace cb::fe {

using ir::BinKind;
using ir::Function;
using ir::Instr;
using ir::InstrId;
using ir::Module;
using ir::Opcode;
using ir::TypeKind;
using ir::UnKind;
using ir::ValueRef;

namespace {

bool isConst(const ValueRef& v) {
  return v.kind == ValueRef::Kind::ConstInt || v.kind == ValueRef::Kind::ConstReal ||
         v.kind == ValueRef::Kind::ConstBool;
}

std::optional<ValueRef> foldBin(const Module& m, const Instr& in) {
  const ValueRef& a = in.ops[0];
  const ValueRef& b = in.ops[1];
  if (!isConst(a) || !isConst(b)) return std::nullopt;
  TypeKind rk = m.types().kindOf(in.type);
  auto asReal = [](const ValueRef& v) {
    return v.kind == ValueRef::Kind::ConstReal ? v.r : static_cast<double>(v.i);
  };
  if (rk == TypeKind::Int && a.kind == ValueRef::Kind::ConstInt &&
      b.kind == ValueRef::Kind::ConstInt) {
    std::optional<int64_t> r = ir::intBin(in.extra.bin, a.i, b.i);
    return r ? std::optional(ValueRef::makeInt(*r)) : std::nullopt;
  }
  if (rk == TypeKind::Real) {
    double x = asReal(a), y = asReal(b);
    switch (in.extra.bin) {
      case BinKind::Add: return ValueRef::makeReal(x + y);
      case BinKind::Sub: return ValueRef::makeReal(x - y);
      case BinKind::Mul: return ValueRef::makeReal(x * y);
      case BinKind::Div: return ValueRef::makeReal(x / y);
      case BinKind::Pow: return ValueRef::makeReal(std::pow(x, y));
      case BinKind::Min: return ValueRef::makeReal(x < y ? x : y);
      case BinKind::Max: return ValueRef::makeReal(x > y ? x : y);
      default: return std::nullopt;
    }
  }
  if (rk == TypeKind::Bool) {
    if (a.kind == ValueRef::Kind::ConstBool && b.kind == ValueRef::Kind::ConstBool) {
      switch (in.extra.bin) {
        case BinKind::And: return ValueRef::makeBool(a.b && b.b);
        case BinKind::Or: return ValueRef::makeBool(a.b || b.b);
        case BinKind::Eq: return ValueRef::makeBool(a.b == b.b);
        case BinKind::Ne: return ValueRef::makeBool(a.b != b.b);
        default: return std::nullopt;
      }
    }
    double x = asReal(a), y = asReal(b);
    switch (in.extra.bin) {
      case BinKind::Eq: return ValueRef::makeBool(x == y);
      case BinKind::Ne: return ValueRef::makeBool(x != y);
      case BinKind::Lt: return ValueRef::makeBool(x < y);
      case BinKind::Le: return ValueRef::makeBool(x <= y);
      case BinKind::Gt: return ValueRef::makeBool(x > y);
      case BinKind::Ge: return ValueRef::makeBool(x >= y);
      default: return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<ValueRef> foldUn(const Instr& in) {
  const ValueRef& v = in.ops[0];
  if (!isConst(v)) return std::nullopt;
  switch (in.extra.un) {
    case UnKind::Neg:
      if (v.kind == ValueRef::Kind::ConstInt) return ValueRef::makeInt(ir::intNeg(v.i));
      if (v.kind == ValueRef::Kind::ConstReal) return ValueRef::makeReal(-v.r);
      return std::nullopt;
    case UnKind::Not:
      if (v.kind == ValueRef::Kind::ConstBool) return ValueRef::makeBool(!v.b);
      return std::nullopt;
    case UnKind::IntToReal:
      if (v.kind == ValueRef::Kind::ConstInt)
        return ValueRef::makeReal(static_cast<double>(v.i));
      return std::nullopt;
    case UnKind::Sqrt:
      if (v.kind == ValueRef::Kind::ConstReal) return ValueRef::makeReal(std::sqrt(v.r));
      return std::nullopt;
    case UnKind::Abs:
      if (v.kind == ValueRef::Kind::ConstInt) return ValueRef::makeInt(ir::intAbs(v.i));
      if (v.kind == ValueRef::Kind::ConstReal) return ValueRef::makeReal(std::fabs(v.r));
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

bool hasSideEffects(const Instr& in) {
  switch (in.op) {
    case Opcode::Store:
    case Opcode::Call:
    case Opcode::Spawn:
    case Opcode::Builtin:
    case Opcode::Ret:
    case Opcode::Br:
    case Opcode::CondBr:
    case Opcode::IterOverhead:
    case Opcode::ArrayNew:   // allocation is observable (cost + identity)
    case Opcode::Alloca:     // address identity matters for blame analysis
      return true;
    default:
      return false;
  }
}

/// Rebuilds a function's instruction vector keeping only instructions in
/// `keep`, remapping register operands. Block structure is preserved.
void compactFunction(Function& fn, const std::vector<bool>& keep) {
  std::vector<InstrId> remap(fn.instrs.size(), ir::kNone);
  std::vector<Instr> newInstrs;
  newInstrs.reserve(fn.instrs.size());
  for (InstrId i = 0; i < fn.instrs.size(); ++i) {
    if (!keep[i]) continue;
    remap[i] = static_cast<InstrId>(newInstrs.size());
    newInstrs.push_back(std::move(fn.instrs[i]));
  }
  for (Instr& in : newInstrs) {
    for (ValueRef& v : in.ops) {
      if (v.kind == ValueRef::Kind::Reg) {
        CB_ASSERT(remap[v.reg] != ir::kNone, "operand of kept instr was removed");
        v.reg = remap[v.reg];
      }
    }
  }
  for (ir::BasicBlock& bb : fn.blocks) {
    std::vector<InstrId> ids;
    ids.reserve(bb.instrs.size());
    for (InstrId id : bb.instrs)
      if (remap[id] != ir::kNone) ids.push_back(remap[id]);
    bb.instrs = std::move(ids);
  }
  fn.instrs = std::move(newInstrs);
}

}  // namespace

size_t constantFold(Module& m) {
  size_t folded = 0;
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    Function& fn = m.function(f);
    // Map: register -> folded constant.
    std::vector<std::optional<ValueRef>> constOf(fn.instrs.size());
    for (InstrId i = 0; i < fn.instrs.size(); ++i) {
      Instr& in = fn.instrs[i];
      // Propagate known constants into operands first.
      for (ValueRef& v : in.ops) {
        if (v.kind == ValueRef::Kind::Reg && constOf[v.reg]) v = *constOf[v.reg];
      }
      std::optional<ValueRef> c;
      if (in.op == Opcode::Bin) c = foldBin(m, in);
      else if (in.op == Opcode::Un) c = foldUn(in);
      else if (in.op == Opcode::TupleGet && in.ops[0].kind == ValueRef::Kind::Reg) {
        const Instr& def = fn.instrs[in.ops[0].reg];
        if (def.op == Opcode::TupleMake && in.imm < def.ops.size() && isConst(def.ops[in.imm]))
          c = def.ops[in.imm];
      }
      if (c) {
        constOf[i] = c;
        ++folded;
      }
    }
  }
  return folded;
}

size_t deadCodeElim(Module& m) {
  size_t removed = 0;
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    Function& fn = m.function(f);
    std::vector<uint32_t> uses(fn.instrs.size(), 0);
    for (const Instr& in : fn.instrs)
      for (const ValueRef& v : in.ops)
        if (v.kind == ValueRef::Kind::Reg) ++uses[v.reg];
    // Iterate to fixpoint within the function (removing a use may free its
    // operands).
    bool changed = true;
    std::vector<bool> keep(fn.instrs.size(), true);
    while (changed) {
      changed = false;
      for (InstrId i = 0; i < fn.instrs.size(); ++i) {
        if (!keep[i] || hasSideEffects(fn.instrs[i]) || uses[i] > 0) continue;
        keep[i] = false;
        changed = true;
        ++removed;
        for (const ValueRef& v : fn.instrs[i].ops)
          if (v.kind == ValueRef::Kind::Reg) --uses[v.reg];
      }
    }
    compactFunction(fn, keep);
  }
  return removed;
}

size_t forwardLoads(Module& m) {
  size_t forwarded = 0;
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    Function& fn = m.function(f);

    // Only provably non-aliased scalar slots are tracked: a scalar alloca's
    // address can never be reconstructed through a Field/Index chain, and a
    // scalar global is only reachable via its GlobalAddr. Aggregate slots
    // (records, tuples, array handles) can be written through derived
    // addresses, so forwarding them is unsound.
    auto trackable = [&](const ValueRef& addr) -> bool {
      if (addr.kind == ValueRef::Kind::GlobalAddr)
        return m.types().isScalar(m.global(addr.global).type);
      if (addr.kind == ValueRef::Kind::Reg && fn.instrs[addr.reg].op == Opcode::Alloca)
        return m.types().isScalar(m.types().pointee(fn.instrs[addr.reg].type));
      return false;
    };

    for (ir::BasicBlock& bb : fn.blocks) {
      std::vector<std::pair<ValueRef, ValueRef>> known;  // (addr, value)
      auto findKnown = [&](const ValueRef& addr) -> ValueRef* {
        for (auto& [a, v] : known) {
          if (a.kind != addr.kind) continue;
          if (a.kind == ValueRef::Kind::Reg && a.reg == addr.reg) return &v;
          if (a.kind == ValueRef::Kind::GlobalAddr && a.global == addr.global) return &v;
        }
        return nullptr;
      };
      std::vector<std::optional<ValueRef>> replaceWith(fn.instrs.size());
      for (InstrId id : bb.instrs) {
        Instr& in = fn.instrs[id];
        for (ValueRef& v : in.ops)
          if (v.kind == ValueRef::Kind::Reg && replaceWith[v.reg]) v = *replaceWith[v.reg];
        switch (in.op) {
          case Opcode::Store: {
            if (!trackable(in.ops[1])) {
              // A store through an unknown address (ref formal, element or
              // field chain) may alias any global — drop global knowledge.
              std::erase_if(known, [](const auto& kv) {
                return kv.first.kind == ValueRef::Kind::GlobalAddr;
              });
              break;
            }
            if (ValueRef* slot = findKnown(in.ops[1])) *slot = in.ops[0];
            else known.emplace_back(in.ops[1], in.ops[0]);
            break;
          }
          case Opcode::Load: {
            if (!trackable(in.ops[0])) break;
            if (ValueRef* slot = findKnown(in.ops[0])) {
              replaceWith[id] = *slot;
              ++forwarded;
            }
            break;
          }
          case Opcode::Call:
          case Opcode::Spawn:
          case Opcode::Builtin:
            known.clear();  // conservatively invalidate across side effects
            break;
          default:
            break;
        }
      }
    }
  }
  return forwarded;
}

void stripDebugInfo(Module& m) {
  for (uint32_t i = 0; i < m.numDebugVars(); ++i) {
    ir::DebugVar& dv = m.debugVar(i);
    dv.kind = ir::VarKind::Temp;
    dv.name = m.interner().intern("_opt" + std::to_string(i));
  }
  m.debugInfoStripped = true;
}

size_t markIndexStores(Module& m) {
  size_t marked = 0;
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    Function& fn = m.function(f);
    for (const Instr& in : fn.instrs) {
      if (in.op != Opcode::Store) continue;
      const ValueRef& addr = in.ops[1];
      if (addr.kind != ValueRef::Kind::Reg) continue;
      Instr& def = fn.instrs[addr.reg];
      if (def.op == Opcode::IndexAddr && (def.imm & 2) == 0) {
        def.imm |= 2;
        ++marked;
      }
    }
  }
  return marked;
}

size_t markLoopInductionAllocas(Module& m) {
  size_t marked = 0;
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    Function& fn = m.function(f);
    // Stores per alloca register.
    std::map<InstrId, std::vector<const Instr*>> stores;
    for (const Instr& in : fn.instrs) {
      if (in.op != Opcode::Store) continue;
      const ValueRef& addr = in.ops[1];
      if (addr.kind != ValueRef::Kind::Reg) continue;
      if (fn.instrs[addr.reg].op == Opcode::Alloca) stores[addr.reg].push_back(&in);
    }
    for (const auto& [id, sts] : stores) {
      if (sts.size() != 2) continue;
      auto selfStep = [&](const Instr* st) {
        const ValueRef& val = st->ops[0];
        if (val.kind != ValueRef::Kind::Reg) return false;
        const Instr& d = fn.instrs[val.reg];
        if (d.op != Opcode::Bin ||
            (d.extra.bin != BinKind::Add && d.extra.bin != BinKind::Sub))
          return false;
        for (const ValueRef& o : d.ops) {
          if (o.kind != ValueRef::Kind::Reg) continue;
          const Instr& ld = fn.instrs[o.reg];
          if (ld.op == Opcode::Load && ld.ops[0].kind == ValueRef::Kind::Reg &&
              ld.ops[0].reg == id)
            return true;
        }
        return false;
      };
      // Exactly one initializer and one self-increment: the lowered shape of
      // every counted-loop induction variable.
      if (selfStep(sts[0]) != selfStep(sts[1])) {
        Instr& al = fn.instrs[id];
        if (!(al.imm & 1)) {
          al.imm |= 1;
          ++marked;
        }
      }
    }
    // Derived copies: `for i in lo..hi` lowers to a hidden marked counter
    // plus one per-iteration store into the user variable `i`, and nested
    // bounds like `lo = l * chunk` chain further. Propagate the bit through
    // single-store allocas whose value is an affine expression walking a
    // marked alloca, to a fixpoint.
    auto walksInduction = [&](auto&& self, const ValueRef& v, int depth) -> bool {
      if (depth > 8 || v.kind != ValueRef::Kind::Reg) return false;
      const Instr& d = fn.instrs[v.reg];
      switch (d.op) {
        case Opcode::Load:
          return d.ops[0].kind == ValueRef::Kind::Reg &&
                 fn.instrs[d.ops[0].reg].op == Opcode::Alloca &&
                 (fn.instrs[d.ops[0].reg].imm & 1);
        case Opcode::Bin:
          if (d.extra.bin != BinKind::Add && d.extra.bin != BinKind::Sub &&
              d.extra.bin != BinKind::Mul)
            return false;
          return self(self, d.ops[0], depth + 1) || self(self, d.ops[1], depth + 1);
        case Opcode::Un:
          return self(self, d.ops[0], depth + 1);
        default:
          return false;
      }
    };
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [id, sts] : stores) {
        Instr& al = fn.instrs[id];
        if ((al.imm & 1) || sts.size() != 1) continue;
        if (walksInduction(walksInduction, sts[0]->ops[0], 0)) {
          al.imm |= 1;
          ++marked;
          changed = true;
        }
      }
    }
  }
  return marked;
}

void runFastPipeline(Module& m) {
  for (int round = 0; round < 4; ++round) {
    size_t changed = constantFold(m);
    changed += forwardLoads(m);
    changed += deadCodeElim(m);
    if (changed == 0) break;
  }
  stripDebugInfo(m);
}

}  // namespace cb::fe
