#include "runtime/interp.h"

#include <cmath>

#include "analysis/race.h"
#include "runtime/exec.h"
#include "runtime/semantics.h"

namespace cb::rt {

using ir::BuiltinKind;
using ir::FuncId;
using ir::Instr;
using ir::InstrId;
using ir::Opcode;
using ir::TypeId;
using ir::TypeKind;
using ir::ValueRef;
using sem::fail;

namespace {

/// The tree-walking reference interpreter: evaluates IR operands, follows
/// the CFG, does the arithmetic and keeps call frames with alloca slots.
/// Every measured rule is sem::Core's, so what this engine checks in the
/// bytecode engine is the dispatch: lowering, fused superinstructions,
/// pre-decoded operands and the parallel-replay merge.
class Interp : sem::Core {
 public:
  Interp(const ir::Module& m, const RunOptions& opts) : Core(m, opts), globals_(m.numGlobals()) {
    // Precompute alloca -> slot maps per function.
    allocaSlot_.resize(m.numFunctions());
    numSlots_.resize(m.numFunctions(), 0);
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
      const ir::Function& fn = m.function(f);
      allocaSlot_[f].assign(fn.numInstrs(), -1);
      uint32_t n = 0;
      for (InstrId i = 0; i < fn.numInstrs(); ++i)
        if (fn.instrs[i].op == Opcode::Alloca) allocaSlot_[f][i] = static_cast<int32_t>(n++);
      numSlots_[f] = n;
    }
  }

  RunResult run() {
    bindMain(s_);
    return runMain(s_, [this](FuncId f) { callFunction(f, {}); });
  }

 private:
  struct Frame : sem::Pos {
    const ir::Function* fn = nullptr;
    std::vector<Value> regs;
    std::vector<Value> slots;
    std::vector<Value> args;
  };

  /// Record field-domain thunks for sem::Core::defaultValue/makeArray.
  auto thunk() {
    return [this](FuncId f) { return callFunction(f, {}); };
  }
  static void noObserver(const ArrayObj*, FuncId, InstrId) {}

  Value evalOp(Frame& fr, const ValueRef& v) {
    switch (v.kind) {
      case ValueRef::Kind::Reg: return fr.regs[v.reg];
      case ValueRef::Kind::Arg: return fr.args[v.arg];
      case ValueRef::Kind::GlobalAddr: return Value::makeRef(&globals_[v.global]);
      case ValueRef::Kind::ConstInt: return Value::makeInt(v.i);
      case ValueRef::Kind::ConstReal: return Value::makeReal(v.r);
      case ValueRef::Kind::ConstBool: return Value::makeBool(v.b);
      case ValueRef::Kind::ConstString: return Value::makeStr(m_.string(v.stringId));
      case ValueRef::Kind::None: return Value{};
    }
    return Value{};
  }

  Value* refOf(Frame& fr, const ValueRef& v, SourceLoc loc) {
    Value x = evalOp(fr, v);
    if (x.kind != VKind::Ref) fail("expected an address value", loc);
    return x.ref;
  }

  Value callFunction(FuncId f, std::vector<Value> args) {
    const ir::Function& fn = m_.function(f);
    Frame fr;
    fr.fid = f;
    fr.fn = &fn;
    fr.args = std::move(args);
    fr.regs.resize(fn.numInstrs());
    fr.slots.resize(numSlots_[f]);
    sem::CallScope sc = sem::enter(s_, &fr);
    Value ret = execFrame(fr);
    sem::leave(s_, sc);
    return ret;
  }

  Value execFrame(Frame& fr) {
    const ir::Function& fn = *fr.fn;
    ir::BlockId block = 0;
    size_t ip = 0;
    for (;;) {
      const ir::BasicBlock& bb = fn.blocks[block];
      if (ip >= bb.instrs.size()) fail("fell off block end", fn.loc);
      InstrId id = bb.instrs[ip];
      const Instr& in = fn.instrs[id];
      fr.ir = id;
      if (++result_.instructionsExecuted > opts_.maxInstructions)
        fail("instruction budget exceeded", in.loc);
      if (skid_ != 0) tickSkid(s_);
      charge(s_, (cost_.cost(in) * icacheQ10_[fr.fid]) >> 10);

      switch (in.op) {
        case Opcode::Alloca: {
          int32_t slot = allocaSlot_[fr.fid][id];
          fr.regs[id] = Value::makeRef(&fr.slots[slot]);
          break;
        }
        case Opcode::Load: {
          Value* p = refOf(fr, in.ops[0], in.loc);
          // Array handles fetched out of record fields are dependent
          // pointer chases through nested descriptors.
          if (p->kind == VKind::Array && in.ops[0].kind == ValueRef::Kind::Reg &&
              fn.instrs[in.ops[0].reg].op == Opcode::FieldAddr)
            charge(s_, prof().nestedArrayHandle);
          fr.regs[id] = *p;
          break;
        }
        case Opcode::Store: {
          Value* p = refOf(fr, in.ops[1], in.loc);
          *p = evalOp(fr, in.ops[0]);
          break;
        }
        case Opcode::FieldAddr: {
          Value* rec = refOf(fr, in.ops[0], in.loc);
          if (rec->kind != VKind::Record || in.imm >= rec->elems.size())
            fail("bad field access", in.loc);
          fr.regs[id] = Value::makeRef(&rec->elems[in.imm]);
          break;
        }
        case Opcode::TupleAddr: {
          Value* tup = refOf(fr, in.ops[0], in.loc);
          if (tup->kind != VKind::Tuple) fail("bad tuple element access", in.loc);
          uint64_t idx =
              in.ops.size() == 2
                  ? static_cast<uint64_t>(evalOp(fr, in.ops[1]).asInt() - 1)  // 1-based
                  : in.imm;
          if (idx >= tup->elems.size()) fail("tuple index out of range", in.loc);
          fr.regs[id] = Value::makeRef(&tup->elems[idx]);
          break;
        }
        case Opcode::IndexAddr: {
          Value base = evalOp(fr, in.ops[0]);
          if (base.kind != VKind::Array || !base.arr) fail("indexing a non-array", in.loc);
          Value* p = nullptr;
          int64_t idx0 = 0;
          if (in.imm & 1) {
            int64_t k = evalOp(fr, in.ops[1]).asInt();
            p = base.arr->atLinear(k);
            if (p) {
              int64_t idx[3];
              base.arr->dom.delinearize(k, idx);
              idx0 = idx[0];
            }
          } else {
            int64_t idx[3] = {0, 0, 0};
            int n = static_cast<int>(in.ops.size()) - 1;
            for (int d = 0; d < n; ++d) idx[d] = evalOp(fr, in.ops[d + 1]).asInt();
            p = base.arr->at(idx);
            idx0 = idx[0];
          }
          if (!p) fail("array index out of bounds", in.loc);
          if (base.arr->isView()) charge(s_, prof().viewIndexExtra);
          noteArrayAccess(s_, base.arr.get(), idx0, (in.imm & 2) != 0);
          fr.regs[id] = Value::makeRef(p);
          break;
        }
        case Opcode::Bin: execBin(fr, id, in); break;
        case Opcode::Un: execUn(fr, id, in); break;
        case Opcode::TupleMake: {
          Value v;
          v.kind = VKind::Tuple;
          v.elems.reserve(in.ops.size());
          for (const ValueRef& o : in.ops) v.elems.push_back(evalOp(fr, o));
          fr.regs[id] = std::move(v);
          break;
        }
        case Opcode::TupleGet: {
          Value t = evalOp(fr, in.ops[0]);
          if (t.kind != VKind::Tuple && t.kind != VKind::Record)
            fail("tuple access on non-tuple", in.loc);
          uint64_t idx =
              in.ops.size() == 2
                  ? static_cast<uint64_t>(evalOp(fr, in.ops[1]).asInt() - 1)  // 1-based
                  : in.imm;
          if (idx >= t.elems.size()) fail("tuple index out of range", in.loc);
          fr.regs[id] = t.elems[idx];
          break;
        }
        case Opcode::RecordNew: {
          charge(s_, prof().recordNewPerField * m_.types().get(in.type).fields.size());
          fr.regs[id] = defaultValue(s_, in.type, thunk(), noObserver);
          break;
        }
        case Opcode::DomainMake: {
          DomainVal d;
          d.rank = static_cast<uint8_t>(in.imm);
          for (uint8_t k = 0; k < d.rank; ++k) {
            d.lo[k] = evalOp(fr, in.ops[2 * k]).asInt();
            d.hi[k] = evalOp(fr, in.ops[2 * k + 1]).asInt();
          }
          fr.regs[id] = Value::makeDomain(d);
          break;
        }
        case Opcode::DomainExpand: {
          Value d = evalOp(fr, in.ops[0]);
          if (d.kind != VKind::Domain) fail("expand on non-domain", in.loc);
          fr.regs[id] = Value::makeDomain(d.dom.expand(evalOp(fr, in.ops[1]).asInt()));
          break;
        }
        case Opcode::DomainSize: {
          Value d = evalOp(fr, in.ops[0]);
          if (d.kind == VKind::Domain) fr.regs[id] = Value::makeInt(d.dom.size());
          else if (d.kind == VKind::Array && d.arr)
            fr.regs[id] = Value::makeInt(d.arr->dom.size());
          else fail("size of a non-domain", in.loc);
          break;
        }
        case Opcode::DomainDim: {
          Value d = evalOp(fr, in.ops[0]);
          DomainVal dom;
          if (d.kind == VKind::Domain) dom = d.dom;
          else if (d.kind == VKind::Array && d.arr) dom = d.arr->dom;
          else fail("dim of a non-domain", in.loc);
          uint32_t dim = in.imm / 2;
          bool hi = in.imm % 2;
          if (dim >= dom.rank) fail("domain dim out of range", in.loc);
          fr.regs[id] = Value::makeInt(hi ? dom.hi[dim] : dom.lo[dim]);
          break;
        }
        case Opcode::ArrayNew: {
          Value d = evalOp(fr, in.ops[0]);
          if (d.kind != VKind::Domain) fail("array over a non-domain", in.loc);
          TypeId elem = m_.types().get(in.type).elem;
          fr.regs[id] = makeArray(s_, d.dom, elem, fr.fid, id, thunk(), noObserver);
          break;
        }
        case Opcode::ArrayView: {
          Value base = evalOp(fr, in.ops[0]);
          Value d = evalOp(fr, in.ops[1]);
          if (base.kind != VKind::Array || !base.arr) fail("view of a non-array", in.loc);
          if (d.kind != VKind::Domain) fail("view over a non-domain", in.loc);
          auto view = std::make_shared<ArrayObj>();
          view->dom = d.dom;
          // Collapse view-of-view chains to the owning array.
          view->base = base.arr->base ? base.arr->base : base.arr;
          Value v;
          v.kind = VKind::Array;
          v.arr = std::move(view);
          fr.regs[id] = std::move(v);
          break;
        }
        case Opcode::Call: {
          std::vector<Value> args;
          args.reserve(in.ops.size());
          for (const ValueRef& o : in.ops) args.push_back(evalOp(fr, o));
          fr.regs[id] = callFunction(in.extra.func, std::move(args));
          break;
        }
        case Opcode::Ret:
          return in.ops.empty() ? Value{} : evalOp(fr, in.ops[0]);
        case Opcode::Br:
          block = in.target0;
          ip = 0;
          continue;
        case Opcode::CondBr: {
          Value c = evalOp(fr, in.ops[0]);
          if (c.kind != VKind::Bool) fail("branch on non-bool", in.loc);
          block = c.b ? in.target0 : in.target1;
          ip = 0;
          continue;
        }
        case Opcode::Spawn:
          execSpawn(fr, in);
          break;
        case Opcode::IterOverhead:
          break;  // pure cost
        case Opcode::Builtin:
          execBuiltin(fr, id, in);
          break;
      }
      ++ip;
    }
  }

  void execBin(Frame& fr, InstrId id, const Instr& in) {
    using ir::BinKind;
    Value a = evalOp(fr, in.ops[0]);
    Value b = evalOp(fr, in.ops[1]);
    TypeKind rk = m_.types().kindOf(in.type);
    BinKind k = in.extra.bin;
    if (rk == TypeKind::Bool) {
      switch (k) {
        case BinKind::And: fr.regs[id] = Value::makeBool(a.asBool() && b.asBool()); return;
        case BinKind::Or: fr.regs[id] = Value::makeBool(a.asBool() || b.asBool()); return;
        default: break;
      }
      if (a.kind == VKind::Bool && b.kind == VKind::Bool) {
        bool r = (k == BinKind::Eq) ? a.b == b.b : a.b != b.b;
        fr.regs[id] = Value::makeBool(r);
        return;
      }
      double x = a.num(), y = b.num();
      bool r = false;
      switch (k) {
        case BinKind::Eq: r = x == y; break;
        case BinKind::Ne: r = x != y; break;
        case BinKind::Lt: r = x < y; break;
        case BinKind::Le: r = x <= y; break;
        case BinKind::Gt: r = x > y; break;
        case BinKind::Ge: r = x >= y; break;
        default: fail("bad boolean op", in.loc);
      }
      fr.regs[id] = Value::makeBool(r);
      return;
    }
    if (rk == TypeKind::Int) {
      fr.regs[id] = Value::makeInt(sem::intArith(k, a.asInt(), b.asInt(), in.loc));
      return;
    }
    // Real result.
    double x = a.num(), y = b.num(), r = 0;
    switch (k) {
      case BinKind::Add: r = x + y; break;
      case BinKind::Sub: r = x - y; break;
      case BinKind::Mul: r = x * y; break;
      case BinKind::Div: r = x / y; break;
      case BinKind::Pow: r = std::pow(x, y); break;
      case BinKind::Min: r = x < y ? x : y; break;
      case BinKind::Max: r = x > y ? x : y; break;
      case BinKind::Mod: r = std::fmod(x, y); break;
      default: fail("bad real op", in.loc);
    }
    fr.regs[id] = Value::makeReal(r);
  }

  void execUn(Frame& fr, InstrId id, const Instr& in) {
    using ir::UnKind;
    Value v = evalOp(fr, in.ops[0]);
    switch (in.extra.un) {
      case UnKind::Neg:  // int negation wraps, like the binary ops
        fr.regs[id] =
            (v.kind == VKind::Int) ? Value::makeInt(ir::intNeg(v.i)) : Value::makeReal(-v.num());
        return;
      case UnKind::Not: fr.regs[id] = Value::makeBool(!v.asBool()); return;
      case UnKind::IntToReal: fr.regs[id] = Value::makeReal(static_cast<double>(v.asInt())); return;
      case UnKind::RealToInt: fr.regs[id] = Value::makeInt(static_cast<int64_t>(v.num())); return;
      case UnKind::Abs:
        fr.regs[id] = (v.kind == VKind::Int) ? Value::makeInt(ir::intAbs(v.i))
                                             : Value::makeReal(std::fabs(v.num()));
        return;
      case UnKind::Sqrt: fr.regs[id] = Value::makeReal(std::sqrt(v.num())); return;
      case UnKind::Sin: fr.regs[id] = Value::makeReal(std::sin(v.num())); return;
      case UnKind::Cos: fr.regs[id] = Value::makeReal(std::cos(v.num())); return;
      case UnKind::Exp: fr.regs[id] = Value::makeReal(std::exp(v.num())); return;
      case UnKind::Floor: fr.regs[id] = Value::makeInt(static_cast<int64_t>(std::floor(v.num()))); return;
    }
  }

  void execSpawn(Frame& fr, const Instr& in) {
    int64_t lo = evalOp(fr, in.ops[0]).asInt();
    int64_t hi = evalOp(fr, in.ops[1]).asInt();
    std::vector<Value> extra;
    for (size_t k = 2; k < in.ops.size(); ++k) extra.push_back(evalOp(fr, in.ops[k]));
    FuncId fn = in.extra.func;
    // The race verdict only feeds RunLog::raceFallbackRegions here: this
    // engine always runs a region's chunks one by one.
    spawn(
        s_, sem::ChunkPlan(lo, hi, extra, in.imm == 1, opts_.numWorkers), fn, fr.ir,
        raceCache_.verdictFor(m_, fn).raceFree, in.loc,
        [&](int64_t a, int64_t b) { callFunction(fn, sem::taskArgs({a, b}, extra)); },
        [](uint64_t, std::vector<uint64_t>&) { return false; });
  }

  void execBuiltin(Frame& fr, InstrId id, const Instr& in) {
    auto op = [&](size_t k) { return evalOp(fr, in.ops[k]); };
    Value& dst = fr.regs[id];
    switch (in.extra.builtin) {
      case BuiltinKind::Writeln: {
        std::string line;
        for (size_t k = 0; k < in.ops.size(); ++k) {
          if (k) line += " ";
          line += renderValue(op(k));
        }
        writeln(s_, std::move(line));
        break;
      }
      case BuiltinKind::Random: dst = Value::makeReal(rng_.nextDouble()); break;
      case BuiltinKind::Clock: dst = Value::makeInt(static_cast<int64_t>(s_.pmu.clock)); break;
      case BuiltinKind::Yield:
      case BuiltinKind::HeapHint: break;
      case BuiltinKind::ArrayFill: arrayFill(s_, op(0), op(1), in.loc); break;
      case BuiltinKind::ArrayCopy: arrayCopy(s_, op(0), op(1), in.loc); break;
      case BuiltinKind::ConfigGet: dst = configGet(op(0), op(1), in.loc); break;
      case BuiltinKind::Dmapped:
        dst = Value::makeDomain(dmapped(op(0), op(1).asInt(), in.loc));
        break;
      case BuiltinKind::OnBegin: onBegin(s_, op(0).asInt()); break;
      case BuiltinKind::OnEnd: onEnd(s_); break;
      case BuiltinKind::HereId: dst = Value::makeInt(s_.locale); break;
      case BuiltinKind::NumLocales: dst = Value::makeInt(numLocales()); break;
      case BuiltinKind::AggOpen: dst = Value::makeInt(aggOpen(s_, op(0).asInt() != 0)); break;
      case BuiltinKind::AggCopy: {
        sem::AggState& st = aggAt(s_, op(0).asInt(), in.loc);
        Value remote = op(st.isSrc ? 2 : 1);
        Value* elem = aggCopy(s_, st, remote, op(st.isSrc ? 3 : 2).asInt(), in.loc);
        if (st.isSrc) *refOf(fr, in.ops[1], in.loc) = *elem;
        else *elem = op(3);
        break;
      }
      case BuiltinKind::AggClose: aggClose(s_, op(0).asInt(), in.loc); break;
    }
  }

  sem::Stream s_;
  std::vector<Value> globals_;
  // Memoized race-freedom verdicts per task function.
  an::race::RaceCache raceCache_;
  std::vector<std::vector<int32_t>> allocaSlot_;
  std::vector<uint32_t> numSlots_;
};

}  // namespace

RunResult execute(const ir::Module& m, const RunOptions& opts, an::loc::Collector* observer,
                  std::shared_ptr<const bc::CompiledModule> lowered) {
  if (opts.numWorkers == 0) {
    RunResult r;
    r.error = "invalid run options: numWorkers must be at least 1";
    return r;
  }
  if (!opts.referenceInterp || observer)
    return executeBytecode(m, opts, observer, std::move(lowered));
  return Interp(m, opts).run();
}

}  // namespace cb::rt
