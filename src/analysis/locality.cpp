// Concrete-mirror locality predictor behind `cb --lint`.
//
// The mirror re-executes the CIR with the runtime's value model
// (runtime/value.h is header-only for everything used here) and the exact
// array-ownership rules of the interpreter, but collects per-site access
// statistics instead of cycles and samples. Divergences from
// src/runtime/interp.cpp are deliberate and limited to:
//   - no PMU / worker streams / bandwidth ceilings (nothing to sample);
//   - forall/coforall bodies run once over the whole [lo, hi] range instead
//     of per-chunk — chunking partitions the same iteration set, so access
//     counts are identical;
//   - Clock returns the mirror's accumulated cost instead of a stream clock;
//   - runtime failures (bad index, division by zero, malformed IR from
//     parser recovery) abort the mirror softly: the report keeps the
//     statistics gathered so far and records the reason. Lint never crashes.
#include "analysis/locality.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "runtime/value.h"
#include "sampling/sample.h"
#include "support/rng.h"

namespace cb::an::loc {

using ir::BuiltinKind;
using ir::FuncId;
using ir::Instr;
using ir::InstrId;
using ir::Opcode;
using ir::TypeId;
using ir::TypeKind;
using ir::ValueRef;
using rt::ArrayObj;
using rt::DomainVal;
using rt::Value;
using rt::VKind;

double ArrayStats::countFraction() const {
  uint64_t total = accesses + aggGets + aggPuts + aggLocal;
  if (total == 0) return 0.0;
  return static_cast<double>(remoteGets + remotePuts + aggGets + aggPuts) /
         static_cast<double>(total);
}

double ArrayStats::remoteFraction() const {
  uint64_t mass = localMass + remoteMass;
  if (mass == 0) return countFraction();
  return static_cast<double>(remoteMass) / static_cast<double>(mass);
}

double ArrayStats::counterfactualFraction() const {
  uint64_t total = accesses + aggGets + aggPuts + aggLocal;
  if (total == 0) return 0.0;
  return static_cast<double>(counterfactualRemote) / static_cast<double>(total);
}

const char* findingKindName(FindingKind k) {
  switch (k) {
    case FindingKind::DistributionMismatch: return "mis-distribution";
    case FindingKind::MissingAggregator: return "missing-aggregator";
    case FindingKind::MayRaceRegion: return "may-race";
    case FindingKind::StaticDynamicDivergence: return "static-dynamic-divergence";
    case FindingKind::AnalysisTruncated: return "analysis-truncated";
  }
  return "?";
}

namespace {

/// Soft abort: malformed IR or a genuine runtime error in the analyzed
/// program. The mirror unwinds and the report keeps partial statistics.
struct LintStop {
  std::string message;
  SourceLoc loc;
};

/// Step budget exhausted — not an error, just a bounded analysis.
struct BudgetStop {};

const char* distName(uint8_t k) {
  return k == 1 ? "Block" : k == 2 ? "Cyclic" : "local";
}

/// basename:line:col — keeps lint output (and its golden fixtures)
/// independent of the checkout path.
std::string shortLoc(const ir::Module& m, SourceLoc loc) {
  std::string s = m.sourceManager().render(loc);
  size_t slash = s.rfind('/');
  return slash == std::string::npos ? s : s.substr(slash + 1);
}

class Mirror {
 public:
  Mirror(const ir::Module& m, const Params& p, LintReport& out)
      : m_(m), p_(p), out_(out), rng_(p.rngSeed),
        curLocale_(static_cast<int64_t>(p.homeLocale)) {
    allocaSlot_.resize(m.numFunctions());
    numSlots_.assign(m.numFunctions(), 0);
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
      const ir::Function& fn = m.function(f);
      allocaSlot_[f].assign(fn.numInstrs(), -1);
      uint32_t n = 0;
      for (InstrId i = 0; i < fn.numInstrs(); ++i)
        if (fn.instrs[i].op == Opcode::Alloca)
          allocaSlot_[f][i] = static_cast<int32_t>(n++);
      numSlots_[f] = n;
    }
    globals_.resize(m.numGlobals());
  }

  void run() {
    try {
      if (m_.moduleInitFunc != ir::kNone) callFunction(m_.moduleInitFunc, {});
      if (m_.mainFunc == ir::kNone) throw LintStop{"module has no main", {}};
      callFunction(m_.mainFunc, {});
    } catch (const LintStop& e) {
      out_.error = m_.sourceManager().render(e.loc) + ": " + e.message;
    } catch (const BudgetStop&) {
      out_.truncated = true;
    }
    out_.ok = true;
    out_.steps = steps_;
    finalize();
  }

 private:
  struct Frame {
    FuncId fid = ir::kNone;
    const ir::Function* fn = nullptr;
    std::vector<Value> regs;
    std::vector<Value> slots;
    std::vector<Value> args;
  };

  struct AggState {
    bool isSrc = false;
  };

  /// Registry entry: the stats plus an owning reference that keeps the
  /// ArrayObj alive so the pointer key can never be reused.
  struct Entry {
    ArrayStats s;
    std::shared_ptr<ArrayObj> keep;
    int nameTier = 0;  // 0 anon, 1 local var, 2 global var
  };

  [[noreturn]] void stop(const std::string& msg, SourceLoc loc) const {
    throw LintStop{msg, loc};
  }

  // ---- checked value accessors (parser-recovered IR must never crash) -----

  int64_t asIntCk(const Value& v, SourceLoc loc) const {
    if (v.kind != VKind::Int) stop("expected an integer value", loc);
    return v.i;
  }
  bool asBoolCk(const Value& v, SourceLoc loc) const {
    if (v.kind != VKind::Bool) stop("expected a boolean value", loc);
    return v.b;
  }
  double numCk(const Value& v, SourceLoc loc) const {
    if (v.kind == VKind::Int) return static_cast<double>(v.i);
    if (v.kind != VKind::Real) stop("expected a numeric value", loc);
    return v.d;
  }

  Value evalOp(Frame& fr, const ValueRef& v) {
    switch (v.kind) {
      case ValueRef::Kind::Reg: return fr.regs[v.reg];
      case ValueRef::Kind::Arg:
        if (v.arg >= fr.args.size()) return Value{};
        return fr.args[v.arg];
      case ValueRef::Kind::GlobalAddr: return Value::makeRef(&globals_[v.global]);
      case ValueRef::Kind::ConstInt: return Value::makeInt(v.i);
      case ValueRef::Kind::ConstReal: return Value::makeReal(v.r);
      case ValueRef::Kind::ConstBool: return Value::makeBool(v.b);
      case ValueRef::Kind::ConstString: return Value::makeStr(m_.string(v.stringId));
      case ValueRef::Kind::None: return Value{};
    }
    return Value{};
  }

  Value* refOfCk(Frame& fr, const ValueRef& v, SourceLoc loc) {
    Value x = evalOp(fr, v);
    if (x.kind != VKind::Ref || !x.ref) stop("expected an address value", loc);
    return x.ref;
  }

  Value defaultValue(TypeId t) {
    const ir::Type& ty = m_.types().get(t);
    switch (ty.kind) {
      case TypeKind::Int: return Value::makeInt(0);
      case TypeKind::Real: return Value::makeReal(0.0);
      case TypeKind::Bool: return Value::makeBool(false);
      case TypeKind::String: return Value::makeStr("");
      case TypeKind::Domain: return Value::makeDomain(DomainVal{});
      case TypeKind::Tuple: {
        Value v;
        v.kind = VKind::Tuple;
        v.elems.reserve(ty.elems.size());
        for (TypeId e : ty.elems) v.elems.push_back(defaultValue(e));
        return v;
      }
      case TypeKind::Record: {
        Value v;
        v.kind = VKind::Record;
        v.elems.reserve(ty.fields.size());
        for (uint32_t i = 0; i < ty.fields.size(); ++i) {
          TypeId ft = ty.fields[i].type;
          if (m_.types().kindOf(ft) == TypeKind::Array) {
            auto th = m_.fieldDomainThunks.find({t, i});
            if (th != m_.fieldDomainThunks.end()) {
              Value dom = callFunction(th->second, {});
              if (dom.kind != VKind::Domain)
                stop("field domain thunk did not produce a domain", {});
              v.elems.push_back(makeArray(dom.dom, m_.types().get(ft).elem, SourceLoc{}));
            } else {
              Value empty;
              empty.kind = VKind::Array;
              v.elems.push_back(std::move(empty));
            }
          } else {
            v.elems.push_back(defaultValue(ft));
          }
        }
        return v;
      }
      case TypeKind::Array: {
        Value v;
        v.kind = VKind::Array;
        return v;
      }
      default:
        return Value{};
    }
  }

  bool typeOwnsArrays(TypeId t) {
    const ir::Type& ty = m_.types().get(t);
    switch (ty.kind) {
      case TypeKind::Array:
        return true;
      case TypeKind::Tuple:
        for (TypeId e : ty.elems)
          if (typeOwnsArrays(e)) return true;
        return false;
      case TypeKind::Record:
        for (const ir::RecordField& f : ty.fields)
          if (typeOwnsArrays(f.type)) return true;
        return false;
      default:
        return false;
    }
  }

  Value makeArray(const DomainVal& dom, TypeId elemTy, SourceLoc loc) {
    int64_t n = dom.size();
    if (n < 0 || n > (1LL << 31)) stop("array size out of range", loc);
    auto obj = std::make_shared<ArrayObj>();
    obj->dom = dom;
    obj->data.reserve(static_cast<size_t>(n));
    if (n > 0) {
      if (typeOwnsArrays(elemTy)) {
        for (int64_t k = 0; k < n; ++k) obj->data.push_back(defaultValue(elemTy));
      } else {
        Value proto = defaultValue(elemTy);
        for (int64_t k = 0; k < n; ++k) obj->data.push_back(proto);
      }
    }
    // Register the allocation so statistics and naming can find it later.
    size_t idx = entries_.size();
    entries_.push_back(Entry{});
    Entry& e = entries_.back();
    e.keep = obj;
    e.s.declLoc = loc;
    e.s.distKind = dom.distKind;
    e.s.elems = n;
    index_[obj.get()] = idx;
    Value v;
    v.kind = VKind::Array;
    v.arr = std::move(obj);
    return v;
  }

  Entry& entryFor(const ArrayObj* own) {
    auto it = index_.find(own);
    if (it != index_.end()) return entries_[it->second];
    // Arrays born outside ArrayNew (defaulted record fields without thunks)
    // get a late anonymous entry.
    size_t idx = entries_.size();
    entries_.push_back(Entry{});
    index_[own] = idx;
    return entries_.back();
  }

  /// Store-site naming: an array value stored to a global or to a
  /// debug-named local adopts that variable's name (globals win).
  void maybeName(Frame& fr, const Instr& in, const Value& v) {
    if (v.kind != VKind::Array || !v.arr) return;
    const ArrayObj* own = v.arr->base ? v.arr->base.get() : v.arr.get();
    Entry& e = entryFor(own);
    const ValueRef& dst = in.ops[1];
    if (dst.kind == ValueRef::Kind::GlobalAddr) {
      if (e.nameTier < 2) {
        e.s.name = m_.interner().str(m_.global(dst.global).name);
        e.nameTier = 2;
      }
      return;
    }
    if (dst.kind == ValueRef::Kind::Reg && fr.fn->instrs[dst.reg].op == Opcode::Alloca) {
      ir::DebugVarId dv = fr.fn->instrs[dst.reg].extra.debugVar;
      if (dv != ir::kNone && dv < m_.numDebugVars() && m_.debugVar(dv).displayable() &&
          e.nameTier < 1) {
        e.s.name = m_.interner().str(m_.debugVar(dv).name);
        e.nameTier = 1;
      }
    }
  }

  // ---- static affine classification ---------------------------------------

  /// True when the operand is an affine combination of loop-induction
  /// variables and loop-invariant scalars: chains of Add/Sub/Mul over
  /// constants, argument values (chunk bounds), loads of plain locals and
  /// globals, and domain queries. Loads through array elements or record
  /// fields, Mod/Div arithmetic, and anything data-dependent break affinity
  /// (the gather/scatter patterns aggregation exists for).
  bool affineOperand(const ir::Function& fn, const ValueRef& v, int depth) const {
    if (depth > 16) return false;
    switch (v.kind) {
      case ValueRef::Kind::ConstInt:
      case ValueRef::Kind::ConstReal:
      case ValueRef::Kind::ConstBool:
      case ValueRef::Kind::Arg:
        return true;
      case ValueRef::Kind::Reg: {
        const Instr& d = fn.instrs[v.reg];
        switch (d.op) {
          case Opcode::Load: {
            const ValueRef& a = d.ops[0];
            if (a.kind == ValueRef::Kind::GlobalAddr) return true;
            if (a.kind == ValueRef::Kind::Reg &&
                fn.instrs[a.reg].op == Opcode::Alloca) {
              // Plain local: an induction counter (marked by
              // fe::markLoopInductionAllocas) or an invariant scalar.
              if (fn.instrs[a.reg].imm & 1) sawInduction_ = true;
              return true;
            }
            return false;   // array element / record field: data-dependent
          }
          case Opcode::Bin:
            switch (d.extra.bin) {
              case ir::BinKind::Add:
              case ir::BinKind::Sub:
              case ir::BinKind::Mul:
                return affineOperand(fn, d.ops[0], depth + 1) &&
                       affineOperand(fn, d.ops[1], depth + 1);
              default:
                return false;
            }
          case Opcode::Un:
            switch (d.extra.un) {
              case ir::UnKind::Neg:
              case ir::UnKind::IntToReal:
              case ir::UnKind::RealToInt:
              case ir::UnKind::Floor:
                return affineOperand(fn, d.ops[0], depth + 1);
              default:
                return false;
            }
          case Opcode::Builtin:
            return d.extra.builtin == BuiltinKind::HereId ||
                   d.extra.builtin == BuiltinKind::NumLocales ||
                   d.extra.builtin == BuiltinKind::ConfigGet;
          case Opcode::DomainSize:
          case Opcode::DomainDim:
            return true;
          default:
            return false;
        }
      }
      default:
        return false;
    }
  }

  /// (statically affine, walks a marked induction variable) for one
  /// IndexAddr site, cached.
  std::pair<bool, bool> siteAffineInfo(FuncId fid, InstrId id) {
    uint64_t key = (static_cast<uint64_t>(fid) << 32) | id;
    auto it = affineCache_.find(key);
    if (it != affineCache_.end()) return it->second;
    const ir::Function& fn = m_.function(fid);
    const Instr& in = fn.instrs[id];
    sawInduction_ = false;
    bool ok = true;
    for (size_t k = 1; k < in.ops.size(); ++k)
      ok = ok && affineOperand(fn, in.ops[k], 0);
    std::pair<bool, bool> res{ok, sawInduction_};
    affineCache_[key] = res;
    return res;
  }

  // ---- access accounting ---------------------------------------------------

  /// The ownership classification of noteArrayAccess (interp.cpp), recording
  /// statistics instead of charging cycles.
  void noteAccess(Frame& fr, InstrId id, const Instr& in, const ArrayObj* arr,
                  int64_t idx0, bool isStore, bool isView) {
    const ArrayObj* own = arr->base ? arr->base.get() : arr;
    const DomainVal& od = own->dom;
    Entry& e = entryFor(own);
    ArrayStats& st = e.s;
    st.distKind = od.distKind;
    ++st.accesses;
    // Dynamic stride regularity per indexing site.
    uint64_t key = (static_cast<uint64_t>(fr.fid) << 32) | id;
    SiteState& site = sites_[key];
    if (site.seen >= 2) {
      if (idx0 - site.lastIdx != site.stride) st.strideRegular = false;
    } else if (site.seen == 1) {
      site.stride = idx0 - site.lastIdx;
      site.seen = 2;
    } else {
      site.seen = 1;
    }
    site.lastIdx = idx0;
    auto [affine, induction] = siteAffineInfo(fr.fid, id);
    if (!affine) st.staticallyAffine = false;
    if (induction) st.inductionIndexed = true;

    uint64_t c = p_.instrCost ? p_.instrCost(in) : 0;
    if (isView) c += p_.viewIndexExtraCost;
    bool remote = false;
    int64_t owner = 0;
    if (od.distKind != 0 && od.distLocales > 1 &&
        (owner = od.ownerOf(idx0)) != curLocale_) {
      remote = true;
      ++st.pairTransfers[sampling::RunLog::pairKey(curLocale_, owner)];
      if (isStore) {
        ++st.remotePuts;
        ++out_.predictedPuts;
        c += p_.remotePutCost;
        if (parallelDepth_ > 0) ++st.forallRemotePuts;
      } else {
        ++st.remoteGets;
        ++out_.predictedGets;
        c += p_.remoteGetCost;
        if (parallelDepth_ > 0) ++st.forallRemoteGets;
      }
    }
    if (remote) st.remoteMass += c;
    else st.localMass += c;
    // Counterfactual: the same access replayed under the swapped
    // distribution (the what-if behind the mis-distribution suggestion).
    if (od.distKind != 0 && od.distLocales > 1) {
      DomainVal swapped = od;
      swapped.distKind = od.distKind == 1 ? 2 : 1;
      if (swapped.ownerOf(idx0) != curLocale_) ++st.counterfactualRemote;
    }
  }

  // ---- execution -----------------------------------------------------------

  Value callFunction(FuncId f, std::vector<Value> args) {
    if (++callDepth_ > 2000) stop("call depth limit exceeded", m_.function(f).loc);
    const ir::Function& fn = m_.function(f);
    Frame fr;
    fr.fid = f;
    fr.fn = &fn;
    fr.args = std::move(args);
    fr.regs.resize(fn.numInstrs());
    fr.slots.resize(numSlots_[f]);
    int64_t savedLocale = curLocale_;
    size_t savedOnDepth = onStack_.size();
    Value ret = execFrame(fr);
    curLocale_ = savedLocale;
    onStack_.resize(savedOnDepth);
    --callDepth_;
    return ret;
  }

  Value execFrame(Frame& fr) {
    const ir::Function& fn = *fr.fn;
    ir::BlockId block = 0;
    size_t ip = 0;
    for (;;) {
      if (block >= fn.blocks.size()) stop("branch to a missing block", fn.loc);
      const ir::BasicBlock& bb = fn.blocks[block];
      if (ip >= bb.instrs.size()) stop("fell off block end", fn.loc);
      InstrId id = bb.instrs[ip];
      const Instr& in = fn.instrs[id];
      if (++steps_ > p_.stepBudget) throw BudgetStop{};

      switch (in.op) {
        case Opcode::Alloca: {
          int32_t slot = allocaSlot_[fr.fid][id];
          fr.regs[id] = Value::makeRef(&fr.slots[slot]);
          break;
        }
        case Opcode::Load: {
          Value* pv = refOfCk(fr, in.ops[0], in.loc);
          fr.regs[id] = *pv;
          break;
        }
        case Opcode::Store: {
          Value* pv = refOfCk(fr, in.ops[1], in.loc);
          Value v = evalOp(fr, in.ops[0]);
          maybeName(fr, in, v);
          *pv = std::move(v);
          break;
        }
        case Opcode::FieldAddr: {
          Value* rec = refOfCk(fr, in.ops[0], in.loc);
          if (rec->kind != VKind::Record || in.imm >= rec->elems.size())
            stop("bad field access", in.loc);
          fr.regs[id] = Value::makeRef(&rec->elems[in.imm]);
          break;
        }
        case Opcode::TupleAddr: {
          Value* tup = refOfCk(fr, in.ops[0], in.loc);
          if (tup->kind != VKind::Tuple) stop("bad tuple element access", in.loc);
          uint64_t idx =
              in.ops.size() == 2
                  ? static_cast<uint64_t>(asIntCk(evalOp(fr, in.ops[1]), in.loc) - 1)
                  : in.imm;
          if (idx >= tup->elems.size()) stop("tuple index out of range", in.loc);
          fr.regs[id] = Value::makeRef(&tup->elems[idx]);
          break;
        }
        case Opcode::IndexAddr: {
          Value base = evalOp(fr, in.ops[0]);
          if (base.kind != VKind::Array || !base.arr) stop("indexing a non-array", in.loc);
          Value* pv = nullptr;
          int64_t idx0 = 0;
          if (in.imm & 1) {
            int64_t k = asIntCk(evalOp(fr, in.ops[1]), in.loc);
            pv = base.arr->atLinear(k);
            if (pv) {
              int64_t idx[3];
              base.arr->dom.delinearize(k, idx);
              idx0 = idx[0];
            }
          } else {
            int64_t idx[3] = {0, 0, 0};
            int n = static_cast<int>(in.ops.size()) - 1;
            for (int d = 0; d < n && d < 3; ++d)
              idx[d] = asIntCk(evalOp(fr, in.ops[d + 1]), in.loc);
            pv = base.arr->at(idx);
            idx0 = idx[0];
          }
          if (!pv) stop("array index out of bounds", in.loc);
          noteAccess(fr, id, in, base.arr.get(), idx0, (in.imm & 2) != 0,
                     base.arr->isView());
          fr.regs[id] = Value::makeRef(pv);
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
            stop("tuple access on non-tuple", in.loc);
          uint64_t idx =
              in.ops.size() == 2
                  ? static_cast<uint64_t>(asIntCk(evalOp(fr, in.ops[1]), in.loc) - 1)
                  : in.imm;
          if (idx >= t.elems.size()) stop("tuple index out of range", in.loc);
          fr.regs[id] = t.elems[idx];
          break;
        }
        case Opcode::RecordNew:
          fr.regs[id] = defaultValue(in.type);
          break;
        case Opcode::DomainMake: {
          DomainVal d;
          d.rank = static_cast<uint8_t>(in.imm);
          if (d.rank > 3 || in.ops.size() < 2u * d.rank)
            stop("malformed domain literal", in.loc);
          for (uint8_t k = 0; k < d.rank; ++k) {
            d.lo[k] = asIntCk(evalOp(fr, in.ops[2 * k]), in.loc);
            d.hi[k] = asIntCk(evalOp(fr, in.ops[2 * k + 1]), in.loc);
          }
          fr.regs[id] = Value::makeDomain(d);
          break;
        }
        case Opcode::DomainExpand: {
          Value d = evalOp(fr, in.ops[0]);
          if (d.kind != VKind::Domain) stop("expand on non-domain", in.loc);
          fr.regs[id] =
              Value::makeDomain(d.dom.expand(asIntCk(evalOp(fr, in.ops[1]), in.loc)));
          break;
        }
        case Opcode::DomainSize: {
          Value d = evalOp(fr, in.ops[0]);
          if (d.kind == VKind::Domain) fr.regs[id] = Value::makeInt(d.dom.size());
          else if (d.kind == VKind::Array && d.arr)
            fr.regs[id] = Value::makeInt(d.arr->dom.size());
          else stop("size of a non-domain", in.loc);
          break;
        }
        case Opcode::DomainDim: {
          Value d = evalOp(fr, in.ops[0]);
          DomainVal dom;
          if (d.kind == VKind::Domain) dom = d.dom;
          else if (d.kind == VKind::Array && d.arr) dom = d.arr->dom;
          else stop("dim of a non-domain", in.loc);
          uint32_t dim = in.imm / 2;
          bool hi = in.imm % 2;
          if (dim >= dom.rank) stop("domain dim out of range", in.loc);
          fr.regs[id] = Value::makeInt(hi ? dom.hi[dim] : dom.lo[dim]);
          break;
        }
        case Opcode::ArrayNew: {
          Value d = evalOp(fr, in.ops[0]);
          if (d.kind != VKind::Domain) stop("array over a non-domain", in.loc);
          TypeId elem = m_.types().get(in.type).elem;
          fr.regs[id] = makeArray(d.dom, elem, in.loc);
          break;
        }
        case Opcode::ArrayView: {
          Value base = evalOp(fr, in.ops[0]);
          Value d = evalOp(fr, in.ops[1]);
          if (base.kind != VKind::Array || !base.arr) stop("view of a non-array", in.loc);
          if (d.kind != VKind::Domain) stop("view over a non-domain", in.loc);
          auto view = std::make_shared<ArrayObj>();
          view->dom = d.dom;
          view->base = base.arr->base ? base.arr->base : base.arr;
          Value v;
          v.kind = VKind::Array;
          v.arr = std::move(view);
          fr.regs[id] = std::move(v);
          break;
        }
        case Opcode::Call: {
          if (in.extra.func >= m_.numFunctions()) stop("call to a missing function", in.loc);
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
          block = asBoolCk(c, in.loc) ? in.target0 : in.target1;
          ip = 0;
          continue;
        }
        case Opcode::Spawn:
          execSpawn(fr, in);
          break;
        case Opcode::IterOverhead:
          break;
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
        case BinKind::And:
          fr.regs[id] = Value::makeBool(asBoolCk(a, in.loc) && asBoolCk(b, in.loc));
          return;
        case BinKind::Or:
          fr.regs[id] = Value::makeBool(asBoolCk(a, in.loc) || asBoolCk(b, in.loc));
          return;
        default: break;
      }
      if (a.kind == VKind::Bool && b.kind == VKind::Bool) {
        bool r = (k == BinKind::Eq) ? a.b == b.b : a.b != b.b;
        fr.regs[id] = Value::makeBool(r);
        return;
      }
      double x = numCk(a, in.loc), y = numCk(b, in.loc);
      bool r = false;
      switch (k) {
        case BinKind::Eq: r = x == y; break;
        case BinKind::Ne: r = x != y; break;
        case BinKind::Lt: r = x < y; break;
        case BinKind::Le: r = x <= y; break;
        case BinKind::Gt: r = x > y; break;
        case BinKind::Ge: r = x >= y; break;
        default: stop("bad boolean op", in.loc);
      }
      fr.regs[id] = Value::makeBool(r);
      return;
    }
    if (rk == TypeKind::Int) {
      int64_t x = asIntCk(a, in.loc), y = asIntCk(b, in.loc), r = 0;
      switch (k) {
        case BinKind::Add: r = x + y; break;
        case BinKind::Sub: r = x - y; break;
        case BinKind::Mul: r = x * y; break;
        case BinKind::Div:
          if (y == 0) stop("integer division by zero", in.loc);
          r = x / y;
          break;
        case BinKind::Mod:
          if (y == 0) stop("integer modulo by zero", in.loc);
          r = x % y;
          break;
        case BinKind::Min: r = x < y ? x : y; break;
        case BinKind::Max: r = x > y ? x : y; break;
        default: stop("bad integer op", in.loc);
      }
      fr.regs[id] = Value::makeInt(r);
      return;
    }
    double x = numCk(a, in.loc), y = numCk(b, in.loc), r = 0;
    switch (k) {
      case BinKind::Add: r = x + y; break;
      case BinKind::Sub: r = x - y; break;
      case BinKind::Mul: r = x * y; break;
      case BinKind::Div: r = x / y; break;
      case BinKind::Pow: r = std::pow(x, y); break;
      case BinKind::Min: r = x < y ? x : y; break;
      case BinKind::Max: r = x > y ? x : y; break;
      case BinKind::Mod: r = std::fmod(x, y); break;
      default: stop("bad real op", in.loc);
    }
    fr.regs[id] = Value::makeReal(r);
  }

  void execUn(Frame& fr, InstrId id, const Instr& in) {
    using ir::UnKind;
    Value v = evalOp(fr, in.ops[0]);
    switch (in.extra.un) {
      case UnKind::Neg:
        fr.regs[id] = (v.kind == VKind::Int) ? Value::makeInt(-v.i)
                                             : Value::makeReal(-numCk(v, in.loc));
        return;
      case UnKind::Not: fr.regs[id] = Value::makeBool(!asBoolCk(v, in.loc)); return;
      case UnKind::IntToReal:
        fr.regs[id] = Value::makeReal(static_cast<double>(asIntCk(v, in.loc)));
        return;
      case UnKind::RealToInt:
        fr.regs[id] = Value::makeInt(static_cast<int64_t>(numCk(v, in.loc)));
        return;
      case UnKind::Abs:
        fr.regs[id] = (v.kind == VKind::Int) ? Value::makeInt(std::llabs(v.i))
                                             : Value::makeReal(std::fabs(numCk(v, in.loc)));
        return;
      case UnKind::Sqrt: fr.regs[id] = Value::makeReal(std::sqrt(numCk(v, in.loc))); return;
      case UnKind::Sin: fr.regs[id] = Value::makeReal(std::sin(numCk(v, in.loc))); return;
      case UnKind::Cos: fr.regs[id] = Value::makeReal(std::cos(numCk(v, in.loc))); return;
      case UnKind::Exp: fr.regs[id] = Value::makeReal(std::exp(numCk(v, in.loc))); return;
      case UnKind::Floor:
        fr.regs[id] = Value::makeInt(static_cast<int64_t>(std::floor(numCk(v, in.loc))));
        return;
    }
  }

  void execSpawn(Frame& fr, const Instr& in) {
    if (in.extra.func >= m_.numFunctions()) stop("spawn of a missing function", in.loc);
    int64_t lo = asIntCk(evalOp(fr, in.ops[0]), in.loc);
    int64_t hi = asIntCk(evalOp(fr, in.ops[1]), in.loc);
    executedRegions_.insert(in.extra.func);
    if (hi < lo) return;  // empty range: the runtime creates no chunks
    // One call over the whole range: worker chunking partitions [lo, hi], so
    // the union of chunk iterations is exactly this iteration set.
    std::vector<Value> args;
    args.push_back(Value::makeInt(lo));
    args.push_back(Value::makeInt(hi));
    for (size_t k = 2; k < in.ops.size(); ++k) args.push_back(evalOp(fr, in.ops[k]));
    ++parallelDepth_;
    size_t savedAggDepth = aggStack_.size();
    callFunction(in.extra.func, std::move(args));
    aggStack_.resize(savedAggDepth);
    --parallelDepth_;
  }

  void execBuiltin(Frame& fr, InstrId id, const Instr& in) {
    switch (in.extra.builtin) {
      case BuiltinKind::Writeln:
        break;  // output is irrelevant to locality; operands are pure
      case BuiltinKind::Random:
        fr.regs[id] = Value::makeReal(rng_.nextDouble());
        break;
      case BuiltinKind::Clock:
        fr.regs[id] = Value::makeInt(static_cast<int64_t>(steps_));
        break;
      case BuiltinKind::Yield:
      case BuiltinKind::HeapHint:
        break;
      case BuiltinKind::ArrayFill: {
        Value arr = evalOp(fr, in.ops[0]);
        Value v = evalOp(fr, in.ops[1]);
        if (arr.kind != VKind::Array || !arr.arr) stop("fill of a non-array", in.loc);
        int64_t n = arr.arr->dom.size();
        for (int64_t k = 0; k < n; ++k) {
          Value* pv = arr.arr->atLinear(k);
          if (!pv) stop("fill out of bounds", in.loc);
          *pv = v;
        }
        steps_ += static_cast<uint64_t>(n > 0 ? n : 0);
        break;
      }
      case BuiltinKind::ArrayCopy: {
        Value dst = evalOp(fr, in.ops[0]);
        Value src = evalOp(fr, in.ops[1]);
        if (dst.kind != VKind::Array || !dst.arr || src.kind != VKind::Array || !src.arr)
          stop("copy of a non-array", in.loc);
        int64_t n = dst.arr->dom.size();
        if (n != src.arr->dom.size()) stop("array copy size mismatch", in.loc);
        for (int64_t k = 0; k < n; ++k) {
          Value* d = dst.arr->atLinear(k);
          Value* s = src.arr->atLinear(k);
          if (!d || !s) stop("copy out of bounds", in.loc);
          *d = *s;
        }
        steps_ += static_cast<uint64_t>(n > 0 ? n : 0);
        break;
      }
      case BuiltinKind::ConfigGet: {
        Value name = evalOp(fr, in.ops[0]);
        Value def = evalOp(fr, in.ops[1]);
        auto it = p_.configOverrides.find(name.str ? *name.str : "");
        if (it == p_.configOverrides.end()) {
          fr.regs[id] = def;
          break;
        }
        const std::string& s = it->second;
        switch (def.kind) {
          case VKind::Int:
            fr.regs[id] = Value::makeInt(std::strtoll(s.c_str(), nullptr, 10));
            break;
          case VKind::Real:
            fr.regs[id] = Value::makeReal(std::strtod(s.c_str(), nullptr));
            break;
          case VKind::Bool:
            fr.regs[id] = Value::makeBool(s == "true" || s == "1");
            break;
          default: fr.regs[id] = def; break;
        }
        break;
      }
      case BuiltinKind::Dmapped: {
        Value d = evalOp(fr, in.ops[0]);
        if (d.kind != VKind::Domain) stop("dmapped on a non-domain", in.loc);
        DomainVal dv = d.dom;
        dv.distKind = static_cast<uint8_t>(asIntCk(evalOp(fr, in.ops[1]), in.loc));
        dv.distLocales = static_cast<uint16_t>(std::max<uint32_t>(1, p_.numLocales));
        fr.regs[id] = Value::makeDomain(dv);
        break;
      }
      case BuiltinKind::OnBegin: {
        int64_t target = asIntCk(evalOp(fr, in.ops[0]), in.loc);
        int64_t L = std::max<int64_t>(1, p_.numLocales);
        target = ((target % L) + L) % L;
        onStack_.push_back(curLocale_);
        if (target != curLocale_) ++out_.predictedOnForks;
        curLocale_ = target;
        break;
      }
      case BuiltinKind::OnEnd:
        if (!onStack_.empty()) {
          curLocale_ = onStack_.back();
          onStack_.pop_back();
        }
        break;
      case BuiltinKind::HereId:
        fr.regs[id] = Value::makeInt(curLocale_);
        break;
      case BuiltinKind::NumLocales:
        fr.regs[id] = Value::makeInt(std::max<int64_t>(1, p_.numLocales));
        break;
      case BuiltinKind::AggOpen: {
        bool isSrc = asIntCk(evalOp(fr, in.ops[0]), in.loc) != 0;
        aggStack_.push_back(AggState{isSrc});
        fr.regs[id] = Value::makeInt(static_cast<int64_t>(aggStack_.size()) - 1);
        break;
      }
      case BuiltinKind::AggCopy:
        execAggCopy(fr, in);
        break;
      case BuiltinKind::AggClose: {
        int64_t h = asIntCk(evalOp(fr, in.ops[0]), in.loc);
        if (h != static_cast<int64_t>(aggStack_.size()) - 1 || h < 0)
          stop("aggregator closed out of order", in.loc);
        aggStack_.pop_back();
        break;
      }
    }
  }

  void execAggCopy(Frame& fr, const Instr& in) {
    int64_t h = asIntCk(evalOp(fr, in.ops[0]), in.loc);
    if (h < 0 || static_cast<size_t>(h) >= aggStack_.size())
      stop("aggregator used outside its task", in.loc);
    AggState& st = aggStack_[static_cast<size_t>(h)];
    Value remoteArrV = evalOp(fr, in.ops[st.isSrc ? 2 : 1]);
    if (remoteArrV.kind != VKind::Array || !remoteArrV.arr)
      stop("agg.copy element operand is not an array", in.loc);
    int64_t idx[3] = {asIntCk(evalOp(fr, in.ops[st.isSrc ? 3 : 2]), in.loc), 0, 0};
    Value* elem = remoteArrV.arr->at(idx);
    if (!elem) stop("array index out of bounds", in.loc);
    const ArrayObj* own =
        remoteArrV.arr->base ? remoteArrV.arr->base.get() : remoteArrV.arr.get();
    const DomainVal& od = own->dom;
    Entry& e = entryFor(own);
    e.s.distKind = od.distKind;
    int64_t owner;
    if (od.distKind != 0 && od.distLocales > 1 &&
        (owner = od.ownerOf(idx[0])) != curLocale_) {
      if (st.isSrc) {
        ++e.s.aggGets;
        ++out_.predictedAggGets;
      } else {
        ++e.s.aggPuts;
        ++out_.predictedAggPuts;
      }
      ++e.s.pairTransfers[sampling::RunLog::pairKey(curLocale_, owner)];
    } else {
      ++e.s.aggLocal;
    }
    if (st.isSrc) {
      Value* dst = refOfCk(fr, in.ops[1], in.loc);
      *dst = *elem;
    } else {
      *elem = evalOp(fr, in.ops[3]);
    }
  }

  // ---- report assembly -----------------------------------------------------

  void finalize() {
    out_.numLocales = std::max<uint32_t>(1, p_.numLocales);
    // Arrays: only entries that saw traffic, heaviest remote users first.
    for (Entry& e : entries_) {
      if (e.s.accesses + e.s.aggGets + e.s.aggPuts + e.s.aggLocal == 0) continue;
      if (e.s.name.empty()) e.s.name = "<anon>";
      out_.arrays.push_back(e.s);
    }
    std::stable_sort(out_.arrays.begin(), out_.arrays.end(),
                     [](const ArrayStats& a, const ArrayStats& b) {
                       uint64_t ra = a.remoteCount() + a.aggGets + a.aggPuts;
                       uint64_t rb = b.remoteCount() + b.aggGets + b.aggPuts;
                       if (ra != rb) return ra > rb;
                       return a.accesses > b.accesses;
                     });
    // Regions: every task function, executed or not, with its verdict.
    for (FuncId f = 0; f < m_.numFunctions(); ++f) {
      const ir::Function& fn = m_.function(f);
      if (!fn.isTaskFn()) continue;
      RegionReport r;
      r.taskFn = f;
      r.isCoforall = fn.taskKind == ir::TaskKind::Coforall;
      r.loc = fn.spawnLoc;
      if (fn.spawnParent != ir::kNone && fn.spawnParent < m_.numFunctions())
        r.parentName = m_.function(fn.spawnParent).displayName;
      r.executed = executedRegions_.count(f) != 0;
      r.verdict = raceCache_.verdictFor(m_, f);
      out_.regions.push_back(std::move(r));
    }
    deriveFindings();
  }

  void appendFinding(Finding f) { out_.findings.push_back(std::move(f)); }

  std::string pct(double f) const {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(1);
    os << f * 100.0 << "%";
    return os.str();
  }

  void deriveFindings() {
    for (const ArrayStats& a : out_.arrays) {
      double frac = a.countFraction();
      double cf = a.counterfactualFraction();
      // Mis-distribution: mostly remote as distributed, mostly local when
      // the same trace replays under the swapped distribution.
      if (a.distKind != 0 && a.accesses >= 32 && frac >= 0.5 && frac - cf >= 0.25) {
        Finding f;
        f.kind = FindingKind::DistributionMismatch;
        f.variable = a.name;
        f.loc = a.declLoc;
        f.predictedRemoteFraction = frac;
        f.counterfactualRemoteFraction = cf;
        const char* cur = distName(a.distKind);
        const char* alt = distName(a.distKind == 1 ? 2 : 1);
        std::ostringstream os;
        os << "`" << a.name << "` is dmapped " << cur << " but "
           << pct(frac) << " of its " << a.accesses
           << " element accesses are remote";
        if (a.staticallyAffine && a.inductionIndexed)
          os << " (indexed affinely by the loop iterator)";
        os << "; the same accesses under " << alt << " leave only " << pct(cf)
           << " remote — suggest `dmapped " << alt << "`";
        f.message = os.str();
        appendFinding(std::move(f));
      }
      // Missing aggregator: fine-grained naive remote traffic inside a
      // parallel region on an array with no aggregated path.
      if (a.forallRemotePuts >= p_.aggSuggestThreshold && a.aggPuts == 0) {
        Finding f;
        f.kind = FindingKind::MissingAggregator;
        f.variable = a.name;
        f.loc = a.declLoc;
        f.predictedRemoteFraction = frac;
        std::ostringstream os;
        os << "`" << a.name << "` receives " << a.forallRemotePuts
           << " fine-grained remote PUTs from forall bodies with no aggregator"
           << " — suggest `with (var agg = new DstAggregator(int))` and"
           << " `agg.copy(" << a.name << "[i], x)`";
        f.message = os.str();
        appendFinding(std::move(f));
      }
      if (a.forallRemoteGets >= p_.aggSuggestThreshold && a.aggGets == 0) {
        Finding f;
        f.kind = FindingKind::MissingAggregator;
        f.variable = a.name;
        f.loc = a.declLoc;
        f.predictedRemoteFraction = frac;
        std::ostringstream os;
        os << "`" << a.name << "` serves " << a.forallRemoteGets
           << " fine-grained remote GETs from forall bodies with no aggregator"
           << " — suggest `with (var agg = new SrcAggregator(int))` and"
           << " `agg.copy(x, " << a.name << "[i])`";
        f.message = os.str();
        appendFinding(std::move(f));
      }
    }
    for (const RegionReport& r : out_.regions) {
      if (r.verdict.raceFree) continue;
      Finding f;
      f.kind = FindingKind::MayRaceRegion;
      f.variable = r.parentName;
      f.loc = r.loc;
      std::ostringstream os;
      os << (r.isCoforall ? "coforall" : "forall");
      if (!r.parentName.empty()) os << " in " << r.parentName;
      os << " cannot be proven race-free: " << r.verdict.reason
         << "; the deterministic replayer will run it sequentially";
      size_t shown = 0;
      for (const race::Offender& o : r.verdict.offenders) {
        if (shown++ >= 2) break;
        os << " [" << o.what;
        // Offenders may point into an inlined callee: cite its line.
        const ir::Function& fn =
            m_.function(o.fn < m_.numFunctions() ? o.fn : r.taskFn);
        if (o.instr != ir::kNone && o.instr < fn.numInstrs())
          os << " at " << shortLoc(m_, fn.instrs[o.instr].loc);
        os << "]";
      }
      f.message = os.str();
      appendFinding(std::move(f));
    }
    if (out_.truncated) {
      Finding f;
      f.kind = FindingKind::AnalysisTruncated;
      f.loc = m_.mainFunc != ir::kNone ? m_.function(m_.mainFunc).loc : SourceLoc{};
      std::ostringstream os;
      os << "analysis stopped after " << steps_
         << " abstract steps; statistics cover a prefix of the run";
      f.message = os.str();
      appendFinding(std::move(f));
    }
    if (!out_.error.empty()) {
      Finding f;
      f.kind = FindingKind::AnalysisTruncated;
      f.loc = m_.mainFunc != ir::kNone ? m_.function(m_.mainFunc).loc : SourceLoc{};
      f.message = "analysis aborted early: " + out_.error;
      appendFinding(std::move(f));
    }
  }

  struct SiteState {
    int seen = 0;
    int64_t lastIdx = 0;
    int64_t stride = 0;
  };

  const ir::Module& m_;
  const Params& p_;
  LintReport& out_;
  Rng rng_;

  std::vector<std::vector<int32_t>> allocaSlot_;
  std::vector<uint32_t> numSlots_;
  std::vector<Value> globals_;

  int64_t curLocale_ = 0;
  std::vector<int64_t> onStack_;
  std::vector<AggState> aggStack_;
  int parallelDepth_ = 0;
  uint32_t callDepth_ = 0;
  uint64_t steps_ = 0;

  std::vector<Entry> entries_;
  std::unordered_map<const ArrayObj*, size_t> index_;
  std::unordered_map<uint64_t, SiteState> sites_;
  std::unordered_map<uint64_t, std::pair<bool, bool>> affineCache_;
  mutable bool sawInduction_ = false;
  std::unordered_set<FuncId> executedRegions_;
  race::RaceCache raceCache_;
};

}  // namespace

LintReport lint(const ir::Module& m, const Params& p) {
  LintReport out;
  Mirror mirror(m, p, out);
  mirror.run();
  return out;
}

}  // namespace cb::an::loc
