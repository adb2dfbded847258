// Bytecode execution engine with deterministic parallel worker-stream replay.
//
// Executes the pre-decoded flat form produced by bytecode.cpp over the rule
// core in runtime/semantics.h. Every cycle charge, sample point, error
// message and log record therefore matches the tree-walking interpreter in
// interp.cpp (the oracle behind RunOptions::referenceInterp), which checks
// this engine's lowering, fused superinstructions, pre-decoded operands and
// parallel-replay merge; tests/test_exec_diff.cpp enforces the equivalence.
//
// Parallel replay: a top-level forall/coforall whose SpawnPlan proved the
// tasks independent may execute its worker streams as tasks on the process
// scheduler (support/scheduler.h), or inline when the region is small. The
// sequential path already runs each worker stream's tasks back-to-back on a
// continuous per-stream virtual clock (Pmu::setClock at a task boundary is
// the identity there: after a charge, next == (clock/th+1)*th always
// holds), so one job per worker stream, each with a thread-local Ctx and
// private sample/output/alloc/cycle sinks, reproduces the exact same
// per-stream artefacts; the main thread then merges them in canonical
// global task order. Anything the analysis could not prove falls back to
// the sequential path, and so does every region of an observed run
// (rt::lint's access observer sees accesses in the canonical order).
#include "runtime/exec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/locality.h"
#include "runtime/bytecode.h"
#include "runtime/semantics.h"
#include "support/common.h"
#include "support/scheduler.h"
#include "support/thread_pool.h"

namespace cb::rt {

using ir::FuncId;
using ir::InstrId;
using ir::TypeKind;
using sem::fail;

namespace {

const Value kEmptyValue{};

/// Predicted instructions (Engine::runParallel) below which a replayable region
/// runs its worker streams inline instead of forking them onto the
/// scheduler. DESIGN.md §7l gives the measurement behind the value.
constexpr double kMinForkInstructions = 50000;

// In-place Value writes for the hot paths. A plain `v = Value::makeInt(x)`
// move-assignment swaps in the temporary's (empty) elems buffer, throwing
// away whatever capacity `v` had accumulated; in tuple-heavy code that turns
// every register write into an allocator round-trip. These helpers overwrite
// the scalar payload directly and only touch the owning members when the old
// value actually held something, so pooled frames keep their element
// capacity warm across calls.

inline void clearHeavy(Value& v) {
  if (__builtin_expect(!v.elems.empty(), 0)) v.elems.clear();
  if (__builtin_expect(v.arr != nullptr, 0)) v.arr.reset();
  if (__builtin_expect(v.str != nullptr, 0)) v.str.reset();
}

inline void setInt(Value& out, int64_t v) {
  clearHeavy(out);
  out.kind = VKind::Int;
  out.i = v;
}

inline void setReal(Value& out, double v) {
  clearHeavy(out);
  out.kind = VKind::Real;
  out.d = v;
}

inline void setBool(Value& out, bool v) {
  clearHeavy(out);
  out.kind = VKind::Bool;
  out.b = v;
}

inline void setRef(Value& out, Value* p) {
  clearHeavy(out);
  out.kind = VKind::Ref;
  out.ref = p;
}

inline void setDomain(Value& out, const DomainVal& d) {
  clearHeavy(out);
  out.kind = VKind::Domain;
  out.dom = d;
}

inline void resetValue(Value& v) {
  clearHeavy(v);
  v.kind = VKind::None;
  v.i = 0;
}

/// `out = in` preserving out's buffers: scalars bypass the member-wise
/// assignment entirely, and tuples/records copy element-by-element so a warm
/// destination (same shape as last iteration) performs no allocator work at
/// all. `out` is always distinct storage from `in` and from `in`'s element
/// tree (registers, slots, array elements and record fields never overlap a
/// source operand), so reads cannot be clobbered mid-copy.
void copyInto(Value& out, const Value& in) {
  if (__builtin_expect(&out == &in, 0)) return;  // slot-forwarded `t = t;`
  if (in.elems.empty()) {
    if (!in.arr && !in.str) {  // scalar / ref / domain
      clearHeavy(out);
      out.kind = in.kind;
      out.i = in.i;
      if (__builtin_expect(in.kind == VKind::Domain, 0)) out.dom = in.dom;
    } else {
      out = in;  // array handle / string: shared_ptr copy
    }
    return;
  }
  // Tuple / record (possibly with array-valued fields — elements recurse).
  if (__builtin_expect(out.arr != nullptr, 0)) out.arr.reset();
  if (__builtin_expect(out.str != nullptr, 0)) out.str.reset();
  out.kind = in.kind;
  out.i = in.i;
  size_t n = in.elems.size();
  if (out.elems.size() != n) out.elems.resize(n);
  for (size_t k = 0; k < n; ++k) copyInto(out.elems[k], in.elems[k]);
}

class Engine : sem::Core {
 public:
  Engine(const ir::Module& m, const RunOptions& opts, an::loc::Collector* obs,
         std::shared_ptr<const bc::CompiledModule> lowered)
      : Core(m, opts),
        obs_(obs),
        lowered_(lowered ? std::move(lowered)
                         : std::make_shared<const bc::CompiledModule>(
                               bc::compile(m, cost_, icacheQ10_))),
        compiled_(*lowered_),
        forkHistory_(compiled_.plans.size()),
        globals_(m.numGlobals()) {
    if (obs_)
      for (const bc::SpawnPlan& p : compiled_.plans) obs_->regionVerdict(p.taskFn, p.verdict);
    globalRefs_.reserve(m.numGlobals());
    for (Value& g : globals_) globalRefs_.push_back(Value::makeRef(&g));
    specialFrames_ = causalActive_ || obs_ != nullptr;
    if (causalTrack_) {
      // Static per-site cost table, straight from the compiled bytecode
      // (bi.cost is already icache-scaled). Seeding the accumulators with it
      // lets the dispatch loop count a static prologue charge with a single
      // increment: the charged cost is bi.cost by construction, so it always
      // equals the seeded uniform cost.
      staticCost_.assign(siteBase_.back(), 0);
      for (FuncId f = 0; f < m.numFunctions(); ++f) {
        const uint32_t base = siteBase_[f];
        for (const bc::BInstr& bi : compiled_.funcs[f].code) {
          staticCost_[base + bi.ir] = bi.cost;
          if (bi.cost2 != 0) staticCost_[base + bi.ir2] = bi.cost2;
        }
      }
    }
  }

  RunResult run() {
    Ctx ctx;
    bindMain(ctx, staticCost_.data());
    return runMain(ctx, [&](FuncId f) { callFunction(ctx, f, {}); });
  }

 private:
  struct EFrame : sem::Pos {
    std::vector<Value> regs;
    std::vector<Value> slots;
    std::vector<Value> args;
  };

  /// One execution stream's state plus its pool of reusable frames. The
  /// main thread owns one Ctx for the whole run; each parallel-replay stream
  /// gets a private Ctx whose sinks are merged canonically afterwards. No
  /// Engine state is written through a worker Ctx.
  struct Ctx : sem::Stream {
    std::vector<std::unique_ptr<EFrame>> frameStore;
    std::vector<EFrame*> freeFrames;
  };

  // ---- operands / values --------------------------------------------------

  const Value& rd(Ctx&, EFrame& fr, const bc::BOperand& o) const {
    switch (o.k) {
      case bc::BOperand::K::Reg: return fr.regs[o.idx];
      case bc::BOperand::K::Arg: return fr.args[o.idx];
      case bc::BOperand::K::Const: return compiled_.constPool[o.idx];
      case bc::BOperand::K::Global: return globalRefs_[o.idx];
      case bc::BOperand::K::Slot: return fr.slots[o.idx];
      default: return kEmptyValue;
    }
  }

  Value* refOf(Ctx& c, EFrame& fr, const bc::BOperand& o, SourceLoc loc) const {
    const Value& x = rd(c, fr, o);
    if (x.kind != VKind::Ref) fail("expected an address value", loc);
    return x.ref;
  }

  /// Record field-domain thunks run on `c`; the observer sees every array
  /// allocation (sem::Core::defaultValue/makeArray).
  auto thunk(Ctx& c) {
    return [this, &c](FuncId f) { return callFunction(c, f, {}); };
  }
  auto allocHook() {
    return [this](const ArrayObj* a, FuncId fn, InstrId ir) {
      if (obs_)
        obs_->arrayAllocated(a, fn != ir::kNone ? m_.function(fn).instrs[ir].loc : SourceLoc{});
    };
  }

  // ---- calls / dispatch ---------------------------------------------------

  EFrame* acquireFrame(Ctx& c) {
    if (!c.freeFrames.empty()) {
      EFrame* f = c.freeFrames.back();
      c.freeFrames.pop_back();
      return f;
    }
    c.frameStore.push_back(std::make_unique<EFrame>());
    return c.frameStore.back().get();
  }

  /// Acquires and zeroes a frame for `f`, preserving the pooled vectors'
  /// capacity (including each element's tuple-buffer capacity).
  EFrame* setupFrame(Ctx& c, FuncId f, const bc::BFunc& bf) {
    EFrame* fr = acquireFrame(c);
    fr->fid = f;
    // Registers are never read before the defining instruction has executed
    // in this activation (IR operands reference dominating defs), so stale
    // contents from a previous pooled use need no reset — every handler
    // overwrites its destination fully. Keeping stale tuples alive preserves
    // their element buffers, which makes loop-carried TupleMake/copyInto
    // allocation-free. Slots DO need resetting: a declared-but-uninitialized
    // slot (e.g. a domain var before its store) must read back as None,
    // exactly like the reference interpreter's freshly-constructed frame.
    if (fr->regs.size() != bf.numRegs) fr->regs.resize(bf.numRegs);
    if (fr->slots.size() != bf.numSlots) fr->slots.resize(bf.numSlots);
    for (uint32_t s : bf.resetSlots) resetValue(fr->slots[s]);
    fr->ir = 0;
    return fr;
  }

  void enterAndRun(Ctx& c, FuncId f, EFrame* fr, Value& out) {
    sem::CallScope sc = sem::enter(c, fr);
    execFrame(c, *fr, compiled_.funcs[f], m_.function(f), out);
    sem::leave(c, sc);
    fr->args.clear();
    c.freeFrames.push_back(fr);
  }

  /// Hot Call path: arguments are copied straight from the caller's operand
  /// window into the pooled callee frame; the return value lands in `out`.
  void callFunctionOps(Ctx& c, FuncId f, EFrame& caller, const bc::BOperand* argOps,
                       uint32_t n, Value& out) {
    const bc::BFunc& bf = compiled_.funcs[f];
    EFrame* fr = setupFrame(c, f, bf);
    if (fr->args.size() != n) fr->args.resize(n);
    for (uint32_t k = 0; k < n; ++k) copyInto(fr->args[k], rd(c, caller, argOps[k]));
    enterAndRun(c, f, fr, out);
  }

  /// Cold path (spawn tasks, module init, field-domain thunks): takes
  /// materialized arguments.
  Value callFunction(Ctx& c, FuncId f, std::vector<Value> args) {
    const bc::BFunc& bf = compiled_.funcs[f];
    EFrame* fr = setupFrame(c, f, bf);
    fr->args = std::move(args);
    Value ret;
    enterAndRun(c, f, fr, ret);
    return ret;
  }

  /// Bool-typed Bin ops produce a plain bool so CmpBr can branch without
  /// materializing a Value.
  bool evalBoolBin(Ctx& c, EFrame& fr, const bc::BInstr& bi, const ir::Function& irFn) const {
    using ir::BinKind;
    const Value& a = rd(c, fr, bi.a);
    const Value& b = rd(c, fr, bi.b);
    BinKind k = static_cast<BinKind>(bi.sub);
    switch (k) {
      case BinKind::And: return a.asBool() && b.asBool();
      case BinKind::Or: return a.asBool() || b.asBool();
      default: break;
    }
    if (a.kind == VKind::Bool && b.kind == VKind::Bool)
      return k == BinKind::Eq ? a.b == b.b : a.b != b.b;
    double x = a.num(), y = b.num();
    switch (k) {
      case BinKind::Eq: return x == y;
      case BinKind::Ne: return x != y;
      case BinKind::Lt: return x < y;
      case BinKind::Le: return x <= y;
      case BinKind::Gt: return x > y;
      case BinKind::Ge: return x >= y;
      default: fail("bad boolean op", irFn.instrs[bi.ir].loc);
    }
  }

  void evalBinInto(Ctx& c, EFrame& fr, const bc::BInstr& bi, const ir::Function& irFn,
                   Value& out) const {
    using ir::BinKind;
    TypeKind rk = static_cast<TypeKind>(bi.rk);
    if (rk == TypeKind::Bool) {
      setBool(out, evalBoolBin(c, fr, bi, irFn));
      return;
    }
    const Value& a = rd(c, fr, bi.a);
    const Value& b = rd(c, fr, bi.b);
    BinKind k = static_cast<BinKind>(bi.sub);
    if (rk == TypeKind::Int) {
      setInt(out, sem::intArith(k, a.asInt(), b.asInt(), irFn.instrs[bi.ir].loc));
      return;
    }
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
      default: fail("bad real op", irFn.instrs[bi.ir].loc);
    }
    setReal(out, r);
  }

  void evalUnInto(Ctx& c, EFrame& fr, const bc::BInstr& bi, Value& out) const {
    using ir::UnKind;
    const Value& v = rd(c, fr, bi.a);
    switch (static_cast<UnKind>(bi.sub)) {
      case UnKind::Neg:
        if (v.kind == VKind::Int) setInt(out, ir::intNeg(v.i));
        else setReal(out, -v.num());
        return;
      case UnKind::Not: setBool(out, !v.asBool()); return;
      case UnKind::IntToReal: setReal(out, static_cast<double>(v.asInt())); return;
      case UnKind::RealToInt: setInt(out, static_cast<int64_t>(v.num())); return;
      case UnKind::Abs:
        if (v.kind == VKind::Int) setInt(out, ir::intAbs(v.i));
        else setReal(out, std::fabs(v.num()));
        return;
      case UnKind::Sqrt: setReal(out, std::sqrt(v.num())); return;
      case UnKind::Sin: setReal(out, std::sin(v.num())); return;
      case UnKind::Cos: setReal(out, std::cos(v.num())); return;
      case UnKind::Exp: setReal(out, std::exp(v.num())); return;
      case UnKind::Floor: setInt(out, static_cast<int64_t>(std::floor(v.num()))); return;
    }
  }

  /// IndexAddr address computation shared by the plain and fused forms,
  /// with the view penalty and the PGAS access rule (sem::Core::
  /// noteArrayAccess). kObserve reports the access to the observer.
  template <bool kObserve>
  Value* indexAddr(Ctx& c, EFrame& fr, const bc::BInstr& bi, const bc::BOperand* ops,
                   SourceLoc loc) {
    const Value& base = rd(c, fr, ops[bi.opBase]);
    if (base.kind != VKind::Array || !base.arr) fail("indexing a non-array", loc);
    Value* p = nullptr;
    int64_t idx0 = 0;
    if (bi.flags & bc::kLinear) {
      int64_t k = rd(c, fr, ops[bi.opBase + 1]).asInt();
      p = base.arr->atLinear(k);
      if (p) {
        if (kObserve || sem::distributed(sem::storageOf(base.arr.get())->dom)) {
          int64_t idx[3];
          base.arr->dom.delinearize(k, idx);
          idx0 = idx[0];
        }
      }
    } else {
      int64_t idx[3] = {0, 0, 0};
      int n = static_cast<int>(bi.nops) - 1;
      for (int d = 0; d < n; ++d) idx[d] = rd(c, fr, ops[bi.opBase + 1 + d]).asInt();
      p = base.arr->at(idx);
      idx0 = idx[0];
    }
    if (!p) fail("array index out of bounds", loc);
    if (base.arr->isView()) charge(c, prof().viewIndexExtra);
    noteArrayAccess(c, base.arr.get(), idx0, (bi.flags & bc::kStore) != 0);
    if constexpr (kObserve) observeAccess(c, fr, bi, base.arr.get(), idx0);
    return p;
  }

  /// The observer's view of one element access. The mass is the access's
  /// latency-model charge: the site's static cost (without the icache
  /// multiplier) plus the view and remote surcharges.
  void observeAccess(const Ctx& c, const EFrame& fr, const bc::BInstr& bi, const ArrayObj* arr,
                     int64_t idx0) {
    an::loc::Access a;
    a.own = sem::storageOf(arr);
    a.fn = fr.fid;
    a.instr = bi.ir;
    a.idx0 = idx0;
    a.locale = c.locale;
    a.owner = sem::ownerOf(a.own, idx0, c.locale);
    a.store = (bi.flags & bc::kStore) != 0;
    a.inTask = c.taskTag != 0;
    a.mass = cost_.cost(m_.function(fr.fid).instrs[bi.ir]);
    if (arr->isView()) a.mass += prof().viewIndexExtra;
    if (a.owner != a.locale) a.mass += a.store ? prof().remotePut : prof().remoteGet;
    obs_->access(a);
  }

  /// A Store of an array value, reported for naming.
  void observeStore(const EFrame& fr, const bc::BInstr& bi, const Value& v) {
    if (v.kind != VKind::Array || !v.arr) return;
    obs_->arrayStored(fr.fid, m_.function(fr.fid).instrs[bi.ir], sem::storageOf(v.arr.get()));
  }

  void execFrame(Ctx& ctx, EFrame& fr, const bc::BFunc& bf, const ir::Function& irFn,
                 Value& out);
  /// The dispatch loop proper, compiled three times: the plain
  /// instantiation carries zero causal-mode or observer code on the
  /// per-instruction path, kCausal tracks/scales with straight-line inline
  /// code, and kObserve reports accesses and array stores to the observer.
  /// execFrame() picks the instantiation once per frame.
  template <bool kCausal, bool kObserve>
  void execFrameT(Ctx& ctx, EFrame& fr, const bc::BFunc& bf, const ir::Function& irFn,
                  Value& out);
  void execBuiltin(Ctx& ctx, EFrame& fr, const bc::BInstr& bi, const bc::BOperand* ops,
                   const ir::Function& irFn) {
    using ir::BuiltinKind;
    auto op = [&](uint32_t k) -> const Value& { return rd(ctx, fr, ops[bi.opBase + k]); };
    SourceLoc loc = irFn.instrs[bi.ir].loc;
    Value& dst = fr.regs[bi.dst];
    switch (static_cast<BuiltinKind>(bi.sub)) {
      case BuiltinKind::Writeln: {
        std::string line;
        for (uint32_t k = 0; k < bi.nops; ++k) {
          if (k) line += " ";
          line += renderValue(op(k));
        }
        writeln(ctx, std::move(line));
        break;
      }
      case BuiltinKind::Random: dst = Value::makeReal(rng_.nextDouble()); break;
      case BuiltinKind::Clock: dst = Value::makeInt(static_cast<int64_t>(ctx.pmu.clock)); break;
      case BuiltinKind::Yield:
      case BuiltinKind::HeapHint: break;
      case BuiltinKind::ArrayFill: arrayFill(ctx, op(0), op(1), loc); break;
      case BuiltinKind::ArrayCopy: arrayCopy(ctx, op(0), op(1), loc); break;
      case BuiltinKind::ConfigGet: dst = configGet(op(0), op(1), loc); break;
      case BuiltinKind::Dmapped: setDomain(dst, dmapped(op(0), op(1).asInt(), loc)); break;
      case BuiltinKind::OnBegin: onBegin(ctx, op(0).asInt()); break;
      case BuiltinKind::OnEnd: onEnd(ctx); break;
      case BuiltinKind::HereId: setInt(dst, ctx.locale); break;
      case BuiltinKind::NumLocales: setInt(dst, numLocales()); break;
      case BuiltinKind::AggOpen: setInt(dst, aggOpen(ctx, op(0).asInt() != 0)); break;
      case BuiltinKind::AggCopy: {
        sem::AggState& st = aggAt(ctx, op(0).asInt(), loc);
        const Value& remote = op(st.isSrc ? 2 : 1);
        int64_t idx0 = op(st.isSrc ? 3 : 2).asInt();
        Value* elem = aggCopy(ctx, st, remote, idx0, loc);
        if (obs_) {
          const ArrayObj* own = sem::storageOf(remote.arr.get());
          obs_->aggCopy(own, ctx.locale, sem::ownerOf(own, idx0, ctx.locale), st.isSrc);
        }
        if (st.isSrc) *refOf(ctx, fr, ops[bi.opBase + 1], loc) = *elem;
        else *elem = op(3);
        break;
      }
      case BuiltinKind::AggClose: aggClose(ctx, op(0).asInt(), loc); break;
    }
  }

  // ---- spawn --------------------------------------------------------------

  /// Appends the storage of every array `v` holds (through record fields,
  /// tuple elements and, when the elements hold arrays, nested arrays).
  /// Elements of one array share a type, so probing the first element
  /// decides whether the others need walking.
  static void collectOwnedArrays(const Value& v, std::vector<const ArrayObj*>& out) {
    switch (v.kind) {
      case VKind::Array: {
        if (!v.arr) return;
        ArrayObj* a = v.arr.get();
        out.push_back(sem::storageOf(a));
        const Value* first = a->atLinear(0);
        if (!first || !holdsArrays(*first)) return;
        for (int64_t k = 0, n = a->dom.size(); k < n; ++k)
          if (const Value* e = a->atLinear(k)) collectOwnedArrays(*e, out);
        return;
      }
      case VKind::Record:
      case VKind::Tuple:
        for (const Value& e : v.elems) collectOwnedArrays(e, out);
        return;
      default: return;
    }
  }
  static bool holdsArrays(const Value& v) {
    if (v.kind == VKind::Array) return true;
    if (v.kind != VKind::Record && v.kind != VKind::Tuple) return false;
    for (const Value& e : v.elems)
      if (holdsArrays(e)) return true;
    return false;
  }

  /// Runtime half of the eligibility decision: resolves every analyzed root
  /// to a concrete array, then rejects the region if two distinct static
  /// roots reach the same storage and one of them is written (unforeseen
  /// aliasing — e.g. the same array captured twice). For roots whose
  /// element-owned sub-arrays the tasks access (RootRef::subArrays), it walks
  /// the root's base storage once and rejects the region when two elements
  /// share a sub-array or a sub-array is some root's storage: the prover
  /// charged every sub-array access to its owning element.
  bool canParallelize(const bc::SpawnPlan& plan, uint64_t numChunks,
                      const std::vector<Value>& extra, Ctx& ctx) {
    if (!plan.verdict.raceFree || obs_) return false;
    if (replayWidth_ <= 1) return false;
    if (numChunks < 2 || opts_.numWorkers < 2) return false;
    // Keep generous headroom so the documented post-merge budget check can
    // never fire before the sequential engine would have failed anyway.
    if (opts_.maxInstructions - *ctx.icount < (1ull << 30)) return false;
    std::vector<const ArrayObj*> canon;
    const std::vector<bc::RootRef>& roots = plan.verdict.roots;
    canon.reserve(roots.size());
    for (const bc::RootRef& rr : roots) {
      const Value* v;
      if (rr.fromGlobal) {
        if (rr.index >= globals_.size()) return false;
        v = &globals_[rr.index];
      } else {
        if (rr.index < 2 || rr.index - 2 >= extra.size()) return false;
        v = &extra[rr.index - 2];
        if (rr.deref) {
          if (v->kind != VKind::Ref) return false;
          v = v->ref;
        }
      }
      for (uint32_t p : rr.path) {
        if ((v->kind != VKind::Record && v->kind != VKind::Tuple) || p >= v->elems.size())
          return false;
        v = &v->elems[p];
      }
      if (v->kind != VKind::Array || !v->arr) return false;
      canon.push_back(sem::storageOf(v->arr.get()));
    }
    for (size_t i = 0; i < canon.size(); ++i)
      for (size_t j = i + 1; j < canon.size(); ++j)
        if (canon[i] == canon[j] && (roots[i].written || roots[j].written))
          return false;
    std::vector<const ArrayObj*> owners, subs;
    for (size_t i = 0; i < canon.size(); ++i)
      if (roots[i].subArrays &&
          std::find(owners.begin(), owners.end(), canon[i]) == owners.end())
        owners.push_back(canon[i]);
    if (owners.empty()) return true;
    for (const ArrayObj* o : owners)
      if (!o->data.empty() && holdsArrays(o->data.front()))  // one element type
        for (const Value& e : o->data) collectOwnedArrays(e, subs);
    std::sort(subs.begin(), subs.end());
    if (std::adjacent_find(subs.begin(), subs.end()) != subs.end()) return false;
    for (const ArrayObj* c : canon)
      if (std::binary_search(subs.begin(), subs.end(), c)) return false;
    return true;
  }

  /// Replays a region's worker streams: inline when it is predicted small,
  /// else forked onto the scheduler and merged in canonical order.
  void runParallel(Ctx& ctx, uint32_t site, FuncId taskFn, SourceLoc loc,
                   const sem::ChunkPlan& plan, const std::vector<Value>& extra, uint64_t tag,
                   std::vector<uint64_t>& workerEnd);
  void replayForked(Ctx& ctx, FuncId taskFn, SourceLoc loc, const sem::ChunkPlan& plan,
                    const std::vector<Value>& extra, uint64_t tag, uint64_t from,
                    std::vector<uint64_t>& workerEnd);

  void execSpawn(Ctx& ctx, EFrame& fr, const bc::BInstr& bi, const bc::BOperand* ops,
                 const ir::Function& irFn) {
    if (obs_) obs_->spawned(bi.t0);
    int64_t lo = rd(ctx, fr, ops[bi.opBase]).asInt();
    int64_t hi = rd(ctx, fr, ops[bi.opBase + 1]).asInt();
    std::vector<Value> extra;
    for (uint32_t k = 2; k < bi.nops; ++k) extra.push_back(rd(ctx, fr, ops[bi.opBase + k]));
    const bc::SpawnPlan& sp = compiled_.plans[bi.t1];
    sem::ChunkPlan plan(lo, hi, extra, bi.sub == 1, opts_.numWorkers);
    SourceLoc loc = irFn.instrs[bi.ir].loc;
    spawn(
        ctx, plan, bi.t0, bi.ir, sp.verdict.raceFree, loc,
        [&](int64_t a, int64_t b) { callFunction(ctx, bi.t0, sem::taskArgs({a, b}, extra)); },
        [&](uint64_t tag, std::vector<uint64_t>& workerEnd) {
          if (!canParallelize(sp, plan.tasks, extra, ctx)) return false;
          runParallel(ctx, bi.t1, bi.t0, loc, plan, extra, tag, workerEnd);
          return true;
        });
  }

  an::loc::Collector* obs_;  // rt::lint's access observer, or null
  /// Worker streams of one region replayed at once (the TaskGroup cap).
  const uint32_t replayWidth_ =
      ThreadPool::boundedWidth(opts_.replayThreads != 0 ? opts_.replayThreads : opts_.numWorkers);
  std::shared_ptr<const bc::CompiledModule> lowered_;
  const bc::CompiledModule& compiled_;
  /// The last replayed instance of each spawn site (SpawnPlan index).
  struct ForkHistory {
    uint64_t instrs = 0, trips = 0;
  };
  std::vector<ForkHistory> forkHistory_;
  std::vector<Value> globals_;
  std::vector<Value> globalRefs_;  // pre-made makeRef(&globals_[g]) values
  bool specialFrames_ = false;  // causalActive_ or an observer: not the plain loop
  /// Per-site static (icache-scaled) charge cost, indexed like the
  /// accumulator slots; seeds every accumulator so the dispatch loop's
  /// prologue charge is a bare count increment.
  std::vector<uint32_t> staticCost_;
};

// ---------------------------------------------------------------------------
// Parallel worker-stream replay.
// ---------------------------------------------------------------------------

void Engine::runParallel(Ctx& ctx, uint32_t site, FuncId taskFn, SourceLoc loc,
                         const sem::ChunkPlan& plan, const std::vector<Value>& extra,
                         uint64_t tag, std::vector<uint64_t>& workerEnd) {
  ++result_.parallelRegionsReplayed;
  uint64_t icount0 = *ctx.icount;
  ForkHistory& h = forkHistory_[site];
  // Inline chunks take the sequential path's step on this context, straight
  // into the run's sinks: nothing to buffer or merge, the instruction budget
  // checked at the exact crossing instruction, and the first failure ends
  // the region where the sequential path would.
  auto task = [&](int64_t a, int64_t b) {
    callFunction(ctx, taskFn, sem::taskArgs({a, b}, extra));
  };
  // Predicted instructions: the site's previous instance scaled by trip
  // count. A first instance has none, and the static estimate (trips × the
  // task function's instruction count) cannot see the loops inside a task
  // body: it reads 7–900× low on minimd's and clomp's regions. So a first
  // instance runs its first chunk inline and projects that over the chunks.
  uint64_t from = 0;
  double predicted;
  if (h.trips != 0) {
    predicted = static_cast<double>(h.instrs) / h.trips * plan.trips;
  } else {
    runOnStream(ctx, plan, 0, tag, task, workerEnd);
    from = 1;
    predicted = static_cast<double>(*ctx.icount - icount0) * plan.tasks;
  }
  // Below kMinForkInstructions a fork costs more than its streams save.
  if (predicted >= kMinForkInstructions)
    replayForked(ctx, taskFn, loc, plan, extra, tag, from, workerEnd);
  else
    for (uint64_t ti = from; ti < plan.tasks; ++ti)
      runOnStream(ctx, plan, ti, tag, task, workerEnd);
  h = {*ctx.icount - icount0, plan.trips};
}

void Engine::replayForked(Ctx& ctx, FuncId taskFn, SourceLoc loc, const sem::ChunkPlan& plan,
                          const std::vector<Value>& extra, uint64_t tag, uint64_t from,
                          std::vector<uint64_t>& workerEnd) {
  // Chunks [from, tasks) fork as one task per stream, each from the
  // stream's clock in workerEnd, into private sinks merged afterwards.
  uint32_t w = opts_.numWorkers;
  struct TRec {  // one chunk's artefacts: sink ends and counter deltas
    size_t sampleEnd = 0, outputEnd = 0, allocEnd = 0, spanEnd = 0;
    uint64_t icountDelta = 0;
    sem::CommTally comm;
    std::vector<std::pair<uint32_t, uint64_t>> cycles;
  };
  struct StreamRes {
    std::vector<sampling::RawSample> samples;
    std::string output;
    std::vector<sampling::TaskSpan> spans;
    std::vector<std::pair<uint64_t, uint64_t>> allocs;
    std::vector<TRec> recs;
    bool failed = false;
    sem::RunError err;
    uint64_t failTi = 0;
    uint64_t endClock = 0;
  };
  std::vector<StreamRes> streams(w + 1);
  uint32_t usedStreams = static_cast<uint32_t>(std::min<uint64_t>(w, plan.tasks));
  uint64_t workerBudget = opts_.maxInstructions - *ctx.icount;
  size_t nf = m_.numFunctions();
  TaskGroup group(replayWidth_);
  for (uint32_t ws = 1; ws <= usedStreams; ++ws) {
    uint64_t first = ws - 1 + (from > ws - 1 ? (from - ws + w) / w * w : 0);
    if (first >= plan.tasks) continue;
    group.run([&, ws, first] {
      StreamRes& S = streams[ws];
      Ctx wc;
      wc.stream = ws;
      wc.taskTag = tag;
      wc.pmu = sem::Pmu(threshold_, workerEnd[ws]);
      uint64_t local = 0;
      wc.icount = &local;
      wc.maxInstr = workerBudget;
      wc.samples = &S.samples;
      wc.spans = &S.spans;
      wc.output = &S.output;
      std::vector<uint64_t> cyc(nf, 0);
      wc.cycles = cyc.data();
      wc.allocVec = &S.allocs;
      // The plan bails on OnBegin (in callees too), so the region's locale
      // is constant: inherit it.
      wc.locale = ctx.locale;
      if (causalTrack_) {
        wc.acc = &causalAcc_[ws];
        if (!wc.acc->ready()) wc.acc->init(siteBase_, staticCost_.data());
      }
      uint64_t prevIc = 0;
      auto snap = [&] {
        TRec r;
        r.sampleEnd = S.samples.size();
        r.outputEnd = S.output.size();
        r.allocEnd = S.allocs.size();
        r.spanEnd = S.spans.size();
        r.icountDelta = local - prevIc;
        prevIc = local;
        r.comm = std::exchange(wc.comm, {});
        for (size_t f = 0; f < nf; ++f)
          if (cyc[f]) {
            r.cycles.emplace_back(static_cast<uint32_t>(f), cyc[f]);
            cyc[f] = 0;
          }
        S.recs.push_back(std::move(r));
      };
      auto task = [&](int64_t a, int64_t b) {
        callFunction(wc, taskFn, sem::taskArgs({a, b}, extra));
      };
      for (uint64_t ti = first; ti < plan.tasks; ti += w) {
        try {
          runChunk(wc, plan, ti, tag, true, task);
        } catch (const sem::RunError& e) {
          S.failed = true;
          S.err = e;
          S.failTi = ti;
          snap();
          S.endClock = wc.pmu.clock;
          return;
        }
        snap();
      }
      S.endClock = wc.pmu.clock;
    });
  }
  group.wait();

  // Canonical merge in global task order: the artefact sequence becomes
  // indistinguishable from the sequential round-robin execution.
  uint64_t minFail = ~0ull;
  for (uint32_t ws = 1; ws <= usedStreams; ++ws)
    if (streams[ws].failed) minFail = std::min(minFail, streams[ws].failTi);
  std::vector<size_t> cursor(w + 1, 0), sStart(w + 1, 0), oStart(w + 1, 0), aStart(w + 1, 0),
      pStart(w + 1, 0);
  for (uint64_t ti = from; ti < plan.tasks; ++ti) {
    if (ti > minFail) break;
    uint32_t ws = 1 + static_cast<uint32_t>(ti % w);
    StreamRes& S = streams[ws];
    const TRec& r = S.recs[cursor[ws]++];
    result_.log.samples.insert(result_.log.samples.end(),
                               std::make_move_iterator(S.samples.begin() + sStart[ws]),
                               std::make_move_iterator(S.samples.begin() + r.sampleEnd));
    sStart[ws] = r.sampleEnd;
    result_.log.taskSpans.insert(result_.log.taskSpans.end(),
                                 std::make_move_iterator(S.spans.begin() + pStart[ws]),
                                 std::make_move_iterator(S.spans.begin() + r.spanEnd));
    pStart[ws] = r.spanEnd;
    if (r.outputEnd > oStart[ws]) {
      if (opts_.echoWriteln)
        std::fwrite(S.output.data() + oStart[ws], 1, r.outputEnd - oStart[ws], stdout);
      result_.output.append(S.output, oStart[ws], r.outputEnd - oStart[ws]);
      oStart[ws] = r.outputEnd;
    }
    for (size_t j = aStart[ws]; j < r.allocEnd; ++j) {
      auto& slot = result_.log.allocBytesBySite[S.allocs[j].first];
      if (S.allocs[j].second > slot) slot = S.allocs[j].second;
    }
    aStart[ws] = r.allocEnd;
    for (const auto& [f, cyc] : r.cycles) result_.cyclesPerFunction[f] += cyc;
    result_.instructionsExecuted += r.icountDelta;
    ctx.comm += r.comm;
  }
  if (minFail != ~0ull) throw streams[1 + static_cast<uint32_t>(minFail % w)].err;
  // Documented deviation: with parallel streams the global instruction budget
  // is enforced after the region instead of at the exact crossing
  // instruction. canParallelize() requires 2^30 instructions of headroom, so
  // this path is unreachable unless a single region executes > 2^30
  // instructions; the error text matches the sequential engines.
  if (result_.instructionsExecuted > opts_.maxInstructions)
    fail("instruction budget exceeded", loc);
  for (uint32_t ws = 1; ws <= usedStreams; ++ws)
    if (!streams[ws].recs.empty()) workerEnd[ws] = streams[ws].endClock;
}

// ---------------------------------------------------------------------------
// The dispatch loop.
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
#define CB_EXEC_CGOTO 1
#endif

#if CB_EXEC_CGOTO
#define CB_OP(name) L_##name
#define CB_NEXT \
  ++pc;         \
  continue
#else
#define CB_OP(name) case bc::Op::name
#define CB_NEXT \
  ++pc;         \
  continue
#endif

void Engine::execFrame(Ctx& ctx, EFrame& fr, const bc::BFunc& bf, const ir::Function& irFn,
                       Value& out) {
  if (__builtin_expect(specialFrames_, 0)) {
    if (obs_) execFrameT<false, true>(ctx, fr, bf, irFn, out);
    else execFrameT<true, false>(ctx, fr, bf, irFn, out);
  } else {
    execFrameT<false, false>(ctx, fr, bf, irFn, out);
  }
}

template <bool kCausal, bool kObserve>
void Engine::execFrameT(Ctx& ctx, EFrame& fr, const bc::BFunc& bf, const ir::Function& irFn,
                        Value& out) {
  const bc::BInstr* code = bf.code.data();
  const bc::BOperand* ops = bf.operands.data();
  const size_t codeSize = bf.code.size();
  uint32_t pc = 0;

  // Causal-mode state for the per-instruction prologue charge. Everything
  // except the instruction index is loop-invariant for this frame, so it is
  // hoisted here instead of being re-derived through ctx.stack.back() on
  // every instruction the way the generic charge() does — that pointer chase
  // is fine for the rare out-of-line charges (builtins, allocation extras)
  // but dominates tracking overhead when paid per instruction.
  [[maybe_unused]] const bool cscale = causalScaleOn_;
  [[maybe_unused]] CausalAccumulator::Slot* cslots = nullptr;
  if constexpr (kCausal) {
    if (causalTrack_) cslots = ctx.acc->slotData() + siteBase_[fr.fid];
  }
  // Prologue charge for instruction `ir`: identical semantics to
  // charge(ctx, cost), with the causal site lookup resolved against the
  // hoisted frame state. The tracked fast path is a bare count increment:
  // the accumulator slots are seeded with staticCost_, and `cost` here IS
  // that static cost (both come from the same BInstr), so the uniform-cost
  // compare inside CausalAccumulator::charge() would always hit. A causally
  // re-scaled cost no longer matches and takes the exact compare/overlay
  // path instead. Only two values stay live across the loop (cscale,
  // cslots) — everything the cold scaling path needs is recomputed there —
  // to keep register pressure in the dispatch loop flat. Drains never
  // reallocate the slot array, so the cached cslots pointer stays valid
  // across samples and nested calls.
  auto chargePro = [&](uint32_t ir, uint64_t cost) __attribute__((always_inline)) {
    if constexpr (kCausal) {
      if (__builtin_expect(cscale, 0) &&
          causalScaleSites_.count(sampling::RunLog::siteKey(fr.fid, ir)) != 0) {
        cost = causalScaledCost(cost, causalNum_, causalDen_);
        if (cslots != nullptr && cost != 0)
          ctx.acc->charge(siteBase_[fr.fid] + ir, cost);
      } else if (cslots != nullptr && cost != 0) {
        ++cslots[ir].count;  // seeded: uniform == this site's static cost
      }
    }
    ctx.cycles[ctx.curFid] += cost;
    ctx.pmu.clock += cost;
    if (__builtin_expect(ctx.pmu.clock >= ctx.pmu.next, 0)) overflow(ctx);
  };

#if CB_EXEC_CGOTO
  // Must match bc::Op order exactly.
  static const void* kJump[] = {
      &&L_Alloca,     &&L_LoadSlot,  &&L_StoreSlot,  &&L_LoadRef,      &&L_StoreRef,
      &&L_FieldAddr,  &&L_TupleAddr, &&L_IndexAddr,  &&L_Bin,          &&L_Un,
      &&L_TupleMake,  &&L_TupleGet,  &&L_RecordNew,  &&L_DomainMake,   &&L_DomainExpand,
      &&L_DomainSize, &&L_DomainDim, &&L_ArrayNew,   &&L_ArrayView,    &&L_Call,
      &&L_Ret,        &&L_Br,        &&L_CondBr,     &&L_Spawn,        &&L_IterOverhead,
      &&L_Builtin,    &&L_CmpBr,     &&L_IndexLoad,  &&L_IndexStore,   &&L_BinStoreSlot,
      &&L_TupleGetSlot, &&L_TupleGetRef,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) == static_cast<size_t>(bc::Op::Count));
#endif

  for (;;) {
    if (__builtin_expect(pc >= codeSize, 0)) fail("fell off block end", irFn.loc);
    const bc::BInstr& bi = code[pc];
    // Per-instruction prologue: instruction count + budget, skid aging, the
    // icache-scaled static charge. Identical to the tree-walker's.
    fr.ir = bi.ir;
    if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
      fail("instruction budget exceeded", irFn.instrs[bi.ir].loc);
    if (__builtin_expect(skid_ != 0, 0)) tickSkid(ctx);
    chargePro(bi.ir, bi.cost);

#if CB_EXEC_CGOTO
    goto* kJump[static_cast<size_t>(bi.op)];
    {
#else
    switch (bi.op) {
#endif
      CB_OP(Alloca) : {
        setRef(fr.regs[bi.dst], &fr.slots[bi.t0]);
        CB_NEXT;
      }
      CB_OP(LoadSlot) : {
        copyInto(fr.regs[bi.dst], fr.slots[bi.t0]);
        CB_NEXT;
      }
      CB_OP(StoreSlot) : {
        if constexpr (kObserve) observeStore(fr, bi, rd(ctx, fr, bi.a));
        copyInto(fr.slots[bi.t0], rd(ctx, fr, bi.a));
        CB_NEXT;
      }
      CB_OP(LoadRef) : {
        const Value& a = rd(ctx, fr, bi.a);
        if (a.kind != VKind::Ref) fail("expected an address value", irFn.instrs[bi.ir].loc);
        Value* p = a.ref;
        if ((bi.flags & bc::kNestedHandle) && p->kind == VKind::Array)
          charge(ctx, prof().nestedArrayHandle);
        copyInto(fr.regs[bi.dst], *p);
        CB_NEXT;
      }
      CB_OP(StoreRef) : {
        Value* p = refOf(ctx, fr, bi.b, irFn.instrs[bi.ir].loc);
        if constexpr (kObserve) observeStore(fr, bi, rd(ctx, fr, bi.a));
        copyInto(*p, rd(ctx, fr, bi.a));
        CB_NEXT;
      }
      CB_OP(FieldAddr) : {
        Value* rec = refOf(ctx, fr, bi.a, irFn.instrs[bi.ir].loc);
        if (rec->kind != VKind::Record || bi.imm >= rec->elems.size())
          fail("bad field access", irFn.instrs[bi.ir].loc);
        setRef(fr.regs[bi.dst], &rec->elems[bi.imm]);
        CB_NEXT;
      }
      CB_OP(TupleAddr) : {
        Value* tup = refOf(ctx, fr, bi.a, irFn.instrs[bi.ir].loc);
        if (tup->kind != VKind::Tuple) fail("bad tuple element access", irFn.instrs[bi.ir].loc);
        uint64_t idx = (bi.flags & bc::kDynIndex)
                           ? static_cast<uint64_t>(rd(ctx, fr, bi.b).asInt() - 1)
                           : bi.imm;
        if (idx >= tup->elems.size()) fail("tuple index out of range", irFn.instrs[bi.ir].loc);
        setRef(fr.regs[bi.dst], &tup->elems[idx]);
        CB_NEXT;
      }
      CB_OP(IndexAddr) : {
        setRef(fr.regs[bi.dst], indexAddr<kObserve>(ctx, fr, bi, ops, irFn.instrs[bi.ir].loc));
        CB_NEXT;
      }
      CB_OP(Bin) : {
        evalBinInto(ctx, fr, bi, irFn, fr.regs[bi.dst]);
        CB_NEXT;
      }
      CB_OP(Un) : {
        evalUnInto(ctx, fr, bi, fr.regs[bi.dst]);
        CB_NEXT;
      }
      CB_OP(TupleMake) : {
        // Built in place: dst's element buffer (and each element's own
        // buffers) stay warm across loop iterations. Operand registers are
        // always distinct from dst, so no aliasing is possible.
        Value& v = fr.regs[bi.dst];
        if (__builtin_expect(v.arr != nullptr, 0)) v.arr.reset();
        if (__builtin_expect(v.str != nullptr, 0)) v.str.reset();
        v.kind = VKind::Tuple;
        v.elems.resize(bi.nops);
        for (uint32_t k = 0; k < bi.nops; ++k)
          copyInto(v.elems[k], rd(ctx, fr, ops[bi.opBase + k]));
        CB_NEXT;
      }
      CB_OP(TupleGet) : {
        const Value& t = rd(ctx, fr, bi.a);
        if (t.kind != VKind::Tuple && t.kind != VKind::Record)
          fail("tuple access on non-tuple", irFn.instrs[bi.ir].loc);
        uint64_t idx = (bi.flags & bc::kDynIndex)
                           ? static_cast<uint64_t>(rd(ctx, fr, bi.b).asInt() - 1)
                           : bi.imm;
        if (idx >= t.elems.size()) fail("tuple index out of range", irFn.instrs[bi.ir].loc);
        copyInto(fr.regs[bi.dst], t.elems[idx]);
        CB_NEXT;
      }
      CB_OP(RecordNew) : {
        charge(ctx, bi.imm);
        fr.regs[bi.dst] = defaultValue(ctx, bi.t0, thunk(ctx), allocHook());
        CB_NEXT;
      }
      CB_OP(DomainMake) : {
        DomainVal d;
        d.rank = bi.sub;
        for (uint8_t k = 0; k < d.rank; ++k) {
          d.lo[k] = rd(ctx, fr, ops[bi.opBase + 2 * k]).asInt();
          d.hi[k] = rd(ctx, fr, ops[bi.opBase + 2 * k + 1]).asInt();
        }
        setDomain(fr.regs[bi.dst], d);
        CB_NEXT;
      }
      CB_OP(DomainExpand) : {
        const Value& d = rd(ctx, fr, bi.a);
        if (d.kind != VKind::Domain) fail("expand on non-domain", irFn.instrs[bi.ir].loc);
        setDomain(fr.regs[bi.dst], d.dom.expand(rd(ctx, fr, bi.b).asInt()));
        CB_NEXT;
      }
      CB_OP(DomainSize) : {
        const Value& d = rd(ctx, fr, bi.a);
        if (d.kind == VKind::Domain) setInt(fr.regs[bi.dst], d.dom.size());
        else if (d.kind == VKind::Array && d.arr)
          setInt(fr.regs[bi.dst], d.arr->dom.size());
        else fail("size of a non-domain", irFn.instrs[bi.ir].loc);
        CB_NEXT;
      }
      CB_OP(DomainDim) : {
        const Value& d = rd(ctx, fr, bi.a);
        DomainVal dom;
        if (d.kind == VKind::Domain) dom = d.dom;
        else if (d.kind == VKind::Array && d.arr) dom = d.arr->dom;
        else fail("dim of a non-domain", irFn.instrs[bi.ir].loc);
        uint32_t dim = static_cast<uint32_t>(bi.imm / 2);
        bool hi = bi.imm % 2;
        if (dim >= dom.rank) fail("domain dim out of range", irFn.instrs[bi.ir].loc);
        setInt(fr.regs[bi.dst], hi ? dom.hi[dim] : dom.lo[dim]);
        CB_NEXT;
      }
      CB_OP(ArrayNew) : {
        const Value& d = rd(ctx, fr, bi.a);
        if (d.kind != VKind::Domain) fail("array over a non-domain", irFn.instrs[bi.ir].loc);
        fr.regs[bi.dst] = makeArray(ctx, d.dom, bi.t0, fr.fid, bi.ir, thunk(ctx), allocHook());
        CB_NEXT;
      }
      CB_OP(ArrayView) : {
        const Value& base = rd(ctx, fr, bi.a);
        const Value& d = rd(ctx, fr, bi.b);
        if (base.kind != VKind::Array || !base.arr)
          fail("view of a non-array", irFn.instrs[bi.ir].loc);
        if (d.kind != VKind::Domain) fail("view over a non-domain", irFn.instrs[bi.ir].loc);
        auto view = std::make_shared<ArrayObj>();
        view->dom = d.dom;
        view->base = base.arr->base ? base.arr->base : base.arr;
        Value v;
        v.kind = VKind::Array;
        v.arr = std::move(view);
        fr.regs[bi.dst] = std::move(v);
        CB_NEXT;
      }
      CB_OP(Call) : {
        callFunctionOps(ctx, bi.t0, fr, ops + bi.opBase, bi.nops, fr.regs[bi.dst]);
        CB_NEXT;
      }
      CB_OP(Ret) : {
        copyInto(out, rd(ctx, fr, bi.a));
        return;
      }
      CB_OP(Br) : {
        pc = bi.t0;
        continue;
      }
      CB_OP(CondBr) : {
        const Value& c = rd(ctx, fr, bi.a);
        if (c.kind != VKind::Bool) fail("branch on non-bool", irFn.instrs[bi.ir].loc);
        pc = c.b ? bi.t0 : bi.t1;
        continue;
      }
      CB_OP(Spawn) : {
        execSpawn(ctx, fr, bi, ops, irFn);
        CB_NEXT;
      }
      CB_OP(IterOverhead) : { CB_NEXT; }
      CB_OP(Builtin) : {
        execBuiltin(ctx, fr, bi, ops, irFn);
        CB_NEXT;
      }
      CB_OP(CmpBr) : {
        bool cond = evalBoolBin(ctx, fr, bi, irFn);
        // Second component's prologue (the fused CondBr).
        fr.ir = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(skid_ != 0, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        pc = cond ? bi.t0 : bi.t1;
        continue;
      }
      CB_OP(IndexLoad) : {
        Value* p = indexAddr<kObserve>(ctx, fr, bi, ops, irFn.instrs[bi.ir].loc);
        fr.ir = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(skid_ != 0, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        copyInto(fr.regs[bi.dst2], *p);
        CB_NEXT;
      }
      CB_OP(IndexStore) : {
        Value* p = indexAddr<kObserve>(ctx, fr, bi, ops, irFn.instrs[bi.ir].loc);
        fr.ir = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(skid_ != 0, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        copyInto(*p, rd(ctx, fr, bi.a));
        CB_NEXT;
      }
      CB_OP(BinStoreSlot) : {
        // The arithmetic lands directly in the slot; operand reads complete
        // before the write, and the (single-use) Bin register is never read.
        evalBinInto(ctx, fr, bi, irFn, fr.slots[bi.dst2]);
        fr.ir = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(skid_ != 0, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        CB_NEXT;
      }
      CB_OP(TupleGetSlot) : {
        // Part 1 (LoadSlot) prologue already ran; the whole-tuple copy into
        // the load's register is elided (single-use, never re-read). Part 2
        // is the fused TupleGet.
        const Value& t = fr.slots[bi.t0];
        fr.ir = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(skid_ != 0, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        if (t.kind != VKind::Tuple && t.kind != VKind::Record)
          fail("tuple access on non-tuple", irFn.instrs[bi.ir2].loc);
        uint64_t idx = (bi.flags & bc::kDynIndex)
                           ? static_cast<uint64_t>(rd(ctx, fr, bi.b).asInt() - 1)
                           : bi.imm;
        if (idx >= t.elems.size())
          fail("tuple index out of range", irFn.instrs[bi.ir2].loc);
        copyInto(fr.regs[bi.dst2], t.elems[idx]);
        CB_NEXT;
      }
      CB_OP(TupleGetRef) : {
        // TupleAddr then Load through the (single-use, dead) address reg.
        Value* tup = refOf(ctx, fr, bi.a, irFn.instrs[bi.ir].loc);
        if (tup->kind != VKind::Tuple) fail("bad tuple element access", irFn.instrs[bi.ir].loc);
        uint64_t idx = (bi.flags & bc::kDynIndex)
                           ? static_cast<uint64_t>(rd(ctx, fr, bi.b).asInt() - 1)
                           : bi.imm;
        if (idx >= tup->elems.size())
          fail("tuple index out of range", irFn.instrs[bi.ir].loc);
        Value* p = &tup->elems[idx];
        fr.ir = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(skid_ != 0, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        copyInto(fr.regs[bi.dst2], *p);
        CB_NEXT;
      }
#if !CB_EXEC_CGOTO
      default: fail("bad opcode", irFn.loc);
#endif
    }
  }
}

}  // namespace

std::shared_ptr<const bc::CompiledModule> lower(const ir::Module& m, const RunOptions& opts) {
  CostModel cost(sem::costProfileOf(opts));
  return std::make_shared<const bc::CompiledModule>(
      bc::compile(m, cost, sem::icacheQ10(m, cost.profile())));
}

RunResult executeBytecode(const ir::Module& m, const RunOptions& opts,
                          an::loc::Collector* observer,
                          std::shared_ptr<const bc::CompiledModule> lowered) {
  Engine engine(m, opts, observer, std::move(lowered));
  return engine.run();
}

}  // namespace cb::rt
