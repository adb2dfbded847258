// Bytecode execution engine with deterministic parallel worker-stream replay.
//
// Executes the pre-decoded flat form produced by bytecode.cpp. Semantics —
// including every cycle charge, sample point, error message and log record —
// are bit-identical to the tree-walking interpreter in interp.cpp (the
// oracle behind RunOptions::referenceInterp); tests/test_exec_diff.cpp
// enforces this differentially.
//
// Parallel replay: a top-level forall/coforall whose SpawnPlan proved the
// tasks independent may execute its worker streams on OS threads. The
// sequential interpreter already runs each worker stream's tasks
// back-to-back on a continuous per-stream virtual clock (setClock at a
// task boundary is the identity there: after advance(), next ==
// (clock/th+1)*th always holds), so one job per worker stream, each with a
// thread-local Ctx and private sample/output/alloc/cycle sinks, reproduces
// the exact same per-stream artefacts; the main thread then merges them in
// canonical global task order. Anything the analysis could not prove falls
// back to the sequential path, and so does every region of an observed run
// (rt::lint's access observer sees accesses in the canonical order).
#include "runtime/exec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/locality.h"
#include "runtime/bandwidth.h"
#include "runtime/bytecode.h"
#include "support/common.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace cb::rt {

using ir::FuncId;
using ir::InstrId;
using ir::TypeId;
using ir::TypeKind;

namespace {

struct RunError {
  std::string message;
  SourceLoc loc;
};

const Value kEmptyValue{};

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

class Engine {
 public:
  Engine(const ir::Module& m, const RunOptions& opts, an::loc::Collector* obs)
      : m_(m),
        opts_(opts),
        obs_(obs),
        cost_(opts.costProfileOverride
                  ? *opts.costProfileOverride
                  : (opts.fastCostProfile ? CostProfile::fast() : CostProfile::standard())),
        rng_(opts.rngSeed),
        threshold_(opts.sampleThreshold),
        hasSkid_(opts.skidInstructions != 0) {
    std::vector<uint64_t> icacheQ10(m.numFunctions(), 1024);
    const CostProfile& p = cost_.profile();
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
      uint64_t n = m.function(f).numInstrs();
      if (n > p.icacheThresholdInstrs) {
        uint64_t extra = (n - p.icacheThresholdInstrs) * p.icacheSlopeQ10;
        icacheQ10[f] = 1024 + std::min(p.icacheMaxQ10, extra);
      }
    }
    compiled_ = bc::compile(m, cost_, icacheQ10);
    if (obs_)
      for (const bc::SpawnPlan& p : compiled_.plans) obs_->regionVerdict(p.taskFn, p.verdict);
    result_.cyclesPerFunction.assign(m.numFunctions(), 0);
    result_.log.sampleThreshold = opts.sampleThreshold;
    result_.log.numStreams = opts.numWorkers + 1;
    lastBusyEnd_.assign(opts.numWorkers + 1, 0);
    globals_.resize(m.numGlobals());
    globalRefs_.reserve(m.numGlobals());
    for (size_t g = 0; g < m.numGlobals(); ++g)
      globalRefs_.push_back(Value::makeRef(&globals_[g]));
    nestedHandleC_ = p.nestedArrayHandle;
    viewExtraC_ = p.viewIndexExtra;
    spawnPerTaskC_ = p.spawnPerTask;
    arrayNewPerElemC_ = p.arrayNewPerElem;
    arrayFillPerElemC_ = p.arrayFillPerElem;
    arrayCopyPerElemC_ = p.arrayCopyPerElem;
    remoteGetC_ = p.remoteGet;
    remotePutC_ = p.remotePut;
    onForkC_ = p.onFork;
    aggFlushLatencyC_ = p.aggFlushLatency;
    aggPerElemC_ = p.aggPerElemBandwidth;
    aggBufferCapC_ = p.aggBufferCap;
    memBwRateC_ = p.memBandwidthBytesPerKCycle;
    memCacheResC_ = p.memCacheResidentBytes;
    limits0_ = BwLimits::forStream(p, 0, opts.numWorkers);
    limitsW_ = BwLimits::forStream(p, 1, opts.numWorkers);
    bwEnabled_ = limits0_.enabled();
    causalTrack_ = opts.trackCausalSites;
    causalScaleSites_.insert(opts.causalScale.sites.begin(), opts.causalScale.sites.end());
    causalScaleOn_ = !causalScaleSites_.empty();
    causalNum_ = opts.causalScale.num;
    causalDen_ = opts.causalScale.den;
    causalActive_ = causalTrack_ || causalScaleOn_;
    specialFrames_ = causalActive_ || obs_ != nullptr;
    if (causalTrack_) {
      // Dense site index (fid, instr) -> siteBase_[fid] + instr, so the
      // per-charge accumulation is a flat array slot instead of a hash probe.
      siteBase_.assign(m.numFunctions() + 1, 0);
      for (FuncId f = 0; f < m.numFunctions(); ++f)
        siteBase_[f + 1] = siteBase_[f] + static_cast<uint32_t>(m.function(f).numInstrs());
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
      causalAcc_.resize(opts.numWorkers + 1);
    }
  }

  RunResult run() {
    Ctx ctx;
    ctx.icount = &result_.instructionsExecuted;
    ctx.maxInstr = opts_.maxInstructions;
    ctx.samples = &result_.log.samples;
    ctx.output = &result_.output;
    ctx.cycles = result_.cyclesPerFunction.data();
    ctx.allocMap = &result_.log.allocBytesBySite;
    ctx.echo = opts_.echoWriteln;
    ctx.locale = opts_.localeId;
    ctx.commGets = &result_.log.commGets;
    ctx.commPuts = &result_.log.commPuts;
    ctx.commOnForks = &result_.log.commOnForks;
    ctx.commAggGets = &result_.log.commAggGets;
    ctx.commAggPuts = &result_.log.commAggPuts;
    ctx.commAggFlushes = &result_.log.commAggFlushes;
    ctx.commMatrix = &result_.log.commMatrix;
    ctx.commMemStall = &result_.log.commMemStallCycles;
    ctx.commNetStall = &result_.log.commNetStallCycles;
    ctx.commContention = &result_.log.commContentionCycles;
    ctx.spans = &result_.log.taskSpans;
    if (causalTrack_) {
      ctx.acc = &causalAcc_[0];
      ctx.acc->init(siteBase_, staticCost_.data());
    }
    ctx.bw.reset(0, limits0_);
    ctx.next = nextFor(0);
    try {
      if (m_.moduleInitFunc != ir::kNone) callFunction(ctx, m_.moduleInitFunc, {});
      CB_ASSERT(m_.mainFunc != ir::kNone, "module has no main");
      callFunction(ctx, m_.mainFunc, {});
      flushSkid(ctx);
      for (uint32_t ws = 1; ws <= opts_.numWorkers; ++ws)
        emitIdleSamples(ws, lastBusyEnd_[ws], ctx.clock);
      closeSerialSpan(ctx, ctx.clock);
      result_.ok = true;
    } catch (const RunError& e) {
      result_.ok = false;
      result_.error = m_.sourceManager().render(e.loc) + ": " + e.message;
    }
    result_.totalCycles = ctx.clock;
    result_.log.totalCycles = result_.totalCycles;
    return std::move(result_);
  }

 private:
  struct EFrame {
    uint32_t fid = 0;
    std::vector<Value> regs;
    std::vector<Value> slots;
    std::vector<Value> args;
    uint32_t curIr = 0;
  };

  /// Per-execution-thread state. The main thread owns one Ctx for the whole
  /// run; each parallel-replay stream gets a private Ctx whose sinks are
  /// merged canonically afterwards. No Engine state is written through a
  /// worker Ctx.
  struct Ctx {
    uint32_t stream = 0;
    uint32_t curFid = 0;
    uint64_t taskTag = 0;
    uint64_t clock = 0;
    uint64_t next = ~0ull;
    uint64_t* icount = nullptr;
    uint64_t maxInstr = 0;
    std::vector<sampling::RawSample>* samples = nullptr;
    std::string* output = nullptr;
    uint64_t* cycles = nullptr;  // per-function busy cycles
    std::unordered_map<uint64_t, uint64_t>* allocMap = nullptr;       // main thread
    std::vector<std::pair<uint64_t, uint64_t>>* allocVec = nullptr;   // workers
    bool echo = false;
    // PGAS locale simulation: the locale this context currently executes on,
    // the `on`-block restore stack, the comm classification pending for the
    // next sample, and exact comm counters (main thread points straight into
    // result_.log; workers into private tallies merged via TRec deltas).
    int64_t locale = 0;
    std::vector<int64_t> onStack;
    sampling::AccessKind pending = sampling::AccessKind::None;
    int32_t pendingSrc = 0;
    int32_t pendingDst = 0;
    uint64_t* commGets = nullptr;
    uint64_t* commPuts = nullptr;
    uint64_t* commOnForks = nullptr;
    uint64_t* commAggGets = nullptr;
    uint64_t* commAggPuts = nullptr;
    uint64_t* commAggFlushes = nullptr;
    std::map<uint64_t, uint64_t>* commMatrix = nullptr;
    // Bandwidth-ceiling state (runtime/bandwidth.h): chunk-local like the
    // pending access; the stall tallies point into result_.log on the main
    // thread and into per-worker sums merged via TRec deltas.
    BwState bw;
    uint64_t* commMemStall = nullptr;
    uint64_t* commNetStall = nullptr;
    uint64_t* commContention = nullptr;
    /// Open simulated aggregators (AggOpen handle = index, LIFO). Buffers
    /// hold per-destination COUNTS only; values move eagerly at copy time.
    struct AggState {
      bool isSrc;
      std::map<int64_t, uint32_t> pending;
    };
    std::vector<AggState> aggStack;
    /// Causal span state: completed spans sink (main thread points straight
    /// into result_.log.taskSpans, replay workers into per-stream vectors
    /// merged via TRec ranges), the per-site split accrued for the currently
    /// executing segment, and the start of the open main-stream serial
    /// segment (meaningful on the main Ctx only).
    std::vector<sampling::TaskSpan>* spans = nullptr;
    /// Per-stream causal site accumulator (Engine::causalAcc_[stream]):
    /// persistent across regions so a worker Ctx never re-zeroes the slot
    /// array, and per-stream so concurrent replay streams never share one.
    CausalAccumulator* acc = nullptr;
    uint64_t serialStart = 0;
    std::vector<uint32_t> skid;
    std::vector<EFrame*> stack;
    std::vector<sampling::Frame> cachedStack;
    uint64_t stackGen = 0;
    uint64_t cachedGen = ~0ull;
    std::vector<std::unique_ptr<EFrame>> frameStore;
    std::vector<EFrame*> freeFrames;
  };

  [[noreturn]] static void fail(const std::string& msg, SourceLoc loc) {
    throw RunError{msg, loc};
  }

  uint64_t nextFor(uint64_t t) const {
    return threshold_ != 0 ? ((t / threshold_) + 1) * threshold_ : ~0ull;
  }

  // ---- sampling -----------------------------------------------------------

  void emitSample(Ctx& c) {
    if (c.cachedGen != c.stackGen) {
      c.cachedStack.clear();
      c.cachedStack.reserve(c.stack.size());
      for (const EFrame* fr : c.stack) c.cachedStack.push_back({fr->fid, fr->curIr});
      c.cachedGen = c.stackGen;
    } else if (!c.cachedStack.empty()) {
      c.cachedStack.back().instr = c.stack.back()->curIr;
    }
    sampling::RawSample s;
    s.stream = c.stream;
    s.taskTag = c.taskTag;
    s.atCycle = c.clock;
    s.accessKind = c.pending;
    s.srcLocale = c.pendingSrc;
    s.dstLocale = c.pendingDst;
    s.stack = c.cachedStack;
    c.samples->push_back(std::move(s));
    c.pending = sampling::AccessKind::None;  // consumed by this sample
    c.pendingSrc = c.pendingDst = 0;
  }

  void overflow(Ctx& c) {
    while (c.clock >= c.next) {
      c.next += threshold_ == 0 ? ~0ull : threshold_;
      if (!hasSkid_) emitSample(c);
      else c.skid.push_back(opts_.skidInstructions);
    }
  }

  /// Causal charge hook — the bytecode twin of Interp's. The charge site is
  /// the leaf frame's instruction pointer, which fused superinstructions
  /// keep exact (curIr is advanced to ir2 before cost2 is charged), so both
  /// engines see the identical per-charge (site, cost) sequence. The
  /// what-if scale probe (ground-truth oracle re-runs only) stays
  /// out-of-line; the tracking path is the accumulator's 8-byte slot touch.
  inline void charge(Ctx& c, uint64_t cost) {
    if (__builtin_expect(causalActive_, 0) && !c.stack.empty()) {
      EFrame* fr = c.stack.back();
      if (causalScaleOn_ &&
          causalScaleSites_.count(sampling::RunLog::siteKey(fr->fid, fr->curIr)) != 0)
        cost = causalScaledCost(cost, causalNum_, causalDen_);
      if (causalTrack_ && cost != 0)
        c.acc->charge(siteBase_[fr->fid] + fr->curIr, cost);
    }
    c.cycles[c.curFid] += cost;
    c.clock += cost;
    if (__builtin_expect(c.clock >= c.next, 0)) overflow(c);
  }

  // ---- task spans -----------------------------------------------------------

  /// Appends one completed span to `c.spans` (completion order == canonical
  /// emission order). `takeSites` moves the accrued per-site split into the
  /// span — false for nested spans, whose cycles stay with the enclosing
  /// top-level segment.
  void pushSpan(Ctx& c, uint64_t tag, uint32_t chunk, uint32_t stream, uint64_t start,
                uint64_t end, bool takeSites) {
    sampling::TaskSpan sp;
    sp.tag = tag;
    sp.chunk = chunk;
    sp.stream = stream;
    sp.startCycle = start;
    sp.endCycle = end;
    if (takeSites && causalTrack_) {
      sp.sites.reserve(c.acc->lastDrainCount());
      c.acc->drain([&sp](uint32_t fid, uint32_t instr, uint64_t raw, uint64_t s125,
                         uint64_t s2, uint64_t s4) {
        sp.sites.push_back({sampling::RunLog::siteKey(fid, instr), raw, s125, s2, s4});
      });
    }
    c.spans->push_back(std::move(sp));
  }

  /// Closes the open main-stream serial segment at `end` (eliding zero-length
  /// segments) and re-opens it there.
  void closeSerialSpan(Ctx& c, uint64_t end) {
    if (end > c.serialStart) {
      pushSpan(c, 0, 0, 0, c.serialStart, end, true);
    } else if (causalTrack_) {
      c.acc->discard();
    }
    c.serialStart = end;
  }

  void tickSkid(Ctx& c) {
    if (c.skid.empty()) return;
    size_t w = 0;
    for (size_t r = 0; r < c.skid.size(); ++r) {
      if (--c.skid[r] == 0) emitSample(c);
      else c.skid[w++] = c.skid[r];
    }
    c.skid.resize(w);
  }

  void flushSkid(Ctx& c) {
    for (size_t k = 0; k < c.skid.size(); ++k) emitSample(c);
    c.skid.clear();
  }

  void emitIdleSamples(uint32_t stream, uint64_t from, uint64_t to) {
    if (!opts_.sampleIdle || threshold_ == 0) return;
    uint64_t first = (from / threshold_ + 1) * threshold_;
    for (uint64_t t = first; t <= to; t += threshold_) {
      sampling::RawSample s;
      s.stream = stream;
      s.atCycle = t;
      uint64_t k = idleSampleCounter_++;
      if (k % 20 == 19) s.runtimeFrame = sampling::RuntimeFrameKind::ChplTaskYield;
      else if (k % 20 >= 17) s.runtimeFrame = sampling::RuntimeFrameKind::PthreadState;
      else s.runtimeFrame = sampling::RuntimeFrameKind::SchedYield;
      result_.log.samples.push_back(std::move(s));
    }
  }

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

  bool typeOwnsArrays(TypeId t) const {
    const ir::Type& ty = m_.types().get(t);
    switch (ty.kind) {
      case TypeKind::Array: return true;
      case TypeKind::Tuple:
        for (TypeId e : ty.elems)
          if (typeOwnsArrays(e)) return true;
        return false;
      case TypeKind::Record:
        for (const ir::RecordField& f : ty.fields)
          if (typeOwnsArrays(f.type)) return true;
        return false;
      default: return false;
    }
  }

  uint64_t scalarWidth(TypeId t) const {
    const ir::Type& ty = m_.types().get(t);
    switch (ty.kind) {
      case TypeKind::Tuple: {
        uint64_t w = 0;
        for (TypeId e : ty.elems) w += scalarWidth(e);
        return w;
      }
      case TypeKind::Record: {
        uint64_t w = 0;
        for (const ir::RecordField& f : ty.fields) w += scalarWidth(f.type);
        return w;
      }
      default: return 1;
    }
  }

  Value defaultValue(Ctx& c, TypeId t) {
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
        for (TypeId e : ty.elems) v.elems.push_back(defaultValue(c, e));
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
              Value dom = callFunction(c, th->second, {});
              v.elems.push_back(makeArray(c, dom.dom, m_.types().get(ft).elem, ir::kNone, 0));
            } else {
              Value empty;
              empty.kind = VKind::Array;
              v.elems.push_back(std::move(empty));
            }
          } else {
            v.elems.push_back(defaultValue(c, ft));
          }
        }
        return v;
      }
      case TypeKind::Array: {
        Value v;
        v.kind = VKind::Array;
        return v;
      }
      default: return Value{};
    }
  }

  Value makeArray(Ctx& c, const DomainVal& dom, TypeId elemTy, FuncId allocFn,
                  InstrId allocInstr) {
    int64_t n = dom.size();
    auto obj = std::make_shared<ArrayObj>();
    obj->dom = dom;
    uint64_t width = scalarWidth(elemTy);
    if (memBwRateC_ != 0 && static_cast<uint64_t>(n) * width * 8 > memCacheResC_)
      obj->streamBytes = static_cast<uint32_t>(8 * width);
    obj->data.reserve(static_cast<size_t>(n));
    if (n > 0) {
      if (typeOwnsArrays(elemTy)) {
        for (int64_t k = 0; k < n; ++k) obj->data.push_back(defaultValue(c, elemTy));
      } else {
        Value proto = defaultValue(c, elemTy);
        for (int64_t k = 0; k < n; ++k) obj->data.push_back(proto);
      }
    }
    charge(c, arrayNewPerElemC_ * static_cast<uint64_t>(n) * width);
    if (obs_)
      obs_->arrayAllocated(obj.get(), allocFn != ir::kNone
                                          ? m_.function(allocFn).instrs[allocInstr].loc
                                          : SourceLoc{});
    Value v;
    v.kind = VKind::Array;
    v.arr = std::move(obj);
    if (allocFn != ir::kNone) {
      uint64_t key = sampling::RunLog::siteKey(allocFn, allocInstr);
      uint64_t bytes = v.arr->approxBytes();
      if (c.allocVec) {
        c.allocVec->emplace_back(key, bytes);
      } else {
        auto& slot = (*c.allocMap)[key];
        if (bytes > slot) slot = bytes;
      }
    }
    return v;
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
    fr->curIr = 0;
    return fr;
  }

  void enterAndRun(Ctx& c, FuncId f, EFrame* fr, Value& out) {
    c.stack.push_back(fr);
    ++c.stackGen;
    uint32_t savedFid = c.curFid;
    // `on` blocks are lexically scoped: a return from inside one must not
    // leak the switched locale into the caller.
    int64_t savedLocale = c.locale;
    size_t savedOnDepth = c.onStack.size();
    c.curFid = f;
    execFrame(c, *fr, compiled_.funcs[f], m_.function(f), out);
    c.locale = savedLocale;
    c.onStack.resize(savedOnDepth);
    c.stack.pop_back();
    ++c.stackGen;
    c.curFid = savedFid;
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
      int64_t x = a.asInt(), y = b.asInt(), r = 0;
      switch (k) {
        case BinKind::Add: r = x + y; break;
        case BinKind::Sub: r = x - y; break;
        case BinKind::Mul: r = x * y; break;
        case BinKind::Div:
          if (y == 0) fail("integer division by zero", irFn.instrs[bi.ir].loc);
          r = x / y;
          break;
        case BinKind::Mod:
          if (y == 0) fail("integer modulo by zero", irFn.instrs[bi.ir].loc);
          r = x % y;
          break;
        case BinKind::Min: r = x < y ? x : y; break;
        case BinKind::Max: r = x > y ? x : y; break;
        default: fail("bad integer op", irFn.instrs[bi.ir].loc);
      }
      setInt(out, r);
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
        if (v.kind == VKind::Int) setInt(out, -v.i);
        else setReal(out, -v.num());
        return;
      case UnKind::Not: setBool(out, !v.asBool()); return;
      case UnKind::IntToReal: setReal(out, static_cast<double>(v.asInt())); return;
      case UnKind::RealToInt: setInt(out, static_cast<int64_t>(v.num())); return;
      case UnKind::Abs:
        if (v.kind == VKind::Int) setInt(out, std::llabs(v.i));
        else setReal(out, std::fabs(v.num()));
        return;
      case UnKind::Sqrt: setReal(out, std::sqrt(v.num())); return;
      case UnKind::Sin: setReal(out, std::sin(v.num())); return;
      case UnKind::Cos: setReal(out, std::cos(v.num())); return;
      case UnKind::Exp: setReal(out, std::exp(v.num())); return;
      case UnKind::Floor: setInt(out, static_cast<int64_t>(std::floor(v.num()))); return;
    }
  }

  /// PGAS access classification, mirroring Interp::noteArrayAccess: views
  /// defer ownership to their base array; a remote owner charges the GET/PUT
  /// cost and bumps the exact counters; the kind stays pending for the next
  /// sample.
  inline void noteArrayAccess(Ctx& c, const ArrayObj* arr, int64_t idx0, bool isStore) {
    const ArrayObj* own = arr->base ? arr->base.get() : arr;
    const DomainVal& od = own->dom;
    int64_t owner;
    if (od.distKind != 0 && od.distLocales > 1 && (owner = od.ownerOf(idx0)) != c.locale) {
      c.pendingSrc = static_cast<int32_t>(c.locale);
      c.pendingDst = static_cast<int32_t>(owner);
      ++(*c.commMatrix)[sampling::RunLog::pairKey(c.locale, owner)];
      if (isStore) {
        c.pending = sampling::AccessKind::RemotePut;
        ++*c.commPuts;
        charge(c, remotePutC_);
      } else {
        c.pending = sampling::AccessKind::RemoteGet;
        ++*c.commGets;
        charge(c, remoteGetC_);
      }
      if (bwEnabled_) chargeNetBw(c, owner, bwLimits(c).netElemBytes);
    } else {
      c.pending = sampling::AccessKind::Local;
      c.pendingSrc = c.pendingDst = 0;
      if (bwEnabled_) chargeLocalBw(c, own);
    }
  }

  // ---- bandwidth ceilings (mirrors Interp::chargeNetBw/chargeLocalBw) ----

  const BwLimits& bwLimits(const Ctx& c) const {
    return c.stream == 0 ? limits0_ : limitsW_;
  }

  void chargeNetBw(Ctx& c, int64_t peer, uint64_t bytes) {
    const BwLimits& lim = bwLimits(c);
    uint64_t cs = c.bw.cont.note(c.clock, peer, lim);
    if (cs) {
      *c.commContention += cs;
      charge(c, cs);
    }
    uint64_t ns = c.bw.net.consume(c.clock, bytes, lim.netRate, lim.netBurstQ);
    if (ns) {
      *c.commNetStall += ns;
      charge(c, ns);
    }
  }

  void chargeLocalBw(Ctx& c, const ArrayObj* own) {
    const BwLimits& lim = bwLimits(c);
    if (lim.memRate == 0 || own->streamBytes == 0) return;
    uint64_t ms = c.bw.mem.consume(c.clock, own->streamBytes, lim.memRate, lim.memBurstQ);
    if (ms) {
      *c.commMemStall += ms;
      charge(c, ms);
    }
  }

  /// IndexAddr address computation shared by the plain and fused forms;
  /// charges the view penalty and the PGAS remote-access cost exactly where
  /// the tree-walker does. kObserve reports the access to the observer.
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
        const ArrayObj* own = base.arr->base ? base.arr->base.get() : base.arr.get();
        if (kObserve || (own->dom.distKind != 0 && own->dom.distLocales > 1)) {
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
    if (base.arr->isView()) charge(c, viewExtraC_);
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
    a.own = arr->base ? arr->base.get() : arr;
    const DomainVal& od = a.own->dom;
    a.fn = fr.fid;
    a.instr = bi.ir;
    a.idx0 = idx0;
    a.locale = c.locale;
    a.owner = od.distKind != 0 && od.distLocales > 1 ? od.ownerOf(idx0) : c.locale;
    a.store = (bi.flags & bc::kStore) != 0;
    a.inTask = c.taskTag != 0;
    a.mass = cost_.cost(m_.function(fr.fid).instrs[bi.ir]);
    if (arr->isView()) a.mass += viewExtraC_;
    if (a.owner != a.locale) a.mass += a.store ? remotePutC_ : remoteGetC_;
    obs_->access(a);
  }

  /// A Store of an array value, reported for naming.
  void observeStore(const EFrame& fr, const bc::BInstr& bi, const Value& v) {
    if (v.kind != VKind::Array || !v.arr) return;
    obs_->arrayStored(fr.fid, m_.function(fr.fid).instrs[bi.ir],
                      v.arr->base ? v.arr->base.get() : v.arr.get());
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
    switch (static_cast<BuiltinKind>(bi.sub)) {
      case BuiltinKind::Writeln: {
        std::string line;
        for (uint32_t k = 0; k < bi.nops; ++k) {
          if (k) line += " ";
          line += renderValue(rd(ctx, fr, ops[bi.opBase + k]));
        }
        line += "\n";
        if (ctx.echo) std::fputs(line.c_str(), stdout);
        *ctx.output += line;
        break;
      }
      case BuiltinKind::Random:
        fr.regs[bi.dst] = Value::makeReal(rng_.nextDouble());
        break;
      case BuiltinKind::Clock:
        fr.regs[bi.dst] = Value::makeInt(static_cast<int64_t>(ctx.clock));
        break;
      case BuiltinKind::Yield:
      case BuiltinKind::HeapHint:
        break;
      case BuiltinKind::ArrayFill: {
        const Value& arr = rd(ctx, fr, ops[bi.opBase]);
        const Value& v = rd(ctx, fr, ops[bi.opBase + 1]);
        if (arr.kind != VKind::Array || !arr.arr)
          fail("fill of a non-array", irFn.instrs[bi.ir].loc);
        int64_t n = arr.arr->dom.size();
        for (int64_t k = 0; k < n; ++k) *arr.arr->atLinear(k) = v;
        charge(ctx, arrayFillPerElemC_ * static_cast<uint64_t>(n));
        break;
      }
      case BuiltinKind::ArrayCopy: {
        const Value& dst = rd(ctx, fr, ops[bi.opBase]);
        const Value& src = rd(ctx, fr, ops[bi.opBase + 1]);
        if (dst.kind != VKind::Array || !dst.arr || src.kind != VKind::Array || !src.arr)
          fail("copy of a non-array", irFn.instrs[bi.ir].loc);
        int64_t n = dst.arr->dom.size();
        if (n != src.arr->dom.size()) fail("array copy size mismatch", irFn.instrs[bi.ir].loc);
        for (int64_t k = 0; k < n; ++k) *dst.arr->atLinear(k) = *src.arr->atLinear(k);
        charge(ctx, arrayCopyPerElemC_ * static_cast<uint64_t>(n));
        break;
      }
      case BuiltinKind::ConfigGet: {
        const Value& name = rd(ctx, fr, ops[bi.opBase]);
        const Value& def = rd(ctx, fr, ops[bi.opBase + 1]);
        auto it = opts_.configOverrides.find(name.str ? *name.str : "");
        if (it == opts_.configOverrides.end()) {
          fr.regs[bi.dst] = def;
          break;
        }
        const std::string& s = it->second;
        switch (def.kind) {
          case VKind::Int:
            fr.regs[bi.dst] = Value::makeInt(std::strtoll(s.c_str(), nullptr, 10));
            break;
          case VKind::Real:
            fr.regs[bi.dst] = Value::makeReal(std::strtod(s.c_str(), nullptr));
            break;
          case VKind::Bool:
            fr.regs[bi.dst] = Value::makeBool(s == "true" || s == "1");
            break;
          default: fr.regs[bi.dst] = def; break;
        }
        break;
      }
      case BuiltinKind::Dmapped: {
        const Value& d = rd(ctx, fr, ops[bi.opBase]);
        if (d.kind != VKind::Domain) fail("dmapped on a non-domain", irFn.instrs[bi.ir].loc);
        DomainVal dv = d.dom;
        dv.distKind = static_cast<uint8_t>(rd(ctx, fr, ops[bi.opBase + 1]).asInt());
        dv.distLocales = static_cast<uint16_t>(std::max<uint32_t>(1, opts_.numLocales));
        setDomain(fr.regs[bi.dst], dv);
        break;
      }
      case BuiltinKind::OnBegin: {
        int64_t target = rd(ctx, fr, ops[bi.opBase]).asInt();
        int64_t L = std::max<int64_t>(1, opts_.numLocales);
        target = ((target % L) + L) % L;  // wrap like Locales[i % numLocales]
        ctx.onStack.push_back(ctx.locale);
        if (target != ctx.locale) {
          ++*ctx.commOnForks;
          charge(ctx, onForkC_);
        }
        ctx.locale = target;
        break;
      }
      case BuiltinKind::OnEnd:
        if (!ctx.onStack.empty()) {
          ctx.locale = ctx.onStack.back();
          ctx.onStack.pop_back();
        }
        break;
      case BuiltinKind::HereId:
        setInt(fr.regs[bi.dst], ctx.locale);
        break;
      case BuiltinKind::NumLocales:
        setInt(fr.regs[bi.dst], std::max<int64_t>(1, opts_.numLocales));
        break;
      case BuiltinKind::AggOpen: {
        bool isSrc = rd(ctx, fr, ops[bi.opBase]).asInt() != 0;
        ctx.aggStack.push_back(Ctx::AggState{isSrc, {}});
        setInt(fr.regs[bi.dst], static_cast<int64_t>(ctx.aggStack.size()) - 1);
        break;
      }
      case BuiltinKind::AggCopy:
        execAggCopy(ctx, fr, bi, ops, irFn);
        break;
      case BuiltinKind::AggClose: {
        int64_t h = rd(ctx, fr, ops[bi.opBase]).asInt();
        if (h < 0 || static_cast<size_t>(h) != ctx.aggStack.size() - 1 ||
            ctx.aggStack.empty())
          fail("aggregator closed out of order", irFn.instrs[bi.ir].loc);
        Ctx::AggState& st = ctx.aggStack.back();
        for (const auto& [peer, n] : st.pending) {
          if (n == 0) continue;
          ++*ctx.commAggFlushes;
          charge(ctx, aggFlushLatencyC_ + aggPerElemC_ * n);
          if (bwEnabled_) chargeNetBw(ctx, peer, n * bwLimits(ctx).netElemBytes);
        }
        ctx.aggStack.pop_back();
        break;
      }
    }
  }

  /// One simulated agg.copy(), mirroring Interp::execAggCopy: classify the
  /// remote leg, bump the agg counters + matrix, buffer a per-destination
  /// count (flushing at capacity for latency + n*bandwidth), then move the
  /// value eagerly so final state matches the non-aggregated program.
  void execAggCopy(Ctx& ctx, EFrame& fr, const bc::BInstr& bi, const bc::BOperand* ops,
                   const ir::Function& irFn) {
    SourceLoc loc = irFn.instrs[bi.ir].loc;
    int64_t h = rd(ctx, fr, ops[bi.opBase]).asInt();
    if (h < 0 || static_cast<size_t>(h) >= ctx.aggStack.size())
      fail("aggregator used outside its task", loc);
    Ctx::AggState& st = ctx.aggStack[static_cast<size_t>(h)];
    const Value& remoteArrV = rd(ctx, fr, ops[bi.opBase + (st.isSrc ? 2 : 1)]);
    if (remoteArrV.kind != VKind::Array || !remoteArrV.arr)
      fail("agg.copy element operand is not an array", loc);
    int64_t idx[3] = {rd(ctx, fr, ops[bi.opBase + (st.isSrc ? 3 : 2)]).asInt(), 0, 0};
    Value* elem = remoteArrV.arr->at(idx);
    if (!elem) fail("array index out of bounds", loc);
    const ArrayObj* own = remoteArrV.arr->base ? remoteArrV.arr->base.get()
                                               : remoteArrV.arr.get();
    const DomainVal& od = own->dom;
    int64_t owner = ctx.locale;
    if (od.distKind != 0 && od.distLocales > 1) owner = od.ownerOf(idx[0]);
    if (obs_) obs_->aggCopy(own, ctx.locale, owner, st.isSrc);
    if (owner != ctx.locale) {
      ctx.pending = st.isSrc ? sampling::AccessKind::RemoteGet
                             : sampling::AccessKind::RemotePut;
      ctx.pendingSrc = static_cast<int32_t>(ctx.locale);
      ctx.pendingDst = static_cast<int32_t>(owner);
      ++*(st.isSrc ? ctx.commAggGets : ctx.commAggPuts);
      ++(*ctx.commMatrix)[sampling::RunLog::pairKey(ctx.locale, owner)];
      uint32_t& pending = st.pending[owner];
      if (++pending >= aggBufferCapC_) {
        ++*ctx.commAggFlushes;
        charge(ctx, aggFlushLatencyC_ + aggPerElemC_ * pending);
        if (bwEnabled_) chargeNetBw(ctx, owner, pending * bwLimits(ctx).netElemBytes);
        pending = 0;
      }
    } else {
      ctx.pending = sampling::AccessKind::Local;
      ctx.pendingSrc = ctx.pendingDst = 0;
    }
    if (st.isSrc) {
      Value* dst = refOf(ctx, fr, ops[bi.opBase + 1], loc);
      *dst = *elem;
    } else {
      *elem = rd(ctx, fr, ops[bi.opBase + 3]);
    }
  }

  // ---- spawn --------------------------------------------------------------

  uint32_t effectiveReplayThreads() const {
    return ThreadPool::boundedWidth(opts_.replayThreads != 0 ? opts_.replayThreads
                                                             : opts_.numWorkers);
  }

  /// Appends the storage of every array `v` holds (through record fields,
  /// tuple elements and, when the elements hold arrays, nested arrays).
  /// Elements of one array share a type, so probing the first element
  /// decides whether the others need walking.
  static void collectOwnedArrays(const Value& v, std::vector<const ArrayObj*>& out) {
    switch (v.kind) {
      case VKind::Array: {
        if (!v.arr) return;
        ArrayObj* a = v.arr.get();
        out.push_back(a->base ? a->base.get() : a);
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
  bool canParallelize(const bc::SpawnPlan& plan, size_t numChunks,
                      const std::vector<Value>& extra, Ctx& ctx) {
    if (!plan.verdict.raceFree || obs_) return false;
    if (effectiveReplayThreads() <= 1) return false;
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
      canon.push_back(v->arr->base ? v->arr->base.get() : v->arr.get());
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
      for (const Value& e : o->data) collectOwnedArrays(e, subs);
    std::sort(subs.begin(), subs.end());
    if (std::adjacent_find(subs.begin(), subs.end()) != subs.end()) return false;
    for (const ArrayObj* c : canon)
      if (std::binary_search(subs.begin(), subs.end(), c)) return false;
    return true;
  }

  void runParallel(Ctx& ctx, FuncId taskFn, const bc::BInstr& bi, const ir::Function& irFn,
                   const std::vector<std::pair<int64_t, int64_t>>& chunks,
                   const std::vector<Value>& extra, uint64_t tag, uint64_t t0,
                   std::vector<uint64_t>& workerEnd);

  void execSpawn(Ctx& ctx, EFrame& fr, const bc::BInstr& bi, const bc::BOperand* ops,
                 const ir::Function& irFn) {
    if (obs_) obs_->spawned(bi.t0);
    int64_t lo = rd(ctx, fr, ops[bi.opBase]).asInt();
    int64_t hi = rd(ctx, fr, ops[bi.opBase + 1]).asInt();
    std::vector<Value> extra;
    for (uint32_t k = 2; k < bi.nops; ++k) extra.push_back(rd(ctx, fr, ops[bi.opBase + k]));

    std::vector<std::pair<int64_t, int64_t>> chunks;
    int64_t count = hi - lo + 1;
    if (count > 0) {
      if (bi.sub == 1) {
        for (int64_t i = lo; i <= hi; ++i) chunks.emplace_back(i, i);
      } else {
        int64_t w = std::max<int64_t>(1, opts_.numWorkers);
        int64_t per = (count + w - 1) / w;
        for (int64_t c2 = lo; c2 <= hi; c2 += per)
          chunks.emplace_back(c2, std::min(hi, c2 + per - 1));
      }
    }
    charge(ctx, spawnPerTaskC_ * chunks.size());

    uint64_t tag = ++tagCounter_;
    sampling::SpawnRecord rec;
    rec.tag = tag;
    rec.parentTag = ctx.taskTag;
    rec.taskFn = bi.t0;
    rec.spawnInstr = bi.ir;
    rec.preSpawnStack.reserve(ctx.stack.size());
    for (const EFrame* f : ctx.stack) rec.preSpawnStack.push_back({f->fid, f->curIr});
    result_.log.spawns.emplace(tag, std::move(rec));

    flushSkid(ctx);
    uint64_t savedTag = ctx.taskTag;
    uint32_t savedStream = ctx.stream;
    // Each task chunk starts with no pending comm attribution, regardless of
    // whether chunks run here sequentially or on replay threads.
    sampling::AccessKind savedPending = ctx.pending;
    int32_t savedSrc = ctx.pendingSrc, savedDst = ctx.pendingDst;
    BwState savedBw = ctx.bw;  // bandwidth state is chunk-local, like the pending access
    std::vector<EFrame*> savedStack;
    savedStack.swap(ctx.stack);
    ++ctx.stackGen;

    if (savedTag != 0 || savedStream != 0) {
      // Nested spawn: run inline on the current stream (saturated pool).
      ctx.taskTag = tag;
      for (size_t ti = 0; ti < chunks.size(); ++ti) {
        std::vector<Value> args;
        args.reserve(2 + extra.size());
        args.push_back(Value::makeInt(chunks[ti].first));
        args.push_back(Value::makeInt(chunks[ti].second));
        for (const Value& v : extra) args.push_back(v);
        ctx.pending = sampling::AccessKind::None;
        ctx.pendingSrc = ctx.pendingDst = 0;
        uint64_t nStart = ctx.clock;
        ctx.bw.reset(nStart, bwLimits(ctx));
        callFunction(ctx, bi.t0, std::move(args));
        flushSkid(ctx);
        // Nested spans carry no site split — their cycles stay accrued to
        // the enclosing top-level segment's map.
        pushSpan(ctx, tag, static_cast<uint32_t>(ti), ctx.stream, nStart, ctx.clock,
                 /*takeSites=*/false);
      }
    } else {
      uint64_t t0 = ctx.clock;
      closeSerialSpan(ctx, t0);  // the fork ends the main-stream serial segment
      uint32_t w = opts_.numWorkers;
      for (uint32_t ws = 1; ws <= w; ++ws) {
        emitIdleSamples(ws, lastBusyEnd_[ws], t0);
        lastBusyEnd_[ws] = t0;
      }
      std::vector<uint64_t> workerEnd(w + 1, t0);
      ctx.taskTag = tag;
      // Count regions the prover could not clear: depends only on the static
      // verdict (not replay width or runtime aliasing), so the counter is
      // identical across engines and worker counts.
      if (!compiled_.plans[bi.t1].verdict.raceFree) ++result_.log.raceFallbackRegions;
      try {
        if (canParallelize(compiled_.plans[bi.t1], chunks.size(), extra, ctx)) {
          runParallel(ctx, bi.t0, bi, irFn, chunks, extra, tag, t0, workerEnd);
        } else {
          for (size_t ti = 0; ti < chunks.size(); ++ti) {
            uint32_t ws = 1 + static_cast<uint32_t>(ti % w);
            uint64_t chunkStart = workerEnd[ws];
            ctx.stream = ws;
            ctx.clock = workerEnd[ws];
            ctx.next = nextFor(workerEnd[ws]);
            std::vector<Value> args;
            args.reserve(2 + extra.size());
            args.push_back(Value::makeInt(chunks[ti].first));
            args.push_back(Value::makeInt(chunks[ti].second));
            for (const Value& v : extra) args.push_back(v);
            ctx.pending = sampling::AccessKind::None;
            ctx.pendingSrc = ctx.pendingDst = 0;
            ctx.bw.reset(workerEnd[ws], limitsW_);
            callFunction(ctx, bi.t0, std::move(args));
            flushSkid(ctx);
            workerEnd[ws] = ctx.clock;
            pushSpan(ctx, tag, static_cast<uint32_t>(ti), ws, chunkStart, ctx.clock,
                     /*takeSites=*/true);
          }
        }
      } catch (...) {
        // The main stream's clock never moved during the region; leave the
        // Ctx exactly where the tree-walker's pmu would be on this error
        // path (clock(0) == t0) before unwinding to run().
        ctx.stream = 0;
        ctx.clock = t0;
        ctx.next = nextFor(t0);
        throw;
      }
      uint64_t tEnd = t0;
      for (uint32_t ws = 1; ws <= w; ++ws) tEnd = std::max(tEnd, workerEnd[ws]);
      for (uint32_t ws = 1; ws <= w; ++ws) {
        emitIdleSamples(ws, workerEnd[ws], tEnd);
        lastBusyEnd_[ws] = tEnd;
      }
      ctx.stream = 0;
      ctx.clock = tEnd;
      ctx.next = nextFor(tEnd);
      ctx.serialStart = tEnd;  // the join re-opens the main-stream serial segment
    }

    ctx.stack.swap(savedStack);
    ++ctx.stackGen;
    ctx.taskTag = savedTag;
    ctx.stream = savedStream;
    ctx.pending = savedPending;
    ctx.pendingSrc = savedSrc;
    ctx.pendingDst = savedDst;
    ctx.bw = savedBw;
  }

  const ir::Module& m_;
  RunOptions opts_;
  an::loc::Collector* obs_;  // rt::lint's access observer, or null
  CostModel cost_;
  bc::CompiledModule compiled_;
  Rng rng_;
  RunResult result_;

  std::vector<Value> globals_;
  std::vector<Value> globalRefs_;  // pre-made makeRef(&globals_[g]) values
  uint64_t threshold_;
  bool hasSkid_;
  uint64_t tagCounter_ = 0;
  uint64_t idleSampleCounter_ = 0;
  std::vector<uint64_t> lastBusyEnd_;
  std::unique_ptr<ThreadPool> pool_;

  uint64_t nestedHandleC_ = 0, viewExtraC_ = 0, spawnPerTaskC_ = 0;
  uint64_t arrayNewPerElemC_ = 0, arrayFillPerElemC_ = 0, arrayCopyPerElemC_ = 0;
  uint64_t remoteGetC_ = 0, remotePutC_ = 0, onForkC_ = 0;
  uint64_t aggFlushLatencyC_ = 0, aggPerElemC_ = 0, aggBufferCapC_ = 0;
  uint64_t memBwRateC_ = 0, memCacheResC_ = 0;
  BwLimits limits0_;
  BwLimits limitsW_;
  bool bwEnabled_ = false;

  // Causal what-if state (interp.h: trackCausalSites / causalScale).
  bool causalTrack_ = false;
  bool causalScaleOn_ = false;
  bool causalActive_ = false;
  bool specialFrames_ = false;  // causalActive_ or an observer: not the plain loop
  uint32_t causalNum_ = 1;
  uint32_t causalDen_ = 1;
  std::unordered_set<uint64_t> causalScaleSites_;
  /// Prefix sums of per-function instruction counts: the dense site index
  /// of (fid, instr) is siteBase_[fid] + instr (built only under
  /// trackCausalSites).
  std::vector<uint32_t> siteBase_;
  /// Per-site static (icache-scaled) charge cost, indexed like the
  /// accumulator slots; seeds every accumulator so the dispatch loop's
  /// prologue charge is a bare count increment.
  std::vector<uint32_t> staticCost_;
  /// One accumulator per stream (0 = main, 1..numWorkers = replay workers),
  /// lazily slot-sized on each stream's first charge and reused across
  /// regions. Safe under parallel replay: a stream never runs concurrently
  /// with itself.
  std::vector<CausalAccumulator> causalAcc_;
};

// ---------------------------------------------------------------------------
// Parallel worker-stream replay.
// ---------------------------------------------------------------------------

void Engine::runParallel(Ctx& ctx, FuncId taskFn, const bc::BInstr& bi,
                         const ir::Function& irFn,
                         const std::vector<std::pair<int64_t, int64_t>>& chunks,
                         const std::vector<Value>& extra, uint64_t tag, uint64_t t0,
                         std::vector<uint64_t>& workerEnd) {
  uint32_t w = opts_.numWorkers;
  struct TRec {
    size_t sampleEnd = 0, outputEnd = 0, allocEnd = 0;
    uint64_t icountDelta = 0;
    // Comm counters are commutative sums, so per-chunk deltas merged in
    // canonical task order reproduce the sequential totals exactly. The
    // same holds cell-wise for the locale-pair matrix.
    uint64_t gets = 0, puts = 0, forks = 0;
    uint64_t aggGets = 0, aggPuts = 0, aggFlushes = 0;
    uint64_t memStall = 0, netStall = 0, contention = 0;
    size_t spanEnd = 0;
    std::vector<std::pair<uint64_t, uint64_t>> matrix;
    std::vector<std::pair<uint32_t, uint64_t>> cycles;
  };
  struct StreamRes {
    std::vector<sampling::RawSample> samples;
    std::string output;
    std::vector<sampling::TaskSpan> spans;
    std::vector<std::pair<uint64_t, uint64_t>> allocs;
    std::vector<TRec> recs;
    bool failed = false;
    std::string errMsg;
    SourceLoc errLoc;
    uint64_t failTi = 0;
    uint64_t endClock = 0;
  };
  std::vector<StreamRes> streams(w + 1);
  uint32_t usedStreams = static_cast<uint32_t>(std::min<size_t>(w, chunks.size()));
  uint64_t workerBudget = opts_.maxInstructions - *ctx.icount;
  size_t nf = m_.numFunctions();

  ++result_.parallelRegionsReplayed;
  if (!pool_) pool_ = std::make_unique<ThreadPool>(effectiveReplayThreads());
  for (uint32_t ws = 1; ws <= usedStreams; ++ws) {
    pool_->submit([&, ws] {
      StreamRes& S = streams[ws];
      Ctx wc;
      wc.stream = ws;
      wc.taskTag = tag;
      wc.clock = t0;
      wc.next = nextFor(t0);
      uint64_t local = 0;
      wc.icount = &local;
      wc.maxInstr = workerBudget;
      wc.samples = &S.samples;
      wc.output = &S.output;
      std::vector<uint64_t> cyc(nf, 0);
      wc.cycles = cyc.data();
      wc.allocVec = &S.allocs;
      wc.echo = false;
      // The plan bails on OnBegin (in callees too), so the region's locale
      // is constant: inherit it, with per-worker comm tallies.
      wc.locale = ctx.locale;
      uint64_t wGets = 0, wPuts = 0, wForks = 0;
      uint64_t wAggGets = 0, wAggPuts = 0, wAggFlushes = 0;
      uint64_t wMemStall = 0, wNetStall = 0, wContention = 0;
      std::map<uint64_t, uint64_t> wMatrix;
      wc.commGets = &wGets;
      wc.commPuts = &wPuts;
      wc.commOnForks = &wForks;
      wc.commAggGets = &wAggGets;
      wc.commAggPuts = &wAggPuts;
      wc.commAggFlushes = &wAggFlushes;
      wc.commMatrix = &wMatrix;
      wc.commMemStall = &wMemStall;
      wc.commNetStall = &wNetStall;
      wc.commContention = &wContention;
      wc.spans = &S.spans;
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
        r.gets = wGets;
        r.puts = wPuts;
        r.forks = wForks;
        r.aggGets = wAggGets;
        r.aggPuts = wAggPuts;
        r.aggFlushes = wAggFlushes;
        r.memStall = wMemStall;
        r.netStall = wNetStall;
        r.contention = wContention;
        wGets = wPuts = wForks = 0;
        wAggGets = wAggPuts = wAggFlushes = 0;
        wMemStall = wNetStall = wContention = 0;
        r.matrix.assign(wMatrix.begin(), wMatrix.end());
        wMatrix.clear();
        for (size_t f = 0; f < nf; ++f)
          if (cyc[f]) {
            r.cycles.emplace_back(static_cast<uint32_t>(f), cyc[f]);
            cyc[f] = 0;
          }
        S.recs.push_back(std::move(r));
      };
      for (uint64_t ti = ws - 1; ti < chunks.size(); ti += w) {
        uint64_t chunkStart = wc.clock;
        try {
          std::vector<Value> args;
          args.reserve(2 + extra.size());
          args.push_back(Value::makeInt(chunks[ti].first));
          args.push_back(Value::makeInt(chunks[ti].second));
          for (const Value& v : extra) args.push_back(v);
          wc.pending = sampling::AccessKind::None;
          wc.pendingSrc = wc.pendingDst = 0;
          wc.bw.reset(wc.clock, limitsW_);
          callFunction(wc, taskFn, std::move(args));
          flushSkid(wc);
          pushSpan(wc, tag, static_cast<uint32_t>(ti), ws, chunkStart, wc.clock,
                   /*takeSites=*/true);
        } catch (const RunError& e) {
          S.failed = true;
          S.errMsg = e.message;
          S.errLoc = e.loc;
          S.failTi = ti;
          snap();
          S.endClock = wc.clock;
          return;
        }
        snap();
      }
      S.endClock = wc.clock;
    });
  }
  pool_->wait();

  // Canonical merge in global task order: the artefact sequence becomes
  // indistinguishable from the sequential round-robin execution.
  uint64_t minFail = ~0ull;
  for (uint32_t ws = 1; ws <= usedStreams; ++ws)
    if (streams[ws].failed) minFail = std::min(minFail, streams[ws].failTi);
  std::vector<size_t> cursor(w + 1, 0), sStart(w + 1, 0), oStart(w + 1, 0), aStart(w + 1, 0),
      pStart(w + 1, 0);
  for (uint64_t ti = 0; ti < chunks.size(); ++ti) {
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
    result_.log.commGets += r.gets;
    result_.log.commPuts += r.puts;
    result_.log.commOnForks += r.forks;
    result_.log.commAggGets += r.aggGets;
    result_.log.commAggPuts += r.aggPuts;
    result_.log.commAggFlushes += r.aggFlushes;
    result_.log.commMemStallCycles += r.memStall;
    result_.log.commNetStallCycles += r.netStall;
    result_.log.commContentionCycles += r.contention;
    for (const auto& [k, v] : r.matrix) result_.log.commMatrix[k] += v;
  }
  if (minFail != ~0ull) {
    const StreamRes& S = streams[1 + static_cast<uint32_t>(minFail % w)];
    throw RunError{S.errMsg, S.errLoc};
  }
  // Documented deviation: with parallel streams the global instruction budget
  // is enforced after the region instead of at the exact crossing
  // instruction. canParallelize() requires 2^30 instructions of headroom, so
  // this path is unreachable unless a single region executes > 2^30
  // instructions; the error text matches the sequential engines.
  if (result_.instructionsExecuted > opts_.maxInstructions)
    throw RunError{"instruction budget exceeded", irFn.instrs[bi.ir].loc};
  for (uint32_t ws = 1; ws <= usedStreams; ++ws) workerEnd[ws] = streams[ws].endClock;
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
          causalScaleSites_.count((static_cast<uint64_t>(fr.fid) << 32) | ir) != 0) {
        cost = causalScaledCost(cost, causalNum_, causalDen_);
        if (cslots != nullptr && cost != 0)
          ctx.acc->charge(siteBase_[fr.fid] + ir, cost);
      } else if (cslots != nullptr && cost != 0) {
        ++cslots[ir].count;  // seeded: uniform == this site's static cost
      }
    }
    ctx.cycles[ctx.curFid] += cost;
    ctx.clock += cost;
    if (__builtin_expect(ctx.clock >= ctx.next, 0)) overflow(ctx);
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
    fr.curIr = bi.ir;
    if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
      fail("instruction budget exceeded", irFn.instrs[bi.ir].loc);
    if (__builtin_expect(hasSkid_, 0)) tickSkid(ctx);
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
          charge(ctx, nestedHandleC_);
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
        fr.regs[bi.dst] = defaultValue(ctx, bi.t0);
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
        fr.regs[bi.dst] = makeArray(ctx, d.dom, bi.t0, fr.fid, bi.ir);
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
        fr.curIr = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(hasSkid_, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        pc = cond ? bi.t0 : bi.t1;
        continue;
      }
      CB_OP(IndexLoad) : {
        Value* p = indexAddr<kObserve>(ctx, fr, bi, ops, irFn.instrs[bi.ir].loc);
        fr.curIr = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(hasSkid_, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        copyInto(fr.regs[bi.dst2], *p);
        CB_NEXT;
      }
      CB_OP(IndexStore) : {
        Value* p = indexAddr<kObserve>(ctx, fr, bi, ops, irFn.instrs[bi.ir].loc);
        fr.curIr = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(hasSkid_, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        copyInto(*p, rd(ctx, fr, bi.a));
        CB_NEXT;
      }
      CB_OP(BinStoreSlot) : {
        // The arithmetic lands directly in the slot; operand reads complete
        // before the write, and the (single-use) Bin register is never read.
        evalBinInto(ctx, fr, bi, irFn, fr.slots[bi.dst2]);
        fr.curIr = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(hasSkid_, 0)) tickSkid(ctx);
        chargePro(bi.ir2, bi.cost2);
        CB_NEXT;
      }
      CB_OP(TupleGetSlot) : {
        // Part 1 (LoadSlot) prologue already ran; the whole-tuple copy into
        // the load's register is elided (single-use, never re-read). Part 2
        // is the fused TupleGet.
        const Value& t = fr.slots[bi.t0];
        fr.curIr = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(hasSkid_, 0)) tickSkid(ctx);
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
        fr.curIr = bi.ir2;
        if (__builtin_expect(++*ctx.icount > ctx.maxInstr, 0))
          fail("instruction budget exceeded", irFn.instrs[bi.ir2].loc);
        if (__builtin_expect(hasSkid_, 0)) tickSkid(ctx);
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

RunResult executeBytecode(const ir::Module& m, const RunOptions& opts,
                          an::loc::Collector* observer) {
  Engine engine(m, opts, observer);
  return engine.run();
}

}  // namespace cb::rt
