// The execution rules of a monitored run, written once for both engines.
//
// The reference interpreter (interp.cpp) and the bytecode engine (exec.cpp)
// differ only in how they decode and dispatch a program: operand
// evaluation, control flow, arithmetic, call frames and alloca slots, plus
// the bytecode engine's lowering, fused superinstructions and parallel
// replay. Everything a run measures is defined here instead:
//
//  - sampling: the PMU overflow trigger, skid, sample and idle-sample
//    emission (the §IV.B monitoring model);
//  - task spans and the causal per-site charge hook (TASKPROF-style span
//    accounting, analysis/causal.h);
//  - the PGAS simulation: element ownership, remote GET/PUT and `on`-fork
//    charges, bandwidth ceilings, Src/Dst aggregator buffering;
//  - array construction, builtin charges, `--config` parsing;
//  - the forall/coforall chunk plan and the spawn protocol (tags,
//    pre-spawn stacks, idle bracketing, per-chunk resets, the join).
//
// Two parts: sem::Stream is the simulation state of one execution stream
// (the main thread, or one parallel-replay worker), and sem::Core holds the
// run-wide state and the rules over a Stream. Both engines derive from Core.
// Rules take values and return values; each engine reads its own operands
// and writes its own registers.
//
// Because both engines call these rules, reference ≡ bytecode cannot catch
// a bug in one of them. The rules are pinned instead by the golden
// fixtures, CausalOracle, the exact counter tests (PropertyBandwidthCounters,
// PropertyAggDiff) and the Pmu/Sampling unit tests (EXPERIMENTS.md lists a
// mutation of every rule and the test that catches it).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ir/module.h"
#include "runtime/bandwidth.h"
#include "runtime/cost_model.h"
#include "runtime/interp.h"
#include "runtime/value.h"
#include "sampling/sample.h"
#include "support/common.h"
#include "support/rng.h"

namespace cb::rt::sem {

/// A runtime error: the run stops and reports `message` at `loc`.
struct RunError {
  std::string message;
  SourceLoc loc;
};

[[noreturn]] inline void fail(std::string message, SourceLoc loc) {
  throw RunError{std::move(message), loc};
}

/// An int-result Bin under the int rule (ir::intBin); division or modulo by
/// zero fails the run at `loc`.
inline int64_t intArith(ir::BinKind k, int64_t x, int64_t y, SourceLoc loc) {
  if (std::optional<int64_t> r = ir::intBin(k, x, y)) return *r;
  fail(k == ir::BinKind::Div   ? "integer division by zero"
       : k == ir::BinKind::Mod ? "integer modulo by zero"
                               : "bad integer op",
       loc);
}

/// Where a call frame is: its function and the instruction it executes (the
/// callsite for suspended parents). Both engines' frames start with one.
struct Pos {
  uint32_t fid = 0;
  uint32_t ir = 0;
};

/// The event-overflow trigger of one stream's virtual PMU: the stream clock
/// and the next cycle at which the counter overflows. A threshold of 0
/// disables sampling.
struct Pmu {
  uint64_t threshold = 0;
  uint64_t clock = 0;
  uint64_t next = ~0ull;

  Pmu() = default;
  explicit Pmu(uint64_t th, uint64_t t = 0) : threshold(th) { setClock(t); }

  /// Moves the clock to `t` and realigns the next overflow to the first
  /// threshold multiple after it.
  void setClock(uint64_t t) {
    clock = t;
    next = threshold != 0 ? (t / threshold + 1) * threshold : ~0ull;
  }

  /// Overflows crossed since the last call (normally 0 or 1; one large
  /// charge can cross several).
  uint32_t takeOverflows() {
    uint32_t n = 0;
    while (clock >= next) {
      next += threshold != 0 ? threshold : ~0ull;
      ++n;
    }
    return n;
  }

  uint32_t advance(uint64_t cost) {
    clock += cost;
    return takeOverflows();
  }
};

/// Exact communication counters of one stream. Sums are commutative, so a
/// parallel-replay stream's per-chunk tallies added in canonical task order
/// reproduce the sequential totals; the main stream's tally lands in the
/// RunLog when the run ends.
struct CommTally {
  uint64_t gets = 0, puts = 0, onForks = 0;
  uint64_t aggGets = 0, aggPuts = 0, aggFlushes = 0;
  uint64_t memStall = 0, netStall = 0, contention = 0;
  std::map<uint64_t, uint64_t> matrix;  // RunLog::pairKey -> transfers

  CommTally& operator+=(const CommTally& o) {
    gets += o.gets;
    puts += o.puts;
    onForks += o.onForks;
    aggGets += o.aggGets;
    aggPuts += o.aggPuts;
    aggFlushes += o.aggFlushes;
    memStall += o.memStall;
    netStall += o.netStall;
    contention += o.contention;
    for (const auto& [k, v] : o.matrix) matrix[k] += v;
    return *this;
  }
};

/// One open simulated aggregator: a Src (remote GET) or Dst (remote PUT)
/// buffer holding per-destination element COUNTS only — values move eagerly
/// at copy time, so aggregation changes cost, never values.
struct AggState {
  bool isSrc = false;
  std::map<int64_t, uint32_t> pending;
};

/// The simulation state of one execution stream.
struct Stream {
  uint32_t stream = 0;   // 0 = main thread, 1..W = workers
  uint32_t curFid = 0;   // function charged for busy cycles
  uint64_t taskTag = 0;  // innermost spawn tag, 0 outside tasks
  Pmu pmu;
  uint64_t* icount = nullptr;  // executed-instruction counter
  uint64_t maxInstr = 0;       // budget for *icount
  std::vector<uint32_t> skid;  // instructions left per skidded sample
  std::vector<Pos*> stack;     // live frames, outermost first
  std::vector<sampling::Frame> cachedStack;  // resolved copy of `stack`
  uint64_t stackGen = 0;                     // bumped on push/pop/swap
  uint64_t cachedGen = ~0ull;                // generation cachedStack matches

  // PGAS: the executing locale, the `on` restore stack, the access
  // classification pending for the next sample, and open aggregators
  // (AggOpen handle = index, LIFO).
  int64_t locale = 0;
  std::vector<int64_t> onStack;
  sampling::AccessKind pending = sampling::AccessKind::None;
  int32_t pendingSrc = 0;
  int32_t pendingDst = 0;
  std::vector<AggState> aggStack;
  BwState bw;  // chunk-local, like the pending access
  CommTally comm;

  // Sinks: the main stream points into the RunResult, a replay worker into
  // private buffers merged in canonical task order.
  std::vector<sampling::RawSample>* samples = nullptr;
  std::vector<sampling::TaskSpan>* spans = nullptr;
  CausalAccumulator* acc = nullptr;  // per-site split of the open segment
  uint64_t* cycles = nullptr;        // per-function busy cycles
  std::string* output = nullptr;
  bool echo = false;
  std::unordered_map<uint64_t, uint64_t>* allocMap = nullptr;       // main stream
  std::vector<std::pair<uint64_t, uint64_t>>* allocVec = nullptr;   // workers
  uint64_t serialStart = 0;  // open main-stream serial segment
};

/// What a call saves and restores around the callee.
struct CallScope {
  uint32_t fid;
  int64_t locale;
  size_t onDepth;
};

inline CallScope enter(Stream& s, Pos* fr) {
  s.stack.push_back(fr);
  ++s.stackGen;
  CallScope sc{s.curFid, s.locale, s.onStack.size()};
  s.curFid = fr->fid;
  return sc;
}

/// `on` blocks are lexically scoped: a return from inside one must not leak
/// the switched locale into the caller.
inline void leave(Stream& s, const CallScope& sc) {
  s.locale = sc.locale;
  s.onStack.resize(sc.onDepth);
  s.stack.pop_back();
  ++s.stackGen;
  s.curFid = sc.fid;
}

/// The storage an array handle reaches: views defer to their base.
inline const ArrayObj* storageOf(const ArrayObj* a) { return a->base ? a->base.get() : a; }

inline bool distributed(const DomainVal& d) { return d.distKind != 0 && d.distLocales > 1; }

/// The locale owning dim-0 coordinate `idx0` of `own`; `here` when the
/// domain is not distributed.
inline int64_t ownerOf(const ArrayObj* own, int64_t idx0, int64_t here) {
  return distributed(own->dom) ? own->dom.ownerOf(idx0) : here;
}

/// The cost profile a run charges: the override, else fast or standard.
inline CostProfile costProfileOf(const RunOptions& opts) {
  if (opts.costProfileOverride) return *opts.costProfileOverride;
  return opts.fastCostProfile ? CostProfile::fast() : CostProfile::standard();
}

/// Instruction-footprint multiplier per function (Q10 fixed point): large
/// functions pay an instruction-cache penalty on every instruction.
inline std::vector<uint64_t> icacheQ10(const ir::Module& m, const CostProfile& p) {
  std::vector<uint64_t> q(m.numFunctions(), 1024);
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    uint64_t n = m.function(f).numInstrs();
    if (n > p.icacheThresholdInstrs)
      q[f] = 1024 + std::min(p.icacheMaxQ10, (n - p.icacheThresholdInstrs) * p.icacheSlopeQ10);
  }
  return q;
}

/// A --config override's text read as the config's type: an int or real
/// must parse in full (one leading sign allowed), a bool must be exactly
/// true, false, 1 or 0. Other config types keep their default.
inline Value parseConfig(const std::string& name, const std::string& text, const Value& def,
                         SourceLoc loc) {
  const char* b = text.data();
  const char* e = b + text.size();
  if (e - b > 1 && *b == '+' && b[1] != '-') ++b;  // from_chars takes '-' only
  auto full = [&](auto& v) {
    auto [p, ec] = std::from_chars(b, e, v);
    return ec == std::errc{} && p == e;
  };
  auto bad = [&](const char* what) {
    fail("config '" + name + "': expected " + what + ", got '" + text + "'", loc);
  };
  switch (def.kind) {
    case VKind::Int: {
      int64_t v = 0;
      if (!full(v)) bad("an int");
      return Value::makeInt(v);
    }
    case VKind::Real: {
      double v = 0;
      if (!full(v)) bad("a real");
      return Value::makeReal(v);
    }
    case VKind::Bool:
      if (text == "true" || text == "1") return Value::makeBool(true);
      if (text != "false" && text != "0") bad("a bool");
      return Value::makeBool(false);
    default:
      return def;
  }
}

/// The first malformed override among the module's config reads, rendered
/// at the config's source location; empty when every override parses. Lets
/// a caller that must not fail softly (rt::lint) reject the job up front.
inline std::string configError(const ir::Module& m, const RunOptions& o) {
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f)
    for (const ir::Instr& in : m.function(f).instrs) {
      if (in.op != ir::Opcode::Builtin || in.extra.builtin != ir::BuiltinKind::ConfigGet ||
          in.ops[0].kind != ir::ValueRef::Kind::ConstString)
        continue;
      auto it = o.configOverrides.find(m.string(in.ops[0].stringId));
      if (it == o.configOverrides.end()) continue;
      Value def;
      switch (m.types().kindOf(in.type)) {
        case ir::TypeKind::Int: def = Value::makeInt(0); break;
        case ir::TypeKind::Real: def = Value::makeReal(0); break;
        case ir::TypeKind::Bool: def = Value::makeBool(false); break;
        default: continue;
      }
      try {
        parseConfig(it->first, it->second, def, in.loc);
      } catch (const RunError& e) {
        return m.sourceManager().render(e.loc) + ": " + e.message;
      }
    }
  return {};
}

/// The forall/coforall chunk plan of a spawn over chunk offsets [lo, hi]: a
/// forall splits the range into per-worker blocks, a coforall makes one
/// task per index. Counting is unsigned, so the full int range (2^64
/// iterations) neither overflows nor wraps negative, and chunks are
/// computed on demand, never materialized.
struct ChunkPlan {
  int64_t lo = 0;
  uint64_t span = 0;   // hi - lo
  uint64_t trips = 0;  // iterations, saturating at 2^64 - 1
  uint64_t per = 1;    // iterations per chunk
  uint64_t tasks = 0;

  ChunkPlan(int64_t lo_, int64_t hi, const std::vector<Value>& extra, bool coforall,
            uint32_t workers)
      : lo(lo_) {
    // A range iterand spawns offsets [0, hi - base] with its base as the
    // first captured value. That difference wraps for ranges of 2^63 or
    // more iterations, so emptiness is decided on the recovered bound.
    bool empty = hi < lo;
    if (lo == 0 && !extra.empty() && extra[0].kind == VKind::Int)
      empty = static_cast<int64_t>(static_cast<uint64_t>(extra[0].i) + static_cast<uint64_t>(hi)) <
              extra[0].i;
    if (empty) return;
    span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    trips = span == ~0ull ? span : span + 1;
    per = coforall ? 1 : span / std::max<uint32_t>(1, workers) + 1;  // ceil(trips / w)
    tasks = coforall ? trips : span / per + 1;
  }

  std::pair<int64_t, int64_t> chunk(uint64_t ti) const {
    uint64_t off = ti * per;
    uint64_t first = static_cast<uint64_t>(lo) + off;
    uint64_t last = first + std::min(span - off, per - 1);
    return {static_cast<int64_t>(first), static_cast<int64_t>(last)};
  }
};

/// The arguments of one task chunk: its bounds, then the captured values.
inline std::vector<Value> taskArgs(std::pair<int64_t, int64_t> c, const std::vector<Value>& extra) {
  std::vector<Value> args;
  args.reserve(2 + extra.size());
  args.push_back(Value::makeInt(c.first));
  args.push_back(Value::makeInt(c.second));
  for (const Value& v : extra) args.push_back(v);
  return args;
}

/// Run-wide state and the rules over a Stream.
class Core {
 public:
  Core(const ir::Module& m, const RunOptions& opts)
      : m_(m),
        opts_(opts),
        cost_(costProfileOf(opts)),
        rng_(opts.rngSeed),
        threshold_(opts.sampleThreshold),
        skid_(opts.skidInstructions),
        icacheQ10_(icacheQ10(m, cost_.profile())) {
    result_.cyclesPerFunction.assign(m.numFunctions(), 0);
    result_.log.sampleThreshold = opts.sampleThreshold;
    result_.log.numStreams = opts.numWorkers + 1;
    lastBusyEnd_.assign(opts.numWorkers + 1, 0);
    limits0_ = BwLimits::forStream(prof(), 0, opts.numWorkers);
    limitsW_ = BwLimits::forStream(prof(), 1, opts.numWorkers);
    bwEnabled_ = limits0_.enabled();
    causalTrack_ = opts.trackCausalSites;
    causalScaleSites_.insert(opts.causalScale.sites.begin(), opts.causalScale.sites.end());
    causalScaleOn_ = !causalScaleSites_.empty();
    causalNum_ = opts.causalScale.num;
    causalDen_ = opts.causalScale.den;
    causalActive_ = causalTrack_ || causalScaleOn_;
    if (causalTrack_) {
      // Dense site index (fid, instr) -> siteBase_[fid] + instr, so the
      // per-charge accumulation is a flat array slot instead of a hash probe.
      siteBase_.assign(m.numFunctions() + 1, 0);
      for (ir::FuncId f = 0; f < m.numFunctions(); ++f)
        siteBase_[f + 1] = siteBase_[f] + static_cast<uint32_t>(m.function(f).numInstrs());
      causalAcc_.resize(opts.numWorkers + 1);
    }
  }

 protected:
  const CostProfile& prof() const { return cost_.profile(); }

  // ---- the run --------------------------------------------------------------

  /// Points `s` at the run result as the main stream. `staticCost` seeds the
  /// causal accumulator's per-site uniform costs (CausalAccumulator::init).
  void bindMain(Stream& s, const uint32_t* staticCost = nullptr) {
    s.pmu = Pmu(threshold_);
    s.icount = &result_.instructionsExecuted;
    s.maxInstr = opts_.maxInstructions;
    s.samples = &result_.log.samples;
    s.spans = &result_.log.taskSpans;
    s.cycles = result_.cyclesPerFunction.data();
    s.output = &result_.output;
    s.echo = opts_.echoWriteln;
    s.allocMap = &result_.log.allocBytesBySite;
    s.locale = opts_.localeId;
    s.bw.reset(0, limits0_);
    if (causalTrack_) {
      s.acc = &causalAcc_[0];
      s.acc->init(siteBase_, staticCost);
    }
  }

  /// Runs module init and main on the main stream `s` through `call(fid)`,
  /// then closes the run: pending skid, trailing worker idle time, the last
  /// serial span, the comm counters.
  template <class Call>
  RunResult runMain(Stream& s, Call&& call) {
    try {
      if (m_.moduleInitFunc != ir::kNone) call(m_.moduleInitFunc);
      CB_ASSERT(m_.mainFunc != ir::kNone, "module has no main");
      call(m_.mainFunc);
      flushSkid(s);
      for (uint32_t ws = 1; ws <= opts_.numWorkers; ++ws)
        emitIdleSamples(ws, lastBusyEnd_[ws], s.pmu.clock);
      closeSerialSpan(s);
      result_.ok = true;
    } catch (const RunError& e) {
      result_.ok = false;
      result_.error = m_.sourceManager().render(e.loc) + ": " + e.message;
    }
    result_.totalCycles = s.pmu.clock;
    sampling::RunLog& log = result_.log;
    log.totalCycles = result_.totalCycles;
    log.commGets = s.comm.gets;
    log.commPuts = s.comm.puts;
    log.commOnForks = s.comm.onForks;
    log.commAggGets = s.comm.aggGets;
    log.commAggPuts = s.comm.aggPuts;
    log.commAggFlushes = s.comm.aggFlushes;
    log.commMemStallCycles = s.comm.memStall;
    log.commNetStallCycles = s.comm.netStall;
    log.commContentionCycles = s.comm.contention;
    log.commMatrix = std::move(s.comm.matrix);
    return std::move(result_);
  }

  // ---- sampling -------------------------------------------------------------

  /// Charges `c` cycles at the leaf frame's instruction. Under causal mode
  /// the charge is first scaled when its site carries a what-if speedup (the
  /// ground-truth oracle re-run), then accrued to the open span's per-site
  /// split.
  inline void charge(Stream& s, uint64_t c) {
    if (__builtin_expect(causalActive_, 0) && !s.stack.empty()) {
      const Pos* fr = s.stack.back();
      if (causalScaleOn_ &&
          causalScaleSites_.count(sampling::RunLog::siteKey(fr->fid, fr->ir)) != 0)
        c = causalScaledCost(c, causalNum_, causalDen_);
      if (causalTrack_ && c != 0) s.acc->charge(siteBase_[fr->fid] + fr->ir, c);
    }
    s.cycles[s.curFid] += c;
    s.pmu.clock += c;
    if (__builtin_expect(s.pmu.clock >= s.pmu.next, 0)) overflow(s);
  }

  /// Each overflow samples now, or after `skid_` more instructions.
  void overflow(Stream& s) {
    for (uint32_t n = s.pmu.takeOverflows(); n != 0; --n) {
      if (skid_ == 0) emitSample(s);
      else s.skid.push_back(skid_);
    }
  }

  void emitSample(Stream& s) {
    // Parent frames are suspended at their callsite, so between frame
    // pushes/pops only the leaf's instruction pointer moves: reuse the
    // resolved stack from the previous sample and patch the leaf.
    if (s.cachedGen != s.stackGen) {
      s.cachedStack.clear();
      s.cachedStack.reserve(s.stack.size());
      for (const Pos* fr : s.stack) s.cachedStack.push_back({fr->fid, fr->ir});
      s.cachedGen = s.stackGen;
    } else if (!s.cachedStack.empty()) {
      s.cachedStack.back().instr = s.stack.back()->ir;
    }
    sampling::RawSample r;
    r.stream = s.stream;
    r.taskTag = s.taskTag;
    r.atCycle = s.pmu.clock;
    r.accessKind = s.pending;
    r.srcLocale = s.pendingSrc;
    r.dstLocale = s.pendingDst;
    r.stack = s.cachedStack;
    s.samples->push_back(std::move(r));
    s.pending = sampling::AccessKind::None;  // consumed by this sample
    s.pendingSrc = s.pendingDst = 0;
  }

  /// Called once per executed instruction: ages pending skidded samples and
  /// emits those whose skid distance has elapsed (at the current, i.e.
  /// overshot, instruction pointer).
  void tickSkid(Stream& s) {
    if (s.skid.empty()) return;
    size_t w = 0;
    for (size_t r = 0; r < s.skid.size(); ++r) {
      if (--s.skid[r] == 0) emitSample(s);
      else s.skid[w++] = s.skid[r];
    }
    s.skid.resize(w);
  }

  /// Emits pending skidded samples before the stream/task context changes.
  void flushSkid(Stream& s) {
    for (size_t k = 0; k < s.skid.size(); ++k) emitSample(s);
    s.skid.clear();
  }

  /// Idle workers still burn cycles in the tasking layer; attribute them to
  /// the runtime frames gperftools reports (Fig. 4 ratios: mostly
  /// __sched_yield, some pthread machinery, a little chpl task yield).
  void emitIdleSamples(uint32_t stream, uint64_t from, uint64_t to) {
    if (!opts_.sampleIdle || threshold_ == 0) return;
    for (uint64_t t = (from / threshold_ + 1) * threshold_; t <= to; t += threshold_) {
      sampling::RawSample r;
      r.stream = stream;
      r.atCycle = t;
      uint64_t k = idleSampleCounter_++;
      if (k % 20 == 19) r.runtimeFrame = sampling::RuntimeFrameKind::ChplTaskYield;
      else if (k % 20 >= 17) r.runtimeFrame = sampling::RuntimeFrameKind::PthreadState;
      else r.runtimeFrame = sampling::RuntimeFrameKind::SchedYield;
      result_.log.samples.push_back(std::move(r));
    }
  }

  // ---- task spans -------------------------------------------------------------

  /// Appends one completed span to `s.spans`, in completion order (which is
  /// the canonical emission order: nested spans complete before their
  /// enclosing chunk, and the serial segment closes at the fork before any
  /// chunk span). `takeSites` moves the accrued per-site split into the span
  /// — false for nested spans, whose cycles stay with the enclosing
  /// top-level segment.
  void pushSpan(Stream& s, uint64_t tag, uint32_t chunk, uint64_t start, bool takeSites) {
    sampling::TaskSpan sp;
    sp.tag = tag;
    sp.chunk = chunk;
    sp.stream = s.stream;
    sp.startCycle = start;
    sp.endCycle = s.pmu.clock;
    if (takeSites && causalTrack_) {
      sp.sites.reserve(s.acc->lastDrainCount());
      s.acc->drain([&sp](uint32_t fid, uint32_t instr, uint64_t raw, uint64_t s125, uint64_t s2,
                         uint64_t s4) {
        sp.sites.push_back({sampling::RunLog::siteKey(fid, instr), raw, s125, s2, s4});
      });
    }
    s.spans->push_back(std::move(sp));
  }

  /// Closes the open main-stream serial segment at the stream clock (eliding
  /// zero-length segments) and re-opens it there.
  void closeSerialSpan(Stream& s) {
    if (s.pmu.clock > s.serialStart) pushSpan(s, 0, 0, s.serialStart, true);
    else if (causalTrack_) s.acc->discard();
    s.serialStart = s.pmu.clock;
  }

  // ---- PGAS -----------------------------------------------------------------

  int64_t numLocales() const { return std::max<int64_t>(1, opts_.numLocales); }

  /// Classifies one array element access: when the owner of dim-0
  /// coordinate `idx0` differs from the executing locale, charges the remote
  /// GET/PUT cost and counts it. The classification stays pending for the
  /// next sample.
  inline void noteArrayAccess(Stream& s, const ArrayObj* arr, int64_t idx0, bool isStore) {
    const ArrayObj* own = storageOf(arr);
    int64_t owner = ownerOf(own, idx0, s.locale);
    if (owner != s.locale) {
      s.pendingSrc = static_cast<int32_t>(s.locale);
      s.pendingDst = static_cast<int32_t>(owner);
      ++s.comm.matrix[sampling::RunLog::pairKey(s.locale, owner)];
      if (isStore) {
        s.pending = sampling::AccessKind::RemotePut;
        ++s.comm.puts;
        charge(s, prof().remotePut);
      } else {
        s.pending = sampling::AccessKind::RemoteGet;
        ++s.comm.gets;
        charge(s, prof().remoteGet);
      }
      if (bwEnabled_) chargeNetBw(s, owner, bwLimits(s).netElemBytes);
    } else {
      s.pending = sampling::AccessKind::Local;
      s.pendingSrc = s.pendingDst = 0;
      if (bwEnabled_) chargeLocalBw(s, own);
    }
  }

  const BwLimits& bwLimits(const Stream& s) const { return s.stream == 0 ? limits0_ : limitsW_; }

  /// Charges the network-side ceilings for one remote transfer of `bytes`
  /// toward locale `peer`: first the owner-contention hit, then the
  /// injection-bandwidth token bucket. Stall cycles are charged to the
  /// stream (so samples landing inside them blame the pending access) and
  /// counted separately so blame can split latency- from bandwidth-bound.
  void chargeNetBw(Stream& s, int64_t peer, uint64_t bytes) {
    const BwLimits& lim = bwLimits(s);
    if (uint64_t cs = s.bw.cont.note(s.pmu.clock, peer, lim)) {
      s.comm.contention += cs;
      charge(s, cs);
    }
    if (uint64_t ns = s.bw.net.consume(s.pmu.clock, bytes, lim.netRate, lim.netBurstQ)) {
      s.comm.netStall += ns;
      charge(s, ns);
    }
  }

  /// Charges the local memory-bandwidth roof for one element access against
  /// a streaming (cache-busting) array. Cache-resident arrays carry
  /// streamBytes == 0 and stay free.
  void chargeLocalBw(Stream& s, const ArrayObj* own) {
    const BwLimits& lim = bwLimits(s);
    if (lim.memRate == 0 || own->streamBytes == 0) return;
    if (uint64_t ms = s.bw.mem.consume(s.pmu.clock, own->streamBytes, lim.memRate, lim.memBurstQ)) {
      s.comm.memStall += ms;
      charge(s, ms);
    }
  }

  /// `on Locales[target]`: wraps the target like Locales[i % numLocales]
  /// and charges a fork when it leaves the current locale.
  void onBegin(Stream& s, int64_t target) {
    int64_t L = numLocales();
    target = ((target % L) + L) % L;
    s.onStack.push_back(s.locale);
    if (target != s.locale) {
      ++s.comm.onForks;
      charge(s, prof().onFork);
    }
    s.locale = target;
  }

  void onEnd(Stream& s) {
    if (s.onStack.empty()) return;
    s.locale = s.onStack.back();
    s.onStack.pop_back();
  }

  DomainVal dmapped(const Value& d, int64_t distKind, SourceLoc loc) const {
    if (d.kind != VKind::Domain) fail("dmapped on a non-domain", loc);
    DomainVal dv = d.dom;
    dv.distKind = static_cast<uint8_t>(distKind);
    dv.distLocales = static_cast<uint16_t>(numLocales());
    return dv;
  }

  // ---- aggregators ----------------------------------------------------------

  int64_t aggOpen(Stream& s, bool isSrc) {
    s.aggStack.push_back(AggState{isSrc, {}});
    return static_cast<int64_t>(s.aggStack.size()) - 1;
  }

  AggState& aggAt(Stream& s, int64_t h, SourceLoc loc) {
    if (h < 0 || static_cast<size_t>(h) >= s.aggStack.size())
      fail("aggregator used outside its task", loc);
    return s.aggStack[static_cast<size_t>(h)];
  }

  /// The remote leg of one agg.copy() against element `idx0` of `remote`:
  /// classified like a naive access (same pending-sample channel, same comm
  /// matrix cell) but counted as aggregated and buffered per destination,
  /// flushing at aggBufferCap. Returns the element; the caller moves the
  /// value.
  Value* aggCopy(Stream& s, AggState& st, const Value& remote, int64_t idx0, SourceLoc loc) {
    if (remote.kind != VKind::Array || !remote.arr)
      fail("agg.copy element operand is not an array", loc);
    int64_t idx[3] = {idx0, 0, 0};
    Value* elem = remote.arr->at(idx);
    if (!elem) fail("array index out of bounds", loc);
    int64_t owner = ownerOf(storageOf(remote.arr.get()), idx0, s.locale);
    if (owner != s.locale) {
      s.pending = st.isSrc ? sampling::AccessKind::RemoteGet : sampling::AccessKind::RemotePut;
      s.pendingSrc = static_cast<int32_t>(s.locale);
      s.pendingDst = static_cast<int32_t>(owner);
      ++(st.isSrc ? s.comm.aggGets : s.comm.aggPuts);
      ++s.comm.matrix[sampling::RunLog::pairKey(s.locale, owner)];
      uint32_t& n = st.pending[owner];
      if (++n >= prof().aggBufferCap) {
        aggFlush(s, owner, n);
        n = 0;
      }
    } else {
      s.pending = sampling::AccessKind::Local;
      s.pendingSrc = s.pendingDst = 0;
    }
    return elem;
  }

  /// Closes aggregator `h` (LIFO), draining every non-empty buffer.
  void aggClose(Stream& s, int64_t h, SourceLoc loc) {
    if (h != static_cast<int64_t>(s.aggStack.size()) - 1 || h < 0)
      fail("aggregator closed out of order", loc);
    for (const auto& [peer, n] : s.aggStack.back().pending)
      if (n != 0) aggFlush(s, peer, n);
    s.aggStack.pop_back();
  }

  void aggFlush(Stream& s, int64_t peer, uint64_t n) {
    ++s.comm.aggFlushes;
    charge(s, prof().aggFlushLatency + prof().aggPerElemBandwidth * n);
    if (bwEnabled_) chargeNetBw(s, peer, n * bwLimits(s).netElemBytes);
  }

  // ---- arrays ---------------------------------------------------------------

  /// Scalar slots of a type — array allocation/default-init cost scales
  /// with it (a [Elems] 8*real zero-fills 8 reals per element).
  uint64_t scalarWidth(ir::TypeId t) const {
    const ir::Type& ty = m_.types().get(t);
    uint64_t w = 0;
    switch (ty.kind) {
      case ir::TypeKind::Tuple:
        for (ir::TypeId e : ty.elems) w += scalarWidth(e);
        return w;
      case ir::TypeKind::Record:
        for (const ir::RecordField& f : ty.fields) w += scalarWidth(f.type);
        return w;
      default:
        return 1;
    }
  }

  /// True when a type's default value owns array storage (so elements may
  /// NOT share a copied prototype).
  bool typeOwnsArrays(ir::TypeId t) const {
    const ir::Type& ty = m_.types().get(t);
    switch (ty.kind) {
      case ir::TypeKind::Array:
        return true;
      case ir::TypeKind::Tuple:
        return std::any_of(ty.elems.begin(), ty.elems.end(),
                           [&](ir::TypeId e) { return typeOwnsArrays(e); });
      case ir::TypeKind::Record:
        return std::any_of(ty.fields.begin(), ty.fields.end(),
                           [&](const ir::RecordField& f) { return typeOwnsArrays(f.type); });
      default:
        return false;
    }
  }

  /// The default value of type `t`. An array-typed record field is
  /// allocated over the domain its field-domain thunk returns:
  /// `thunk(fid)` calls that function. `onAlloc(arr, fid, instr)` sees
  /// every array allocated (fid == kNone for record fields).
  template <class Thunk, class OnAlloc>
  Value defaultValue(Stream& s, ir::TypeId t, Thunk&& thunk, OnAlloc&& onAlloc) {
    const ir::Type& ty = m_.types().get(t);
    Value v;
    switch (ty.kind) {
      case ir::TypeKind::Int: return Value::makeInt(0);
      case ir::TypeKind::Real: return Value::makeReal(0.0);
      case ir::TypeKind::Bool: return Value::makeBool(false);
      case ir::TypeKind::String: return Value::makeStr("");
      case ir::TypeKind::Domain: return Value::makeDomain(DomainVal{});
      case ir::TypeKind::Tuple:
        v.kind = VKind::Tuple;
        v.elems.reserve(ty.elems.size());
        for (ir::TypeId e : ty.elems) v.elems.push_back(defaultValue(s, e, thunk, onAlloc));
        return v;
      case ir::TypeKind::Record:
        v.kind = VKind::Record;
        v.elems.reserve(ty.fields.size());
        for (uint32_t i = 0; i < ty.fields.size(); ++i) {
          ir::TypeId ft = ty.fields[i].type;
          if (m_.types().kindOf(ft) != ir::TypeKind::Array) {
            v.elems.push_back(defaultValue(s, ft, thunk, onAlloc));
            continue;
          }
          auto th = m_.fieldDomainThunks.find({t, i});
          if (th == m_.fieldDomainThunks.end()) {
            Value empty;
            empty.kind = VKind::Array;
            v.elems.push_back(std::move(empty));
            continue;
          }
          Value dom = thunk(th->second);
          v.elems.push_back(
              makeArray(s, dom.dom, m_.types().get(ft).elem, ir::kNone, 0, thunk, onAlloc));
        }
        return v;
      case ir::TypeKind::Array:
        v.kind = VKind::Array;
        return v;  // empty handle; real arrays come from ArrayNew
      default:
        return v;
    }
  }

  /// A new array over `dom`: default-initialized elements, the per-slot
  /// allocation charge, the streaming-bytes rule for the memory roof, and
  /// the allocation site's high-water mark (`allocFn` == kNone: no site).
  template <class Thunk, class OnAlloc>
  Value makeArray(Stream& s, const DomainVal& dom, ir::TypeId elemTy, ir::FuncId allocFn,
                  ir::InstrId allocInstr, Thunk&& thunk, OnAlloc&& onAlloc) {
    int64_t n = dom.size();
    auto obj = std::make_shared<ArrayObj>();
    obj->dom = dom;
    uint64_t width = scalarWidth(elemTy);
    if (prof().memBandwidthBytesPerKCycle != 0 &&
        static_cast<uint64_t>(n) * width * 8 > prof().memCacheResidentBytes)
      obj->streamBytes = static_cast<uint32_t>(8 * width);
    obj->data.reserve(static_cast<size_t>(n));
    if (n > 0) {
      if (typeOwnsArrays(elemTy)) {
        // Elements own nested array storage: each needs a fresh default
        // (copying a prototype would alias one shared inner array).
        for (int64_t k = 0; k < n; ++k)
          obj->data.push_back(defaultValue(s, elemTy, thunk, onAlloc));
      } else {
        Value proto = defaultValue(s, elemTy, thunk, onAlloc);
        obj->data.assign(static_cast<size_t>(n), proto);
      }
    }
    charge(s, prof().arrayNewPerElem * static_cast<uint64_t>(n) * width);
    onAlloc(static_cast<const ArrayObj*>(obj.get()), allocFn, allocInstr);
    if (allocFn != ir::kNone) {
      uint64_t key = sampling::RunLog::siteKey(allocFn, allocInstr);
      uint64_t bytes = obj->approxBytes();
      if (s.allocVec) {
        s.allocVec->emplace_back(key, bytes);
      } else {
        uint64_t& slot = (*s.allocMap)[key];
        slot = std::max(slot, bytes);
      }
    }
    Value v;
    v.kind = VKind::Array;
    v.arr = std::move(obj);
    return v;
  }

  // ---- builtins -------------------------------------------------------------

  void writeln(Stream& s, std::string line) {
    line += "\n";
    if (s.echo) std::fputs(line.c_str(), stdout);
    *s.output += line;
  }

  void arrayFill(Stream& s, const Value& arr, const Value& v, SourceLoc loc) {
    if (arr.kind != VKind::Array || !arr.arr) fail("fill of a non-array", loc);
    int64_t n = arr.arr->dom.size();
    for (int64_t k = 0; k < n; ++k) *arr.arr->atLinear(k) = v;
    charge(s, prof().arrayFillPerElem * static_cast<uint64_t>(n));
  }

  void arrayCopy(Stream& s, const Value& dst, const Value& src, SourceLoc loc) {
    if (dst.kind != VKind::Array || !dst.arr || src.kind != VKind::Array || !src.arr)
      fail("copy of a non-array", loc);
    int64_t n = dst.arr->dom.size();
    if (n != src.arr->dom.size()) fail("array copy size mismatch", loc);
    for (int64_t k = 0; k < n; ++k) *dst.arr->atLinear(k) = *src.arr->atLinear(k);
    charge(s, prof().arrayCopyPerElem * static_cast<uint64_t>(n));
  }

  /// A config read: the --config override for `name` parsed as the
  /// default's type, or the default. Unknown override names are ignored
  /// (profileMultiLocale sets hereId on programs that do not declare it).
  Value configGet(const Value& name, const Value& def, SourceLoc loc) const {
    auto it = opts_.configOverrides.find(name.str ? *name.str : "");
    if (it == opts_.configOverrides.end()) return def;
    return parseConfig(it->first, it->second, def, loc);
  }

  // ---- spawns ---------------------------------------------------------------

  /// One forall/coforall on stream `s`. `task(lo, hi)` runs one chunk's
  /// task body on `s`. A spawn inside a task runs its chunks inline on the
  /// current stream (a saturated pool); a top-level spawn is a parallel
  /// region: its chunks go round-robin over the worker streams, idle worker
  /// time before and after is sampled, and the main clock jumps to the
  /// slowest worker at the join. `replay(tag, workerEnd)` may execute the
  /// whole region itself (parallel replay), moving each worker stream's
  /// clock in workerEnd on from the fork time, and returns whether it did;
  /// otherwise the chunks run here in canonical order.
  template <class Task, class Replay>
  void spawn(Stream& s, const ChunkPlan& plan, ir::FuncId taskFn, ir::InstrId spawnInstr,
             bool raceFree, SourceLoc loc, Task&& task, Replay&& replay) {
    // Every iteration executes at least one instruction: a region with more
    // iterations than the budget has left cannot finish, so it fails before
    // any task is charged or planned.
    if (plan.trips > s.maxInstr - *s.icount) fail("instruction budget exceeded", loc);
    charge(s, prof().spawnPerTask * plan.tasks);

    uint64_t tag = ++tagCounter_;
    sampling::SpawnRecord rec;
    rec.tag = tag;
    rec.parentTag = s.taskTag;
    rec.taskFn = taskFn;
    rec.spawnInstr = spawnInstr;
    rec.preSpawnStack.reserve(s.stack.size());
    for (const Pos* f : s.stack) rec.preSpawnStack.push_back({f->fid, f->ir});
    result_.log.spawns.emplace(tag, std::move(rec));

    flushSkid(s);  // pending samples belong to the pre-spawn context
    uint64_t savedTag = s.taskTag;
    uint32_t savedStream = s.stream;
    sampling::AccessKind savedPending = s.pending;
    int32_t savedSrc = s.pendingSrc, savedDst = s.pendingDst;
    BwState savedBw = s.bw;
    std::vector<Pos*> savedStack;
    savedStack.swap(s.stack);
    ++s.stackGen;
    s.taskTag = tag;

    if (savedTag != 0 || savedStream != 0) {
      // Nested spans carry no site split: their cycles stay accrued to the
      // enclosing top-level segment.
      for (uint64_t ti = 0; ti < plan.tasks; ++ti) runChunk(s, plan, ti, tag, false, task);
    } else {
      uint64_t t0 = s.pmu.clock;
      closeSerialSpan(s);  // the fork ends the main-stream serial segment
      uint32_t w = opts_.numWorkers;
      // Workers spun idle since their last task ended (between regions /
      // during serial sections) — the __sched_yield time of Fig. 4.
      for (uint32_t ws = 1; ws <= w; ++ws) {
        emitIdleSamples(ws, lastBusyEnd_[ws], t0);
        lastBusyEnd_[ws] = t0;
      }
      std::vector<uint64_t> workerEnd(w + 1, t0);
      // Regions the race-freedom prover could not clear: a static verdict,
      // so the count is the same for every engine and replay width.
      if (!raceFree) ++result_.log.raceFallbackRegions;
      try {
        if (!replay(tag, workerEnd))
          for (uint64_t ti = 0; ti < plan.tasks; ++ti)
            runOnStream(s, plan, ti, tag, task, workerEnd);
      } catch (...) {
        // The main clock never moved during the region: the run ends at
        // the fork.
        s.stream = 0;
        s.pmu.setClock(t0);
        throw;
      }
      uint64_t tEnd = *std::max_element(workerEnd.begin(), workerEnd.end());
      for (uint32_t ws = 1; ws <= w; ++ws) {
        emitIdleSamples(ws, workerEnd[ws], tEnd);
        lastBusyEnd_[ws] = tEnd;
      }
      s.stream = 0;
      s.pmu.setClock(tEnd);
      s.serialStart = tEnd;  // the join re-opens the main-stream serial segment
    }

    s.stack.swap(savedStack);
    ++s.stackGen;
    s.taskTag = savedTag;
    s.stream = savedStream;
    s.pending = savedPending;
    s.pendingSrc = savedSrc;
    s.pendingDst = savedDst;
    s.bw = savedBw;
  }

  /// Chunk `ti` of a region on `s`, from the stream's current clock. Each
  /// chunk starts with no pending comm attribution and fresh bandwidth
  /// state, so chunks are independent of the order streams run them in.
  template <class Task>
  void runChunk(Stream& s, const ChunkPlan& plan, uint64_t ti, uint64_t tag, bool takeSites,
                Task& task) {
    uint64_t start = s.pmu.clock;
    s.pending = sampling::AccessKind::None;
    s.pendingSrc = s.pendingDst = 0;
    s.bw.reset(start, bwLimits(s));
    auto [lo, hi] = plan.chunk(ti);
    task(lo, hi);
    flushSkid(s);
    pushSpan(s, tag, static_cast<uint32_t>(ti), start, takeSites);
  }

  /// Chunk `ti` of a top-level region on its worker stream, from that
  /// stream's clock in `workerEnd`, which it moves on: the sequential path's
  /// step, also taken by an engine's inline replay.
  template <class Task>
  void runOnStream(Stream& s, const ChunkPlan& plan, uint64_t ti, uint64_t tag, Task& task,
                   std::vector<uint64_t>& workerEnd) {
    uint32_t ws = 1 + static_cast<uint32_t>(ti % opts_.numWorkers);
    s.stream = ws;
    s.pmu.setClock(workerEnd[ws]);
    runChunk(s, plan, ti, tag, true, task);
    workerEnd[ws] = s.pmu.clock;
  }

  const ir::Module& m_;
  RunOptions opts_;
  CostModel cost_;
  Rng rng_;
  RunResult result_;
  uint64_t threshold_;
  uint32_t skid_;
  std::vector<uint64_t> icacheQ10_;
  uint64_t tagCounter_ = 0;
  uint64_t idleSampleCounter_ = 0;
  std::vector<uint64_t> lastBusyEnd_;  // per worker stream

  // Bandwidth ceilings (runtime/bandwidth.h); inert when the profile's rates
  // are all 0. limits0_ serves the main stream, limitsW_ every worker.
  BwLimits limits0_;
  BwLimits limitsW_;
  bool bwEnabled_ = false;

  // Causal what-if state (interp.h: trackCausalSites / causalScale).
  bool causalTrack_ = false;
  bool causalScaleOn_ = false;
  bool causalActive_ = false;
  uint32_t causalNum_ = 1;
  uint32_t causalDen_ = 1;
  std::unordered_set<uint64_t> causalScaleSites_;
  /// Prefix sums of per-function instruction counts: the dense site index
  /// of (fid, instr) is siteBase_[fid] + instr (built only under
  /// trackCausalSites).
  std::vector<uint32_t> siteBase_;
  /// One accumulator per stream (0 = main, 1..numWorkers = replay workers),
  /// reused across regions. Safe under parallel replay: a stream never runs
  /// concurrently with itself.
  std::vector<CausalAccumulator> causalAcc_;
};

}  // namespace cb::rt::sem
