#include "runtime/interp.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "analysis/race.h"
#include "runtime/bandwidth.h"
#include "runtime/exec.h"
#include "support/common.h"

namespace cb::rt {

using ir::BuiltinKind;
using ir::FuncId;
using ir::Instr;
using ir::InstrId;
using ir::Opcode;
using ir::TypeId;
using ir::TypeKind;
using ir::ValueRef;

namespace {

struct RuntimeError {
  std::string message;
  SourceLoc loc;
};

class Interp {
 public:
  Interp(const ir::Module& m, const RunOptions& opts)
      : m_(m),
        opts_(opts),
        cost_(opts.costProfileOverride
                  ? *opts.costProfileOverride
                  : (opts.fastCostProfile ? CostProfile::fast() : CostProfile::standard())),
        pmu_(opts.sampleThreshold, opts.numWorkers + 1),
        rng_(opts.rngSeed),
        curLocale_(opts.localeId) {
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
    result_.cyclesPerFunction.assign(m.numFunctions(), 0);
    result_.log.sampleThreshold = opts.sampleThreshold;
    result_.log.numStreams = opts.numWorkers + 1;
    lastBusyEnd_.assign(opts.numWorkers + 1, 0);
    limits0_ = BwLimits::forStream(cost_.profile(), 0, opts.numWorkers);
    limitsW_ = BwLimits::forStream(cost_.profile(), 1, opts.numWorkers);
    bwEnabled_ = limits0_.enabled();
    bw_.reset(0, limits0_);
    // Instruction-footprint multiplier per function (Q10 fixed point).
    const CostProfile& p = cost_.profile();
    icacheQ10_.assign(m.numFunctions(), 1024);
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
      uint64_t n = m.function(f).numInstrs();
      if (n > p.icacheThresholdInstrs) {
        uint64_t extra = (n - p.icacheThresholdInstrs) * p.icacheSlopeQ10;
        icacheQ10_[f] = 1024 + std::min(p.icacheMaxQ10, extra);
      }
    }
    causalTrack_ = opts.trackCausalSites;
    causalScaleSites_.insert(opts.causalScale.sites.begin(), opts.causalScale.sites.end());
    causalScaleOn_ = !causalScaleSites_.empty();
    causalNum_ = opts.causalScale.num;
    causalDen_ = opts.causalScale.den;
    causalActive_ = causalTrack_ || causalScaleOn_;
    if (causalTrack_) {
      // Dense site index (fid, instr) -> siteBase_[fid] + instr, so the
      // per-charge accumulation is a flat array slot instead of a hash probe
      // (the bytecode engine keeps the identical structure).
      siteBase_.assign(m.numFunctions() + 1, 0);
      for (FuncId f = 0; f < m.numFunctions(); ++f)
        siteBase_[f + 1] = siteBase_[f] + static_cast<uint32_t>(m.function(f).numInstrs());
      acc_.init(siteBase_);
    }
  }

  RunResult run() {
    try {
      if (m_.moduleInitFunc != ir::kNone) callFunction(m_.moduleInitFunc, {});
      CB_ASSERT(m_.mainFunc != ir::kNone, "module has no main");
      callFunction(m_.mainFunc, {});
      flushSkid();
      // Final stretch of worker idle time, up to program end.
      for (uint32_t ws = 1; ws <= opts_.numWorkers; ++ws)
        emitIdleSamples(ws, lastBusyEnd_[ws], pmu_.clock(0));
      closeSerialSpan(pmu_.clock(0));
      result_.ok = true;
    } catch (const RuntimeError& e) {
      result_.ok = false;
      result_.error = m_.sourceManager().render(e.loc) + ": " + e.message;
    }
    result_.totalCycles = pmu_.clock(0);
    result_.log.totalCycles = result_.totalCycles;
    return std::move(result_);
  }

 private:
  struct Frame {
    FuncId fid = ir::kNone;
    const ir::Function* fn = nullptr;
    std::vector<Value> regs;
    std::vector<Value> slots;
    std::vector<Value> args;
    InstrId curInstr = 0;
  };

  [[noreturn]] void fail(const std::string& msg, SourceLoc loc) const {
    throw RuntimeError{msg, loc};
  }

  // ---- cost / sampling ----------------------------------------------------

  /// The causal hook mirrors the bytecode engine's: scale the charge when
  /// its site carries a what-if speedup (the ground-truth oracle re-run),
  /// then accrue the per-site split of the current task span. The site is
  /// the leaf frame's instruction pointer — the same derivation emitSample
  /// uses for the leaf, and identical in the bytecode engine.
  void charge(uint64_t c) {
    if (__builtin_expect(causalActive_, 0) && !stack_.empty()) {
      const Frame* fr = stack_.back();
      if (causalScaleOn_ &&
          causalScaleSites_.count(sampling::RunLog::siteKey(fr->fid, fr->curInstr)) != 0)
        c = causalScaledCost(c, causalNum_, causalDen_);
      if (causalTrack_ && c != 0) acc_.charge(siteBase_[fr->fid] + fr->curInstr, c);
    }
    if (!stack_.empty()) result_.cyclesPerFunction[stack_.back()->fid] += c;
    uint32_t overflows = pmu_.advance(curStream_, c);
    for (uint32_t k = 0; k < overflows; ++k) {
      if (opts_.skidInstructions == 0) emitSample();
      else skidQueue_.push_back(opts_.skidInstructions);
    }
  }

  // ---- task spans -----------------------------------------------------------

  /// Appends one span to the log, in completion order (which IS the canonical
  /// emission order: nested spans complete before their enclosing chunk, and
  /// the serial segment is closed at the fork before any chunk span).
  /// `takeSites` moves the accrued per-site split into the span (sorted,
  /// all-zero entries dropped) — false for nested spans, whose cycles stay
  /// accrued to the enclosing top-level segment.
  void pushSpan(uint64_t tag, uint32_t chunk, uint32_t stream, uint64_t start, uint64_t end,
                bool takeSites) {
    sampling::TaskSpan sp;
    sp.tag = tag;
    sp.chunk = chunk;
    sp.stream = stream;
    sp.startCycle = start;
    sp.endCycle = end;
    if (takeSites && causalTrack_) {
      sp.sites.reserve(acc_.lastDrainCount());
      acc_.drain([&sp](uint32_t fid, uint32_t instr, uint64_t raw, uint64_t s125,
                       uint64_t s2, uint64_t s4) {
        sp.sites.push_back({sampling::RunLog::siteKey(fid, instr), raw, s125, s2, s4});
      });
    }
    result_.log.taskSpans.push_back(std::move(sp));
  }

  /// Closes the open main-stream serial segment at `end` (eliding zero-length
  /// segments) and re-opens it there.
  void closeSerialSpan(uint64_t end) {
    if (end > serialStart_) {
      pushSpan(0, 0, 0, serialStart_, end, true);
    } else if (causalTrack_) {
      acc_.discard();
    }
    serialStart_ = end;
  }

  /// Called once per executed instruction: ages pending skidded samples and
  /// emits those whose skid distance has elapsed (at the CURRENT, i.e.
  /// overshot, instruction pointer).
  void tickSkid() {
    if (skidQueue_.empty()) return;
    size_t w = 0;
    for (size_t r = 0; r < skidQueue_.size(); ++r) {
      if (--skidQueue_[r] == 0) emitSample();
      else skidQueue_[w++] = skidQueue_[r];
    }
    skidQueue_.resize(w);
  }

  /// Emits pending skidded samples before the stream/task context changes.
  void flushSkid() {
    for (size_t k = 0; k < skidQueue_.size(); ++k) emitSample();
    skidQueue_.clear();
  }

  void emitSample() {
    // Parent frames are suspended at their callsite, so between frame
    // pushes/pops only the leaf's instruction pointer moves: reuse the
    // resolved stack from the previous sample and patch the leaf.
    if (cachedStackGen_ != stackGen_) {
      cachedStack_.clear();
      cachedStack_.reserve(stack_.size());
      for (const Frame* fr : stack_) cachedStack_.push_back({fr->fid, fr->curInstr});
      cachedStackGen_ = stackGen_;
    } else if (!cachedStack_.empty()) {
      cachedStack_.back().instr = stack_.back()->curInstr;
    }
    sampling::RawSample s;
    s.stream = curStream_;
    s.taskTag = curTaskTag_;
    s.atCycle = pmu_.clock(curStream_);
    s.accessKind = pendingAccess_;
    s.srcLocale = pendingSrc_;
    s.dstLocale = pendingDst_;
    s.stack = cachedStack_;
    result_.log.samples.push_back(std::move(s));
    pendingAccess_ = sampling::AccessKind::None;  // consumed by this sample
    pendingSrc_ = pendingDst_ = 0;
  }

  void emitIdleSamples(uint32_t stream, uint64_t from, uint64_t to) {
    if (!opts_.sampleIdle || opts_.sampleThreshold == 0) return;
    // Idle workers still burn cycles in the tasking layer; attribute them to
    // the runtime frames gperftools reports (Fig. 4 ratios: mostly
    // __sched_yield, some pthread machinery, a little chpl task yield).
    uint64_t th = opts_.sampleThreshold;
    uint64_t first = (from / th + 1) * th;
    for (uint64_t t = first; t <= to; t += th) {
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

  /// Classifies one array element access for the PGAS simulation: resolves
  /// the owning locale of dim-0 coordinate `idx0` via the owning array's
  /// domain (views defer to their base) and, when the owner differs from the
  /// executing locale, charges the remote GET/PUT cost and bumps the exact
  /// comm counters. The classification is left pending for the next sample.
  void noteArrayAccess(const ArrayObj* arr, int64_t idx0, bool isStore) {
    const ArrayObj* own = arr->base ? arr->base.get() : arr;
    const DomainVal& od = own->dom;
    int64_t owner;
    if (od.distKind != 0 && od.distLocales > 1 && (owner = od.ownerOf(idx0)) != curLocale_) {
      pendingSrc_ = static_cast<int32_t>(curLocale_);
      pendingDst_ = static_cast<int32_t>(owner);
      ++result_.log.commMatrix[sampling::RunLog::pairKey(curLocale_, owner)];
      if (isStore) {
        pendingAccess_ = sampling::AccessKind::RemotePut;
        ++result_.log.commPuts;
        charge(cost_.profile().remotePut);
      } else {
        pendingAccess_ = sampling::AccessKind::RemoteGet;
        ++result_.log.commGets;
        charge(cost_.profile().remoteGet);
      }
      if (bwEnabled_) chargeNetBw(owner, bwLimits().netElemBytes);
    } else {
      pendingAccess_ = sampling::AccessKind::Local;
      pendingSrc_ = pendingDst_ = 0;
      if (bwEnabled_) chargeLocalBw(own);
    }
  }

  // ---- bandwidth ceilings ---------------------------------------------------

  const BwLimits& bwLimits() const { return curStream_ == 0 ? limits0_ : limitsW_; }

  /// Charges the network-side ceilings for one remote transfer of `bytes`
  /// toward locale `peer`: first the owner-contention hit, then the
  /// injection-bandwidth token bucket. Stall cycles are charged to the
  /// stream (so samples landing inside them blame the pending access) and
  /// counted separately so blame can split latency- from bandwidth-bound.
  void chargeNetBw(int64_t peer, uint64_t bytes) {
    const BwLimits& lim = bwLimits();
    uint64_t cs = bw_.cont.note(pmu_.clock(curStream_), peer, lim);
    if (cs) {
      result_.log.commContentionCycles += cs;
      charge(cs);
    }
    uint64_t ns = bw_.net.consume(pmu_.clock(curStream_), bytes, lim.netRate, lim.netBurstQ);
    if (ns) {
      result_.log.commNetStallCycles += ns;
      charge(ns);
    }
  }

  /// Charges the local memory-bandwidth roof for one element access against
  /// a streaming (cache-busting) array. Cache-resident arrays carry
  /// streamBytes == 0 and stay free.
  void chargeLocalBw(const ArrayObj* own) {
    const BwLimits& lim = bwLimits();
    if (lim.memRate == 0 || own->streamBytes == 0) return;
    uint64_t ms =
        bw_.mem.consume(pmu_.clock(curStream_), own->streamBytes, lim.memRate, lim.memBurstQ);
    if (ms) {
      result_.log.commMemStallCycles += ms;
      charge(ms);
    }
  }

  // ---- values ---------------------------------------------------------------

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
              v.elems.push_back(makeArray(dom.dom, m_.types().get(ft).elem, ir::kNone, 0));
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
        return v;  // empty handle; real arrays come from ArrayNew
      }
      default:
        return Value{};
    }
  }

  /// Scalar slots of a type — array allocation/default-init cost scales
  /// with it (a [Elems] 8*real zero-fills 8 reals per element).
  uint64_t scalarWidth(TypeId t) {
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
      default:
        return 1;
    }
  }

  /// True when a type's default value owns array storage (so elements may
  /// NOT share a copied prototype).
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

  Value makeArray(const DomainVal& dom, TypeId elemTy, FuncId allocFn, InstrId allocInstr) {
    int64_t n = dom.size();
    auto obj = std::make_shared<ArrayObj>();
    obj->dom = dom;
    uint64_t width = scalarWidth(elemTy);
    const CostProfile& prof = cost_.profile();
    if (prof.memBandwidthBytesPerKCycle != 0 &&
        static_cast<uint64_t>(n) * width * 8 > prof.memCacheResidentBytes)
      obj->streamBytes = static_cast<uint32_t>(8 * width);
    obj->data.reserve(static_cast<size_t>(n));
    if (n > 0) {
      if (typeOwnsArrays(elemTy)) {
        // Elements own nested array storage: each needs a fresh default
        // (copying a prototype would alias one shared inner array).
        for (int64_t k = 0; k < n; ++k) obj->data.push_back(defaultValue(elemTy));
      } else {
        Value proto = defaultValue(elemTy);
        for (int64_t k = 0; k < n; ++k) obj->data.push_back(proto);
      }
    }
    charge(prof.arrayNewPerElem * static_cast<uint64_t>(n) * width);
    Value v;
    v.kind = VKind::Array;
    v.arr = std::move(obj);
    if (allocFn != ir::kNone) {
      uint64_t key = sampling::RunLog::siteKey(allocFn, allocInstr);
      uint64_t bytes = v.arr->approxBytes();
      auto& slot = result_.log.allocBytesBySite[key];
      if (bytes > slot) slot = bytes;
    }
    return v;
  }

  // ---- calls ----------------------------------------------------------------

  Value callFunction(FuncId f, std::vector<Value> args) {
    const ir::Function& fn = m_.function(f);
    Frame fr;
    fr.fid = f;
    fr.fn = &fn;
    fr.args = std::move(args);
    fr.regs.resize(fn.numInstrs());
    fr.slots.resize(numSlots_[f]);
    stack_.push_back(&fr);
    ++stackGen_;
    // `on` blocks are lexically scoped: a return from inside one must not
    // leak the switched locale into the caller.
    int64_t savedLocale = curLocale_;
    size_t savedOnDepth = onStack_.size();
    Value ret = execFrame(fr);
    curLocale_ = savedLocale;
    onStack_.resize(savedOnDepth);
    stack_.pop_back();
    ++stackGen_;
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
      fr.curInstr = id;
      if (++result_.instructionsExecuted > opts_.maxInstructions)
        fail("instruction budget exceeded", in.loc);
      if (opts_.skidInstructions != 0) tickSkid();
      charge((cost_.cost(in) * icacheQ10_[fr.fid]) >> 10);

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
            charge(cost_.profile().nestedArrayHandle);
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
          if (base.arr->isView()) charge(cost_.profile().viewIndexExtra);
          noteArrayAccess(base.arr.get(), idx0, (in.imm & 2) != 0);
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
          charge(cost_.profile().recordNewPerField *
                 m_.types().get(in.type).fields.size());
          fr.regs[id] = defaultValue(in.type);
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
          fr.regs[id] = makeArray(d.dom, elem, fr.fid, id);
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
          execSpawn(fr, id, in);
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
      int64_t x = a.asInt(), y = b.asInt(), r = 0;
      switch (k) {
        case BinKind::Add: r = x + y; break;
        case BinKind::Sub: r = x - y; break;
        case BinKind::Mul: r = x * y; break;
        case BinKind::Div:
          if (y == 0) fail("integer division by zero", in.loc);
          r = x / y;
          break;
        case BinKind::Mod:
          if (y == 0) fail("integer modulo by zero", in.loc);
          r = x % y;
          break;
        case BinKind::Min: r = x < y ? x : y; break;
        case BinKind::Max: r = x > y ? x : y; break;
        default: fail("bad integer op", in.loc);
      }
      fr.regs[id] = Value::makeInt(r);
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
      case UnKind::Neg:
        fr.regs[id] = (v.kind == VKind::Int) ? Value::makeInt(-v.i) : Value::makeReal(-v.num());
        return;
      case UnKind::Not: fr.regs[id] = Value::makeBool(!v.asBool()); return;
      case UnKind::IntToReal: fr.regs[id] = Value::makeReal(static_cast<double>(v.asInt())); return;
      case UnKind::RealToInt: fr.regs[id] = Value::makeInt(static_cast<int64_t>(v.num())); return;
      case UnKind::Abs:
        fr.regs[id] =
            (v.kind == VKind::Int) ? Value::makeInt(std::llabs(v.i)) : Value::makeReal(std::fabs(v.num()));
        return;
      case UnKind::Sqrt: fr.regs[id] = Value::makeReal(std::sqrt(v.num())); return;
      case UnKind::Sin: fr.regs[id] = Value::makeReal(std::sin(v.num())); return;
      case UnKind::Cos: fr.regs[id] = Value::makeReal(std::cos(v.num())); return;
      case UnKind::Exp: fr.regs[id] = Value::makeReal(std::exp(v.num())); return;
      case UnKind::Floor: fr.regs[id] = Value::makeInt(static_cast<int64_t>(std::floor(v.num()))); return;
    }
  }

  void execSpawn(Frame& fr, InstrId id, const Instr& in) {
    int64_t lo = evalOp(fr, in.ops[0]).asInt();
    int64_t hi = evalOp(fr, in.ops[1]).asInt();
    std::vector<Value> extra;
    for (size_t k = 2; k < in.ops.size(); ++k) extra.push_back(evalOp(fr, in.ops[k]));

    // Chunk plan: forall distributes [lo, hi] in blocks over the workers;
    // coforall creates one task per index.
    std::vector<std::pair<int64_t, int64_t>> chunks;
    int64_t count = hi - lo + 1;
    if (count > 0) {
      if (in.imm == 1) {
        for (int64_t i = lo; i <= hi; ++i) chunks.emplace_back(i, i);
      } else {
        int64_t w = std::max<int64_t>(1, opts_.numWorkers);
        int64_t per = (count + w - 1) / w;
        for (int64_t c = lo; c <= hi; c += per) chunks.emplace_back(c, std::min(hi, c + per - 1));
      }
    }
    charge(cost_.profile().spawnPerTask * chunks.size());

    uint64_t tag = ++tagCounter_;
    sampling::SpawnRecord rec;
    rec.tag = tag;
    rec.parentTag = curTaskTag_;
    rec.taskFn = in.extra.func;
    rec.spawnInstr = id;
    rec.preSpawnStack.reserve(stack_.size());
    for (const Frame* f : stack_) rec.preSpawnStack.push_back({f->fid, f->curInstr});
    result_.log.spawns.emplace(tag, std::move(rec));

    flushSkid();  // pending samples belong to the pre-spawn context
    uint64_t savedTag = curTaskTag_;
    uint32_t savedStream = curStream_;
    // Each task chunk starts with no pending comm attribution, regardless of
    // whether chunks run interleaved here or consecutively per worker in the
    // bytecode engine's parallel replay.
    sampling::AccessKind savedPending = pendingAccess_;
    int32_t savedSrc = pendingSrc_, savedDst = pendingDst_;
    BwState savedBw = bw_;  // bandwidth state is chunk-local, like the pending access
    std::vector<Frame*> savedStack;
    savedStack.swap(stack_);
    ++stackGen_;

    if (savedTag != 0 || savedStream != 0) {
      // Nested spawn: the pool is busy — run inline on the current stream.
      curTaskTag_ = tag;
      for (size_t ti = 0; ti < chunks.size(); ++ti) {
        std::vector<Value> args;
        args.push_back(Value::makeInt(chunks[ti].first));
        args.push_back(Value::makeInt(chunks[ti].second));
        for (const Value& v : extra) args.push_back(v);
        pendingAccess_ = sampling::AccessKind::None;
        pendingSrc_ = pendingDst_ = 0;
        uint64_t nStart = pmu_.clock(curStream_);
        bw_.reset(nStart, bwLimits());
        callFunction(in.extra.func, std::move(args));
        flushSkid();
        // Nested spans carry no site split — their cycles stay accrued to
        // the enclosing top-level segment's map.
        pushSpan(tag, static_cast<uint32_t>(ti), curStream_, nStart, pmu_.clock(curStream_),
                 /*takeSites=*/false);
      }
    } else {
      // Top-level parallel region: round-robin tasks over worker streams.
      uint64_t t0 = pmu_.clock(0);
      closeSerialSpan(t0);  // the fork ends the main-stream serial segment
      uint32_t w = opts_.numWorkers;
      // Workers spun idle since their last task ended (between regions /
      // during serial sections) — the __sched_yield time of Fig. 4.
      for (uint32_t ws = 1; ws <= w; ++ws) {
        emitIdleSamples(ws, lastBusyEnd_[ws], t0);
        lastBusyEnd_[ws] = t0;
      }
      std::vector<uint64_t> workerEnd(w + 1, t0);
      curTaskTag_ = tag;
      // Count regions the race-freedom prover could not clear (the bytecode
      // engine would replay them sequentially). The reference interpreter
      // always runs chunks interleaved, but the counter depends only on the
      // static verdict so the RunLog stays bit-identical across engines.
      if (!raceCache_.verdictFor(m_, in.extra.func).raceFree)
        ++result_.log.raceFallbackRegions;
      for (size_t ti = 0; ti < chunks.size(); ++ti) {
        uint32_t ws = 1 + static_cast<uint32_t>(ti % w);
        uint64_t chunkStart = workerEnd[ws];
        pmu_.setClock(ws, workerEnd[ws]);
        curStream_ = ws;
        std::vector<Value> args;
        args.push_back(Value::makeInt(chunks[ti].first));
        args.push_back(Value::makeInt(chunks[ti].second));
        for (const Value& v : extra) args.push_back(v);
        pendingAccess_ = sampling::AccessKind::None;
        pendingSrc_ = pendingDst_ = 0;
        bw_.reset(workerEnd[ws], limitsW_);
        callFunction(in.extra.func, std::move(args));
        flushSkid();
        workerEnd[ws] = pmu_.clock(ws);
        pushSpan(tag, static_cast<uint32_t>(ti), ws, chunkStart, workerEnd[ws],
                 /*takeSites=*/true);
      }
      uint64_t tEnd = t0;
      for (uint32_t ws = 1; ws <= w; ++ws) tEnd = std::max(tEnd, workerEnd[ws]);
      for (uint32_t ws = 1; ws <= w; ++ws) {
        emitIdleSamples(ws, workerEnd[ws], tEnd);
        lastBusyEnd_[ws] = tEnd;
      }
      pmu_.setClock(0, tEnd);
      serialStart_ = tEnd;  // the join re-opens the main-stream serial segment
    }

    stack_.swap(savedStack);
    ++stackGen_;
    curTaskTag_ = savedTag;
    curStream_ = savedStream;
    pendingAccess_ = savedPending;
    pendingSrc_ = savedSrc;
    pendingDst_ = savedDst;
    bw_ = savedBw;
  }

  void execBuiltin(Frame& fr, InstrId id, const Instr& in) {
    switch (in.extra.builtin) {
      case BuiltinKind::Writeln: {
        std::string line;
        for (size_t k = 0; k < in.ops.size(); ++k) {
          if (k) line += " ";
          line += renderValue(evalOp(fr, in.ops[k]));
        }
        line += "\n";
        if (opts_.echoWriteln) std::fputs(line.c_str(), stdout);
        result_.output += line;
        break;
      }
      case BuiltinKind::Random:
        fr.regs[id] = Value::makeReal(rng_.nextDouble());
        break;
      case BuiltinKind::Clock:
        fr.regs[id] = Value::makeInt(static_cast<int64_t>(pmu_.clock(curStream_)));
        break;
      case BuiltinKind::Yield:
      case BuiltinKind::HeapHint:
        break;
      case BuiltinKind::ArrayFill: {
        Value arr = evalOp(fr, in.ops[0]);
        Value v = evalOp(fr, in.ops[1]);
        if (arr.kind != VKind::Array || !arr.arr) fail("fill of a non-array", in.loc);
        int64_t n = arr.arr->dom.size();
        for (int64_t k = 0; k < n; ++k) *arr.arr->atLinear(k) = v;
        charge(cost_.profile().arrayFillPerElem * static_cast<uint64_t>(n));
        break;
      }
      case BuiltinKind::ArrayCopy: {
        Value dst = evalOp(fr, in.ops[0]);
        Value src = evalOp(fr, in.ops[1]);
        if (dst.kind != VKind::Array || !dst.arr || src.kind != VKind::Array || !src.arr)
          fail("copy of a non-array", in.loc);
        int64_t n = dst.arr->dom.size();
        if (n != src.arr->dom.size()) fail("array copy size mismatch", in.loc);
        for (int64_t k = 0; k < n; ++k) *dst.arr->atLinear(k) = *src.arr->atLinear(k);
        charge(cost_.profile().arrayCopyPerElem * static_cast<uint64_t>(n));
        break;
      }
      case BuiltinKind::ConfigGet: {
        Value name = evalOp(fr, in.ops[0]);
        Value def = evalOp(fr, in.ops[1]);
        auto it = opts_.configOverrides.find(name.str ? *name.str : "");
        if (it == opts_.configOverrides.end()) {
          fr.regs[id] = def;
          break;
        }
        const std::string& s = it->second;
        switch (def.kind) {
          case VKind::Int: fr.regs[id] = Value::makeInt(std::strtoll(s.c_str(), nullptr, 10)); break;
          case VKind::Real: fr.regs[id] = Value::makeReal(std::strtod(s.c_str(), nullptr)); break;
          case VKind::Bool: fr.regs[id] = Value::makeBool(s == "true" || s == "1"); break;
          default: fr.regs[id] = def; break;
        }
        break;
      }
      case BuiltinKind::Dmapped: {
        Value d = evalOp(fr, in.ops[0]);
        if (d.kind != VKind::Domain) fail("dmapped on a non-domain", in.loc);
        DomainVal dv = d.dom;
        dv.distKind = static_cast<uint8_t>(evalOp(fr, in.ops[1]).asInt());
        dv.distLocales = static_cast<uint16_t>(std::max<uint32_t>(1, opts_.numLocales));
        fr.regs[id] = Value::makeDomain(dv);
        break;
      }
      case BuiltinKind::OnBegin: {
        int64_t target = evalOp(fr, in.ops[0]).asInt();
        int64_t L = std::max<int64_t>(1, opts_.numLocales);
        target = ((target % L) + L) % L;  // wrap like Locales[i % numLocales]
        onStack_.push_back(curLocale_);
        if (target != curLocale_) {
          ++result_.log.commOnForks;
          charge(cost_.profile().onFork);
        }
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
        fr.regs[id] = Value::makeInt(std::max<int64_t>(1, opts_.numLocales));
        break;
      case BuiltinKind::AggOpen: {
        bool isSrc = evalOp(fr, in.ops[0]).asInt() != 0;
        aggStack_.push_back(AggState{isSrc, {}});
        fr.regs[id] = Value::makeInt(static_cast<int64_t>(aggStack_.size()) - 1);
        break;
      }
      case BuiltinKind::AggCopy:
        execAggCopy(fr, in);
        break;
      case BuiltinKind::AggClose: {
        int64_t h = evalOp(fr, in.ops[0]).asInt();
        if (h != static_cast<int64_t>(aggStack_.size()) - 1 || h < 0)
          fail("aggregator closed out of order", in.loc);
        AggState& st = aggStack_.back();
        const CostProfile& p = cost_.profile();
        for (const auto& [peer, n] : st.pending) {
          if (n == 0) continue;
          ++result_.log.commAggFlushes;
          charge(p.aggFlushLatency + p.aggPerElemBandwidth * n);
          if (bwEnabled_) chargeNetBw(peer, n * bwLimits().netElemBytes);
        }
        aggStack_.pop_back();
        break;
      }
    }
  }

  /// One agg.copy(): the value moves eagerly (aggregation changes cost,
  /// never values); the remote leg is classified like a naive access — same
  /// pending-sample channel, same comm matrix cell — but counts toward the
  /// aggregated counters and a per-destination buffer that flushes at
  /// aggBufferCap for aggFlushLatency + n*aggPerElemBandwidth cycles.
  void execAggCopy(Frame& fr, const Instr& in) {
    int64_t h = evalOp(fr, in.ops[0]).asInt();
    if (h < 0 || static_cast<size_t>(h) >= aggStack_.size())
      fail("aggregator used outside its task", in.loc);
    AggState& st = aggStack_[static_cast<size_t>(h)];
    Value remoteArrV = evalOp(fr, in.ops[st.isSrc ? 2 : 1]);
    if (remoteArrV.kind != VKind::Array || !remoteArrV.arr)
      fail("agg.copy element operand is not an array", in.loc);
    int64_t idx[3] = {evalOp(fr, in.ops[st.isSrc ? 3 : 2]).asInt(), 0, 0};
    Value* elem = remoteArrV.arr->at(idx);
    if (!elem) fail("array index out of bounds", in.loc);
    const ArrayObj* own =
        remoteArrV.arr->base ? remoteArrV.arr->base.get() : remoteArrV.arr.get();
    const DomainVal& od = own->dom;
    int64_t owner;
    if (od.distKind != 0 && od.distLocales > 1 && (owner = od.ownerOf(idx[0])) != curLocale_) {
      pendingAccess_ =
          st.isSrc ? sampling::AccessKind::RemoteGet : sampling::AccessKind::RemotePut;
      pendingSrc_ = static_cast<int32_t>(curLocale_);
      pendingDst_ = static_cast<int32_t>(owner);
      ++(st.isSrc ? result_.log.commAggGets : result_.log.commAggPuts);
      ++result_.log.commMatrix[sampling::RunLog::pairKey(curLocale_, owner)];
      const CostProfile& p = cost_.profile();
      uint32_t& pending = st.pending[owner];
      if (++pending >= p.aggBufferCap) {
        ++result_.log.commAggFlushes;
        charge(p.aggFlushLatency + p.aggPerElemBandwidth * pending);
        if (bwEnabled_) chargeNetBw(owner, pending * bwLimits().netElemBytes);
        pending = 0;
      }
    } else {
      pendingAccess_ = sampling::AccessKind::Local;
      pendingSrc_ = pendingDst_ = 0;
    }
    if (st.isSrc) {
      Value* dst = refOf(fr, in.ops[1], in.loc);
      *dst = *elem;
    } else {
      *elem = evalOp(fr, in.ops[3]);
    }
  }

  const ir::Module& m_;
  RunOptions opts_;
  CostModel cost_;
  sampling::VirtualPmu pmu_;
  Rng rng_;
  RunResult result_;

  std::vector<Value> globals_;
  std::vector<Frame*> stack_;
  uint32_t curStream_ = 0;
  uint64_t curTaskTag_ = 0;
  uint64_t tagCounter_ = 0;
  uint64_t idleSampleCounter_ = 0;

  // Causal what-if state (interp.h: trackCausalSites / causalScale). The
  // open main-stream serial segment starts at serialStart_; segSites_ accrues
  // the per-site split of whichever segment is currently executing (only one
  // segment is ever live at a time — the interpreter runs chunks one by one).
  bool causalTrack_ = false;
  bool causalScaleOn_ = false;
  bool causalActive_ = false;
  uint32_t causalNum_ = 1;
  uint32_t causalDen_ = 1;
  std::unordered_set<uint64_t> causalScaleSites_;
  uint64_t serialStart_ = 0;
  /// Dense per-site accumulator for the currently executing segment:
  /// siteAcc_[siteBase_[fid] + instr] with touched_ listing live slots, so
  /// each charge is a flat array slot and draining is O(sites touched).
  std::vector<uint32_t> siteBase_;
  CausalAccumulator acc_;

  // Memoized race-freedom verdicts per task function, queried at each
  // top-level spawn for the raceFallbackRegions counter.
  an::race::RaceCache raceCache_;

  // PGAS locale simulation state.
  int64_t curLocale_ = 0;
  std::vector<int64_t> onStack_;
  sampling::AccessKind pendingAccess_ = sampling::AccessKind::None;
  int32_t pendingSrc_ = 0;
  int32_t pendingDst_ = 0;

  // Bandwidth-ceiling state (runtime/bandwidth.h); inert when the profile's
  // rates are all 0. limits0_ serves the main stream, limitsW_ every worker.
  BwState bw_;
  BwLimits limits0_;
  BwLimits limitsW_;
  bool bwEnabled_ = false;

  /// Open simulated aggregators, innermost last; AggCopy addresses one by
  /// its AggOpen handle (= stack index), AggClose pops in LIFO order. The
  /// per-destination map holds buffered-element COUNTS only — values moved
  /// eagerly at copy time.
  struct AggState {
    bool isSrc;
    std::map<int64_t, uint32_t> pending;
  };
  std::vector<AggState> aggStack_;

  std::vector<sampling::Frame> cachedStack_;   // resolved copy of stack_
  uint64_t stackGen_ = 0;                      // bumped on push/pop/swap
  uint64_t cachedStackGen_ = ~0ull;            // generation cachedStack_ matches

  std::vector<std::vector<int32_t>> allocaSlot_;
  std::vector<uint32_t> numSlots_;
  std::vector<uint64_t> lastBusyEnd_;
  std::vector<uint64_t> icacheQ10_;
  std::vector<uint32_t> skidQueue_;

  friend RunResult cb::rt::execute(const ir::Module&, const RunOptions&, an::loc::Collector*);
};

}  // namespace

RunResult execute(const ir::Module& m, const RunOptions& opts, an::loc::Collector* observer) {
  if (opts.numWorkers == 0) {
    RunResult r;
    r.error = "invalid run options: numWorkers must be at least 1";
    return r;
  }
  if (!opts.referenceInterp || observer) return executeBytecode(m, opts, observer);
  Interp interp(m, opts);
  // Globals live for the whole run; _module_init assigns every one of them
  // in declaration order, so plain empty values suffice here.
  interp.globals_.resize(m.numGlobals());
  return interp.run();
}

}  // namespace cb::rt
