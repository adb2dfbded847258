// Statistics and findings behind `cb --lint`: the body of the access
// observer (Collector) that the bytecode engine calls during rt::lint's
// sampling-off run. Every number here comes from an executed access; the
// only static pieces are the affine/induction classification of each
// indexing site and the race prover's verdicts.
#include "analysis/locality.h"

#include <algorithm>
#include <sstream>

#include "runtime/value.h"
#include "sampling/sample.h"

namespace cb::an::loc {

using ir::BuiltinKind;
using ir::FuncId;
using ir::Instr;
using ir::InstrId;
using ir::Opcode;
using ir::ValueRef;
using rt::ArrayObj;
using rt::DomainVal;

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

std::string pct(double f) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << f * 100.0 << "%";
  return os.str();
}

}  // namespace

void Collector::arrayAllocated(const ArrayObj* arr, SourceLoc loc) {
  // A fresh allocation may reuse a freed array's address: it always gets a
  // new entry.
  index_[arr] = entries_.size();
  entries_.push_back(Entry{});
  Entry& e = entries_.back();
  e.s.declLoc = loc;
  e.s.distKind = arr->dom.distKind;
  e.s.elems = arr->dom.size();
}

Collector::Entry& Collector::entryFor(const ArrayObj* own) {
  auto it = index_.find(own);
  if (it != index_.end()) return entries_[it->second];
  index_[own] = entries_.size();
  entries_.push_back(Entry{});
  return entries_.back();
}

void Collector::arrayStored(FuncId fn, const Instr& store, const ArrayObj* own) {
  Entry& e = entryFor(own);
  const ValueRef& dst = store.ops[1];
  if (dst.kind == ValueRef::Kind::GlobalAddr) {
    if (e.nameTier < 2) {
      e.s.name = m_.interner().str(m_.global(dst.global).name);
      e.nameTier = 2;
    }
    return;
  }
  const ir::Function& f = m_.function(fn);
  if (dst.kind == ValueRef::Kind::Reg && f.instrs[dst.reg].op == Opcode::Alloca) {
    ir::DebugVarId dv = f.instrs[dst.reg].extra.debugVar;
    if (dv != ir::kNone && dv < m_.numDebugVars() && m_.debugVar(dv).displayable() &&
        e.nameTier < 1) {
      e.s.name = m_.interner().str(m_.debugVar(dv).name);
      e.nameTier = 1;
    }
  }
}

// ---- static affine classification -----------------------------------------

// ---- static affine classification -----------------------------------------

/// True when the operand is an affine combination of loop-induction
/// variables and loop-invariant scalars: chains of Add/Sub/Mul over
/// constants, argument values (chunk bounds), loads of plain locals and
/// globals, and domain queries. Loads through array elements or record
/// fields, Mod/Div arithmetic, and anything data-dependent break affinity
/// (the gather/scatter patterns aggregation exists for).
bool Collector::affineOperand(const ir::Function& fn, const ValueRef& v, int depth) {
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
std::pair<bool, bool> Collector::siteAffineInfo(FuncId fid, InstrId id) {
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

// ---- access accounting -----------------------------------------------------

void Collector::access(const Access& a) {
  const DomainVal& od = a.own->dom;
  ArrayStats& st = entryFor(a.own).s;
  st.distKind = od.distKind;
  ++st.accesses;
  // Dynamic stride regularity per indexing site.
  uint64_t key = (static_cast<uint64_t>(a.fn) << 32) | a.instr;
  SiteState& site = sites_[key];
  if (site.seen >= 2) {
    if (a.idx0 - site.lastIdx != site.stride) st.strideRegular = false;
  } else if (site.seen == 1) {
    site.stride = a.idx0 - site.lastIdx;
    site.seen = 2;
  } else {
    site.seen = 1;
  }
  site.lastIdx = a.idx0;
  auto [affine, induction] = siteAffineInfo(a.fn, a.instr);
  if (!affine) st.staticallyAffine = false;
  if (induction) st.inductionIndexed = true;

  if (a.owner != a.locale) {
    ++st.pairTransfers[sampling::RunLog::pairKey(a.locale, a.owner)];
    if (a.store) {
      ++st.remotePuts;
      if (a.inTask) ++st.forallRemotePuts;
    } else {
      ++st.remoteGets;
      if (a.inTask) ++st.forallRemoteGets;
    }
    st.remoteMass += a.mass;
  } else {
    st.localMass += a.mass;
  }
  // Counterfactual: the same access under the swapped distribution (the
  // what-if behind the mis-distribution suggestion).
  if (od.distKind != 0 && od.distLocales > 1) {
    DomainVal swapped = od;
    swapped.distKind = od.distKind == 1 ? 2 : 1;
    if (swapped.ownerOf(a.idx0) != a.locale) ++st.counterfactualRemote;
  }
}

void Collector::aggCopy(const ArrayObj* own, int64_t locale, int64_t owner, bool isSrc) {
  ArrayStats& st = entryFor(own).s;
  st.distKind = own->dom.distKind;
  if (owner != locale) {
    ++(isSrc ? st.aggGets : st.aggPuts);
    ++st.pairTransfers[sampling::RunLog::pairKey(locale, owner)];
  } else {
    ++st.aggLocal;
  }
}

// ---- report assembly -------------------------------------------------------

void Collector::finish(LintReport& out) {
  // Arrays: only entries that saw traffic, heaviest remote users first.
  for (Entry& e : entries_) {
    if (e.s.accesses + e.s.aggGets + e.s.aggPuts + e.s.aggLocal == 0) continue;
    if (e.s.name.empty()) e.s.name = "<anon>";
    out.arrays.push_back(std::move(e.s));
  }
  std::stable_sort(out.arrays.begin(), out.arrays.end(),
                   [](const ArrayStats& a, const ArrayStats& b) {
                     uint64_t ra = a.remoteCount() + a.aggGets + a.aggPuts;
                     uint64_t rb = b.remoteCount() + b.aggGets + b.aggPuts;
                     if (ra != rb) return ra > rb;
                     return a.accesses > b.accesses;
                   });
  // Regions: every task function, executed or not, with its verdict. A task
  // function no lowered spawn site reaches has no SpawnPlan; the prover
  // judges it here.
  for (FuncId f = 0; f < m_.numFunctions(); ++f) {
    const ir::Function& fn = m_.function(f);
    if (!fn.isTaskFn()) continue;
    RegionReport r;
    r.taskFn = f;
    r.isCoforall = fn.taskKind == ir::TaskKind::Coforall;
    r.loc = fn.spawnLoc;
    if (fn.spawnParent != ir::kNone && fn.spawnParent < m_.numFunctions())
      r.parentName = m_.function(fn.spawnParent).displayName;
    r.executed = executed_.count(f) != 0;
    auto v = verdicts_.find(f);
    r.verdict = v != verdicts_.end() ? v->second : race::analyzeTaskFunction(m_, f);
    out.regions.push_back(std::move(r));
  }
  deriveFindings(out);
}

void Collector::deriveFindings(LintReport& out) const {
  const SourceLoc mainLoc =
      m_.mainFunc < m_.numFunctions() ? m_.function(m_.mainFunc).loc : SourceLoc{};
  for (const ArrayStats& a : out.arrays) {
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
      out.findings.push_back(std::move(f));
    }
    // Missing aggregator: fine-grained naive remote traffic inside a
    // parallel region on an array with no aggregated path.
    if (a.forallRemotePuts >= kAggSuggestThreshold && a.aggPuts == 0) {
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
      out.findings.push_back(std::move(f));
    }
    if (a.forallRemoteGets >= kAggSuggestThreshold && a.aggGets == 0) {
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
      out.findings.push_back(std::move(f));
    }
  }
  for (const RegionReport& r : out.regions) {
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
    out.findings.push_back(std::move(f));
  }
  if (out.truncated) {
    Finding f;
    f.kind = FindingKind::AnalysisTruncated;
    f.loc = mainLoc;
    std::ostringstream os;
    os << "analysis stopped at the run's instruction budget after " << out.steps
       << " instructions; statistics cover a prefix of the run";
    f.message = os.str();
    out.findings.push_back(std::move(f));
  }
  if (!out.error.empty()) {
    Finding f;
    f.kind = FindingKind::AnalysisTruncated;
    f.loc = mainLoc;
    f.message = "analysis aborted early: " + out.error;
    out.findings.push_back(std::move(f));
  }
}

}  // namespace cb::an::loc
