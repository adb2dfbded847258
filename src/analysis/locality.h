// Locality-and-parallelism lint (`cb --lint`): statistics and findings.
//
// Predicts, before a profiled run, the PGAS communication split the paper's
// data-centric view measures: for every distributed array, the local /
// remote-GET / remote-PUT split, the locale-pair footprint, and a
// counterfactual split under the swapped Block<->Cyclic distribution. The
// numbers come from the program itself: rt::lint (runtime/lint.h) executes
// the module once on the bytecode engine with sampling off and a Collector
// attached, and the engine reports every array allocation, named array
// store, element access, agg.copy and spawn to it. The predicted remote
// GET/PUT counts therefore equal the RunLog's commGets/commPuts by
// construction (tests/test_lint.cpp checks them against the reference
// interpreter, which shares no code with the collector).
//
// On top of the per-array statistics, the Collector derives findings:
//   - DistributionMismatch: a mostly-remote array whose swapped distribution
//     would be mostly-local ("`Pos` is Cyclic but iterated in Block chunks;
//     suggest `dmapped Block`").
//   - MissingAggregator: fine-grained naive remote traffic inside a
//     forall/coforall with no Src/DstAggregator on the array.
//   - MayRaceRegion: a forall/coforall region the race-freedom prover
//     (analysis/race.h) could not clear, with the reason and the offending
//     instructions — these regions silently serialize at replay time.
//   - AnalysisTruncated: the run hit RunOptions::maxInstructions or stopped
//     on a runtime error; statistics cover a prefix of the program.
//
// The static-vs-dynamic differential (predicted split vs a measured
// BlameReport) lives in the report layer (rpt::lintView), which can see the
// postmortem types without creating a library cycle.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/race.h"
#include "ir/module.h"

namespace cb::rt {
struct ArrayObj;
}

namespace cb::an::loc {

/// Naive remote accesses inside parallel regions before a MissingAggregator
/// finding fires: the aggregator buffer capacity, where batching starts to
/// pay.
inline constexpr uint64_t kAggSuggestThreshold = 64;

enum class FindingKind : uint8_t {
  DistributionMismatch,
  MissingAggregator,
  MayRaceRegion,
  StaticDynamicDivergence,  // produced by the report layer's differential
  AnalysisTruncated,
};

struct Finding {
  FindingKind kind = FindingKind::DistributionMismatch;
  std::string variable;           // array / region anchor ("" when global)
  SourceLoc loc;                  // best source anchor for the diagnostic
  std::string message;            // human-readable, includes the suggestion
  double predictedRemoteFraction = 0.0;
  double counterfactualRemoteFraction = 0.0;  // swapped-distribution estimate
  double measuredRemoteFraction = 0.0;        // differential findings only
};

const char* findingKindName(FindingKind k);

/// Aggregated statistics for one runtime array object (views collapse onto
/// the owning allocation, like the runtime's ownership resolution).
struct ArrayStats {
  std::string name;          // user variable name, or "<anon>" fallback
  SourceLoc declLoc;         // allocation site (or naming store)
  uint8_t distKind = 0;      // 0 = local, 1 = Block, 2 = Cyclic
  int64_t elems = 0;
  uint64_t accesses = 0;     // naive element accesses (IndexAddr)
  uint64_t remoteGets = 0;
  uint64_t remotePuts = 0;
  uint64_t aggGets = 0;      // aggregated remote traffic (AggCopy)
  uint64_t aggPuts = 0;
  uint64_t aggLocal = 0;
  /// Remote count had the distribution been swapped (Block<->Cyclic) with
  /// every access replayed unchanged — the counterfactual behind the
  /// DistributionMismatch suggestion.
  uint64_t counterfactualRemote = 0;
  /// Naive remote traffic issued inside forall/coforall bodies (aggregation
  /// candidates).
  uint64_t forallRemoteGets = 0;
  uint64_t forallRemotePuts = 0;
  /// Every dynamic index observed at every site followed a fixed stride.
  bool strideRegular = true;
  /// Every indexing site is statically affine in loop-induction variables.
  bool staticallyAffine = true;
  /// Some indexing site reads a marked loop-induction alloca
  /// (fe::markLoopInductionAllocas): the access walks a loop iterator.
  bool inductionIndexed = false;
  /// Expected sample mass (virtual cycles charged at access sites) split by
  /// locality — the static analogue of a VariableBlame comm split.
  uint64_t localMass = 0;
  uint64_t remoteMass = 0;
  std::map<uint64_t, uint64_t> pairTransfers;  // RunLog::pairKey -> count

  uint64_t remoteCount() const { return remoteGets + remotePuts; }
  /// Predicted remote share of this variable's samples: by cycle mass, or
  /// by access counts when no mass was recorded.
  double remoteFraction() const;
  double countFraction() const;
  double counterfactualFraction() const;
};

/// One forall/coforall region with its race-freedom verdict.
struct RegionReport {
  ir::FuncId taskFn = ir::kNone;
  bool isCoforall = false;
  std::string parentName;    // enclosing user function display name
  SourceLoc loc;             // source location of the forall/coforall
  bool executed = false;     // entered by the run
  race::Verdict verdict;
};

struct LintReport {
  bool ok = false;           // lint ran (possibly truncated/aborted)
  bool truncated = false;    // RunOptions::maxInstructions exhausted
  std::string error;         // abort reason when execution stopped early
  uint64_t steps = 0;        // instructions the run executed
  uint32_t numLocales = 1;
  /// Predicted comm counters: the observed run's RunLog commGets/commPuts/
  /// commAggGets/commAggPuts/commOnForks.
  uint64_t predictedGets = 0;
  uint64_t predictedPuts = 0;
  uint64_t predictedAggGets = 0;
  uint64_t predictedAggPuts = 0;
  uint64_t predictedOnForks = 0;
  std::vector<ArrayStats> arrays;     // sorted by remote traffic, descending
  std::vector<RegionReport> regions;  // every task function in the module
  std::vector<Finding> findings;      // sorted by severity
};

/// One naive element access (an executed IndexAddr), as the engine ran it.
struct Access {
  const rt::ArrayObj* own = nullptr;  // owning allocation (a view's base)
  ir::FuncId fn = ir::kNone;          // the IndexAddr site
  ir::InstrId instr = 0;
  int64_t idx0 = 0;                   // first index coordinate
  int64_t locale = 0;                 // locale the access runs on
  int64_t owner = 0;                  // locale owning idx0 (== locale if local)
  /// Cycle mass behind ArrayStats::remoteFraction: the site's static cost
  /// plus the view and remote surcharges the access was charged.
  uint64_t mass = 0;
  bool store = false;
  bool inTask = false;                // inside a forall/coforall body
};

/// The lint's access observer. The bytecode engine calls it directly during
/// an observed run (rt::lint); finish() turns what it saw into a report.
class Collector {
 public:
  explicit Collector(const ir::Module& m) : m_(m) {}

  void arrayAllocated(const rt::ArrayObj* arr, SourceLoc loc);
  /// An IR Store of an array value: a global or a debug-named local target
  /// names the array (globals win over locals).
  void arrayStored(ir::FuncId fn, const ir::Instr& store, const rt::ArrayObj* own);
  void access(const Access& a);
  void aggCopy(const rt::ArrayObj* own, int64_t locale, int64_t owner, bool isSrc);
  void spawned(ir::FuncId taskFn) { executed_.insert(taskFn); }
  /// The race prover's verdict for a task function (from its SpawnPlan).
  void regionVerdict(ir::FuncId taskFn, const race::Verdict& v) { verdicts_[taskFn] = v; }

  /// Fills `out`'s arrays, regions and findings. The run's header fields
  /// (truncated, error, steps) must already be set.
  void finish(LintReport& out);

 private:
  struct Entry {
    ArrayStats s;
    int nameTier = 0;  // 0 anon, 1 local var, 2 global var
  };
  struct SiteState {
    int seen = 0;
    int64_t lastIdx = 0;
    int64_t stride = 0;
  };

  Entry& entryFor(const rt::ArrayObj* own);
  std::pair<bool, bool> siteAffineInfo(ir::FuncId fid, ir::InstrId id);
  bool affineOperand(const ir::Function& fn, const ir::ValueRef& v, int depth);
  void deriveFindings(LintReport& out) const;

  const ir::Module& m_;
  std::vector<Entry> entries_;
  std::unordered_map<const rt::ArrayObj*, size_t> index_;
  std::unordered_map<uint64_t, SiteState> sites_;
  std::unordered_map<uint64_t, std::pair<bool, bool>> affineCache_;
  bool sawInduction_ = false;
  std::unordered_set<ir::FuncId> executed_;
  std::unordered_map<ir::FuncId, race::Verdict> verdicts_;
};

}  // namespace cb::an::loc
