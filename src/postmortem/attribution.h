// Post-mortem blame attribution (paper §IV.C): combine the static blame
// database with consolidated instances, bubble blame up the call path via
// exit variables / transfer functions, and aggregate per source variable.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/blame.h"
#include "postmortem/instance.h"
#include "sampling/sample.h"

namespace cb::pm {

/// One cell of a sparse locale-pair communication matrix: `samples` remote
/// samples crossed from executing locale `src` to owning locale `dst`.
/// Matrices are stored as vectors sorted by (src, dst) with no zero cells,
/// so merges and comparisons are order-stable at any locale count.
struct CommCell {
  int32_t src = 0;
  int32_t dst = 0;
  uint64_t samples = 0;

  friend bool operator==(const CommCell&, const CommCell&) = default;
};

struct VariableBlame {
  std::string name;      // "Pos", "->partArray[i].zoneArray[j].value", ...
  std::string type;      // Chapel-style type display
  std::string context;   // defining function ("main" for module-scope vars)
  uint64_t sampleCount = 0;
  double percent = 0.0;  // of user samples; rows can sum to > 100% (paper §III)
  /// PGAS split of `sampleCount` by the comm classification the sample
  /// carried (sampling::AccessKind): pure compute (no array access pending),
  /// accesses that stayed on the executing locale, and accesses that crossed
  /// locales as GETs/PUTs. Always sums to sampleCount.
  uint64_t computeSamples = 0;
  uint64_t localSamples = 0;
  uint64_t remoteGetSamples = 0;
  uint64_t remotePutSamples = 0;

  /// Sparse per-variable locale-pair matrix: how this variable's remote
  /// samples distribute over (executing, owning) locale pairs. Sorted by
  /// (src, dst), zero cells omitted; cell samples sum to remoteSamples().
  std::vector<CommCell> commMatrix;

  uint64_t remoteSamples() const { return remoteGetSamples + remotePutSamples; }

  friend bool operator==(const VariableBlame&, const VariableBlame&) = default;
};

/// The canonical row order of every BlameReport: percent (i.e. sample count)
/// descending, then name, then context, then type. A *total* order — reports
/// keyed on (context, name, type) have no equal elements under it — so any
/// merge order of per-shard or per-locale partial reports sorts to the same
/// row sequence.
bool blameRowLess(const VariableBlame& a, const VariableBlame& b);

struct BlameReport {
  uint64_t totalUserSamples = 0;  // denominator for percentages
  uint64_t totalRawSamples = 0;   // including idle/runtime samples
  /// Global locale-pair matrix over remote *user samples* (each remote
  /// sample counts exactly once, independent of how many variables it
  /// blames — per-variable rows overlap and cannot be summed for this).
  /// Sparse, sorted by (src, dst).
  std::vector<CommCell> totalComm;
  std::vector<VariableBlame> rows;  // sorted by blameRowLess

  /// Finds a row by display name (first match); nullptr if absent.
  const VariableBlame* find(const std::string& name) const;

  friend bool operator==(const BlameReport&, const BlameReport&) = default;
};

struct AttributionOptions {
  bool interprocedural = true;  // transfer-function bubbling (ablatable)
  bool includeHidden = false;   // include compiler temps (debugging aid)
};

/// The code sites behind one blame row: for the variable row keyed
/// (context, name, type), the distinct RunLog::siteKey values of the sampled
/// (leaf) instructions of every instance that blamed it. This is the bridge
/// from data-centric attribution into the causal what-if replay
/// (an::causal::VariableSites): scaling these sites by k scales exactly the
/// code the variable's blame was measured at.
struct VariableSiteSet {
  std::string context;
  std::string name;
  std::string type;
  uint64_t sampleCount = 0;     // instances that blamed this row
  std::vector<uint64_t> sites;  // sorted ascending, deduplicated

  friend bool operator==(const VariableSiteSet&, const VariableSiteSet&) = default;
};

/// The attribution kernel, fed one sample at a time. A sample is its glued
/// call path (outermost frame first, as in Instance::frames) plus its comm
/// classification. The blamed rows are a pure function of the path, so the
/// entity matching and the interprocedural transfer walk run once per
/// distinct path (the per-path memo), and a repeat sample costs one hash
/// lookup and a tally. Batch `attribute` is this class over a vector of
/// instances; the streaming post-mortem keeps one alive across a whole log.
/// State grows with distinct paths and blamed rows, never with the number
/// of samples, and the result never depends on how the samples were split
/// into calls.
class Attributor {
 public:
  explicit Attributor(const an::ModuleBlame& mb, const AttributionOptions& opts = {});
  ~Attributor();
  Attributor(Attributor&&) noexcept;
  Attributor& operator=(Attributor&&) noexcept;

  /// One non-idle sample. An empty path counts as a raw sample only.
  void add(const std::vector<sampling::Frame>& path, sampling::AccessKind kind,
           int32_t srcLocale, int32_t dstLocale);

  /// One idle (runtime-frame) sample: counted as a raw sample only.
  void addIdle();

  /// One consolidated instance, idle or not.
  void add(const Instance& inst);

  /// The report over every sample added so far, rows sorted by blameRowLess.
  BlameReport report() const;

  /// Per-row leaf-site sets over every sample added so far. Row i matches
  /// report().rows[i].
  std::vector<VariableSiteSet> sites() const;

  /// Allocator-counter style heap footprint (memo, tallies, symbol caches).
  size_t approxMemoryBytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Opaque carrier of attributor state between an `attribute` call and a
/// later `attributionSites` call over the same (blame map, instances,
/// options). When primed, sites come straight out of the attributor's memo:
/// no second pass over the samples. Only the sequential postmortem path
/// primes it; the sharded path leaves it empty and `attributionSites` falls
/// back to a fresh attributor, so the output is identical either way.
class AttributionCache {
 public:
  AttributionCache();
  ~AttributionCache();
  AttributionCache(AttributionCache&&) noexcept;
  AttributionCache& operator=(AttributionCache&&) noexcept;

  /// Drops any primed state; the next attributionSites call falls back.
  void clear();

  struct Impl;
  Impl* impl() const { return impl_.get(); }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Attributes every instance and aggregates per (variable, context).
/// A non-null `cache` is (re)primed with this run's attributor state for a
/// later attributionSites call over the same blame map and instances.
BlameReport attribute(const an::ModuleBlame& mb, const std::vector<Instance>& instances,
                      const AttributionOptions& opts = {}, AttributionCache* cache = nullptr);

/// Subset form (the parallel post-mortem shard kernel): attributes only the
/// pointed-to instances. Null entries are skipped. Attribution is a pure
/// per-instance map-reduce, so attributing a partition of the instances
/// shard-by-shard and merging with aggregateAcrossLocales reproduces the
/// full-vector result exactly.
BlameReport attribute(const an::ModuleBlame& mb, const std::vector<const Instance*>& instances,
                      const AttributionOptions& opts = {});

/// The shared order-independent reduction kernel, used both as the paper's
/// step 4 for multi-locale runs (§IV.C: "for multi-locale, we need to
/// aggregate the results across the nodes") and as the merge step of the
/// parallel sharded post-mortem pipeline. Sums sample counts per
/// (context, variable, type), recomputes percentages over the combined
/// denominator, and re-sorts with blameRowLess — the result is bit-identical
/// for every permutation and partition of the inputs.
BlameReport aggregateAcrossLocales(const std::vector<const BlameReport*>& perLocale);

/// Incremental form of the same reduction for memory-bounded weak scaling:
/// per-locale reports are folded in one at a time (and can be discarded by
/// the caller immediately after), so peak memory is O(distinct rows in the
/// aggregate), not O(locales × report). Every accumulator operation is a
/// commutative sum or a sorted-vector merge and percentages/row order are
/// fixed only in finish(), so ANY arrival order of the same report set —
/// completion order under a thread pool included — finishes bit-identically
/// to aggregateAcrossLocales over the batch (enforced by the
/// WeakScaleProperty tests).
class StreamingAggregator {
 public:
  StreamingAggregator();
  ~StreamingAggregator();
  StreamingAggregator(StreamingAggregator&&) noexcept;
  StreamingAggregator& operator=(StreamingAggregator&&) noexcept;

  /// Folds one per-locale (or per-shard) report into the accumulator.
  void add(const BlameReport& report);

  /// Recomputes percentages over the combined denominator, sorts with
  /// blameRowLess and returns the aggregate. The accumulator is consumed:
  /// reuse requires a fresh instance.
  BlameReport finish();

  /// Reports folded in so far.
  uint64_t reportsAdded() const;

  /// Allocator-counter style accounting of the accumulator's heap footprint
  /// (interned strings, row table, comm cells). Used by bench_weak_scale to
  /// assert the 1024-locale aggregate stays within a fixed budget.
  size_t approxMemoryBytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Resolves the user-facing context of a function: task functions report
/// their lexically-enclosing user function; _module_init reports "main".
std::string userContextName(const ir::Module& m, ir::FuncId f);

/// The per-row leaf-site sets of attributing `instances` (Attributor::sites).
/// Rows come back in the matching BlameReport's order (blameRowLess over the
/// same keys and counts), so sites[i] corresponds to report.rows[i] when
/// both were built from the same instances and options.
///
/// When `cache` was primed by an `attribute` call over the same blame map
/// (and the same instances/options — the caller's contract), the site sets
/// come from the cached attributor instead of re-attributing. An unprimed
/// or mismatched cache falls back to a fresh attributor.
std::vector<VariableSiteSet> attributionSites(const an::ModuleBlame& mb,
                                              const std::vector<Instance>& instances,
                                              const AttributionOptions& opts = {},
                                              const AttributionCache* cache = nullptr);

}  // namespace cb::pm
