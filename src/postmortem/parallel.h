// Parallel sharded post-mortem pipeline. The paper observes that step 3
// (consolidation + blame attribution) is embarrassingly parallel across
// locales; the same holds across samples within one locale, because both
// consolidation and attribution are pure per-sample map-reduces. This module
// shards the raw samples of a run log by (stream, taskTag), runs the two
// per-sample kernels as tasks on the process scheduler, and reduces the
// per-shard partial BlameReports with the order-independent
// aggregateAcrossLocales kernel. The contract — enforced by the shard-invariance property suite and
// the golden fixtures — is bit-identical output to the sequential path for
// every worker and shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "postmortem/attribution.h"
#include "postmortem/instance.h"

namespace cb::pm {

struct ParallelOptions {
  /// Cap on the post-mortem shards that run at once on the process
  /// scheduler. 0 = hardware concurrency; 1 preserves the exact sequential
  /// path (no tasks, no sharding).
  uint32_t workers = 0;
  /// Shard count. 0 = auto: kShardsPerWorker per resolved worker (so the
  /// scheduler load-balances uneven shards), and no sharding at all below
  /// kMinShardSamples samples. An explicit count always shards.
  uint32_t shards = 0;
};

/// Shards-per-worker factor used when ParallelOptions.shards == 0.
inline constexpr uint32_t kShardsPerWorker = 4;

/// Samples below which an auto-sharded post-mortem runs sequentially.
/// DESIGN.md §7l gives the measurement behind the value.
inline constexpr size_t kMinShardSamples = 10000;

/// Deterministic shard assignment: sample i goes to shard
/// hash(taskTag != 0 ? taskTag : stream) % numShards, so all samples of one
/// task (and all non-task samples of one stream) land in the same shard.
/// The assignment depends only on the log contents and numShards — never on
/// scheduling — and every index of `log.samples` appears in exactly one
/// shard, in ascending order.
std::vector<std::vector<uint32_t>> shardSamples(const sampling::RunLog& log, uint32_t numShards);

struct PostmortemResult {
  /// Consolidated instances in original log order — bit-identical to the
  /// sequential consolidate() output regardless of worker/shard counts
  /// (each worker writes its shard's instances into pre-assigned slots).
  std::vector<Instance> instances;
  /// Merged blame report; empty (zero rows) when mb == nullptr.
  BlameReport report;
};

/// Runs consolidation and attribution. Pass mb == nullptr to skip
/// attribution (the --fast path, where the source-variable mapping is
/// stripped). workers == 1 (after resolution), or an auto shard count on a
/// log under kMinShardSamples samples, runs the plain sequential kernels on
/// the calling thread: no tasks, no sharding. Otherwise the shards are
/// tasks of one TaskGroup on the process scheduler, at most `workers` at
/// once. A non-null `cache` is primed on the sequential path (one
/// attributor covers every instance, so its memo is complete) for a later
/// attributionSites call; the sharded path clears it instead — per-shard
/// memos are partial and must not masquerade as full coverage.
PostmortemResult runPostmortem(const ir::Module& m, const an::ModuleBlame* mb,
                               const sampling::RunLog& log, const ConsolidateOptions& copts,
                               const AttributionOptions& aopts, const ParallelOptions& popts,
                               AttributionCache* cache = nullptr);

}  // namespace cb::pm
