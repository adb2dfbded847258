#include "postmortem/parallel.h"

#include <algorithm>

#include "support/scheduler.h"
#include "support/thread_pool.h"

namespace cb::pm {

namespace {

/// splitmix64 finalizer: spreads consecutive tags/stream ids across shards
/// instead of clustering them modulo the shard count.
uint64_t mixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Consolidation and attribution sharded into tasks of `group`; mb ==
/// nullptr (--fast) skips attribution.
PostmortemResult runSharded(const ir::Module& m, const an::ModuleBlame* mb,
                            const sampling::RunLog& log, const ConsolidateOptions& copts,
                            const AttributionOptions& aopts, TaskGroup& group,
                            uint32_t numShards) {
  PostmortemResult out;
  std::vector<std::vector<uint32_t>> shards = shardSamples(log, numShards);

  // Stage 1 — consolidate. Each task owns a disjoint set of output slots
  // (its shard's original sample indices), so no two tasks touch the same
  // element and the merged vector is in original log order by construction.
  out.instances.resize(log.samples.size());
  std::vector<Instance>& instances = out.instances;
  for (const std::vector<uint32_t>& shard : shards) {
    if (shard.empty()) continue;
    group.run([&m, &log, &copts, &instances, &shard] {
      for (uint32_t idx : shard)
        instances[idx] = consolidateSample(m, log, log.samples[idx], copts);
    });
  }
  group.wait();

  if (!mb) return out;  // --fast: no source-variable mapping, no attribution

  // Stage 2 — attribute each shard independently into its own slot.
  std::vector<BlameReport> partials(shards.size());
  for (uint32_t s = 0; s < shards.size(); ++s) {
    if (shards[s].empty()) continue;
    group.run([mb, &aopts, &instances, &partials, &shards, s] {
      std::vector<const Instance*> ptrs;
      ptrs.reserve(shards[s].size());
      for (uint32_t idx : shards[s]) ptrs.push_back(&instances[idx]);
      partials[s] = attribute(*mb, ptrs, aopts);
    });
  }
  group.wait();

  // Stage 3 — deterministic reduce: the multi-locale aggregation kernel is
  // order-independent, so the shard order (or any other) gives identical
  // rows, counts, percentages and row order to the sequential path.
  std::vector<const BlameReport*> ptrs;
  ptrs.reserve(partials.size());
  for (const BlameReport& r : partials) ptrs.push_back(&r);
  out.report = aggregateAcrossLocales(ptrs);
  return out;
}

}  // namespace

std::vector<std::vector<uint32_t>> shardSamples(const sampling::RunLog& log,
                                                uint32_t numShards) {
  numShards = std::max(1u, numShards);
  std::vector<std::vector<uint32_t>> shards(numShards);
  for (uint32_t i = 0; i < log.samples.size(); ++i) {
    const sampling::RawSample& s = log.samples[i];
    // taskTags are unique per spawn while stream ids are small and dense;
    // offset streams into their own key space so stream 3 and tag 3 differ.
    uint64_t key = s.taskTag != 0 ? s.taskTag : (0x8000000000000000ULL | s.stream);
    shards[mixKey(key) % numShards].push_back(i);
  }
  return shards;
}

PostmortemResult runPostmortem(const ir::Module& m, const an::ModuleBlame* mb,
                               const sampling::RunLog& log, const ConsolidateOptions& copts,
                               const AttributionOptions& aopts, const ParallelOptions& popts,
                               AttributionCache* cache) {
  if (cache) cache->clear();  // never leave a stale prime from a prior run
  uint32_t workers = ThreadPool::boundedWidth(popts.workers);
  // Below kMinShardSamples an auto-sharded run loses to the sequential path
  // (the split, the partial memos and the merge outweigh the kernels).
  if (workers <= 1 || (popts.shards == 0 && log.samples.size() < kMinShardSamples)) {
    // The exact sequential path: no tasks, no sharding, no merge.
    PostmortemResult out;
    out.instances = consolidate(m, log, copts);
    if (mb) out.report = attribute(*mb, out.instances, aopts, cache);
    return out;
  }
  uint32_t numShards = popts.shards != 0 ? popts.shards : workers * kShardsPerWorker;
  TaskGroup group(workers);
  return runSharded(m, mb, log, copts, aopts, group, numShards);
}

}  // namespace cb::pm
