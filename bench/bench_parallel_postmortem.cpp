// Speedup of the parallel sharded post-mortem pipeline (consolidation +
// blame attribution + deterministic merge, shards as scheduler tasks) over
// the sequential path, at 2/4/8 workers with explicit shard counts, on the
// LULESH and MiniMD assets, plus the auto setting the CLI uses. The sample
// logs are produced once per program at a low PMU threshold so step 3 has a
// paper-scale sample volume to chew on; every parallel run is checked
// bit-identical to the sequential report before its time is reported. The
// gate sweep times sequential against 4-wide sharding across log sizes:
// the data behind pm::kMinShardSamples.
#include <chrono>
#include <random>
#include <string>

#include "bench_common.h"
#include "postmortem/attribution.h"
#include "postmortem/parallel.h"
#include "support/thread_pool.h"

namespace {

using cb::bench::printHeader;
using Clock = std::chrono::steady_clock;

double millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void benchProgram(const char* name, uint64_t threshold) {
  cb::Profiler p = cb::bench::profileAsset(name, /*fast=*/false, threshold);
  const cb::ir::Module& m = p.compilation()->module();
  const cb::an::ModuleBlame& mb = *p.moduleBlame();
  const cb::sampling::RunLog& log = p.runResult()->log;

  std::printf("\n%s: %zu samples (%zu user), %zu spawn records\n", name, log.samples.size(),
              log.numUserSamples(), log.spawns.size());
  std::printf("  %-28s %12s %10s\n", "configuration", "time (ms)", "speedup");

  auto timePostmortem = [&](uint32_t workers, uint32_t shards) {
    cb::pm::ParallelOptions popts;
    popts.workers = workers;
    popts.shards = shards;
    // Warm-up + best-of-3: post-mortem time, not first-touch page faults.
    double best = 1e300;
    cb::pm::PostmortemResult r;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      r = cb::pm::runPostmortem(m, &mb, log, {}, {}, popts);
      auto t1 = Clock::now();
      best = std::min(best, millis(t0, t1));
    }
    return std::pair<double, cb::pm::PostmortemResult>(best, std::move(r));
  };

  auto [seqMs, seqResult] = timePostmortem(1, 0);
  std::printf("  %-28s %12.2f %9.2fx\n", "sequential (workers=1)", seqMs, 1.0);
  auto report = [&](const std::string& label, double ms, const cb::pm::PostmortemResult& r) {
    bool identical = r.report == seqResult.report && r.instances == seqResult.instances;
    std::printf("  %-28s %12.2f %9.2fx%s\n", label.c_str(), ms, seqMs / ms,
                identical ? "" : "  ** MISMATCH **");
    if (!identical) std::exit(1);
  };
  for (uint32_t workers : {2u, 4u, 8u}) {
    uint32_t shards = workers * cb::pm::kShardsPerWorker;
    auto [ms, result] = timePostmortem(workers, shards);
    report("workers=" + std::to_string(workers) + " shards=" + std::to_string(shards), ms,
           result);
  }
  auto [autoMs, autoResult] = timePostmortem(0, 0);
  report(log.samples.size() < cb::pm::kMinShardSamples ? "auto (sequential: gate)"
                                                        : "auto (sharded)",
         autoMs, autoResult);
}

// The shard gate's data: sequential vs 4 workers × 16 explicit shards on
// logs of growing size (one program run per PMU threshold).
void benchShardGate() {
  std::printf("\nshard gate sweep (auto shards from %zu samples):\n", cb::pm::kMinShardSamples);
  std::printf("  %-10s %10s %12s %12s %9s\n", "program", "samples", "seq (ms)", "shard4 (ms)",
              "speedup");
  for (const char* name : {"minimd", "lulesh"})
    for (uint64_t threshold : {400000ull, 100000ull, 30000ull, 9973ull, 3000ull}) {
      cb::Profiler p = cb::bench::profileAsset(name, /*fast=*/false, threshold);
      const cb::sampling::RunLog& log = p.runResult()->log;
      double best[2] = {1e300, 1e300};
      for (int rep = 0; rep < 5; ++rep)
        for (int sharded = 0; sharded < 2; ++sharded) {
          cb::pm::ParallelOptions popts;
          popts.workers = sharded ? 4 : 1;
          popts.shards = sharded ? 16 : 0;
          auto t0 = Clock::now();
          cb::pm::runPostmortem(p.compilation()->module(), p.moduleBlame(), log, {}, {}, popts);
          best[sharded] = std::min(best[sharded], millis(t0, Clock::now()));
        }
      std::printf("  %-10s %10zu %12.3f %12.3f %8.2fx\n", name, log.samples.size(), best[0],
                  best[1], best[0] / best[1]);
    }
}

// Micro-perf of the shared reduction kernel behind both the multi-locale
// combine and the shard merge: 1024 synthetic locale reports, rows drawn
// from a fixed key pool (so merges collide, the hot path), each with a
// sparse comm matrix over 1024 locales. Exercises the two-pointer
// sorted-cell merge and the intern-once-per-report row keying.
void benchAggregation() {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> name(0, 15), ctx(0, 3), cells(2, 8);
  std::uniform_int_distribution<int32_t> loc(0, 1023);
  std::uniform_int_distribution<uint64_t> samp(1, 997);
  std::vector<cb::pm::BlameReport> reports(1024);
  for (cb::pm::BlameReport& r : reports) {
    for (int i = 0; i < 12; ++i) {
      cb::pm::VariableBlame row;
      row.name = "v" + std::to_string(name(rng));
      row.context = "f" + std::to_string(ctx(rng));
      row.type = "int";
      std::map<std::pair<int32_t, int32_t>, uint64_t> cm;
      for (int c = cells(rng); c > 0; --c) {
        int32_t s = loc(rng), d = loc(rng);
        if (s != d) cm[{s, d}] += samp(rng);
      }
      for (const auto& [key, n] : cm) {
        row.commMatrix.push_back({key.first, key.second, n});
        row.remoteGetSamples += n;
      }
      row.localSamples = samp(rng);
      row.sampleCount = row.localSamples + row.remoteGetSamples;
      r.totalUserSamples += row.sampleCount;
      r.rows.push_back(std::move(row));
    }
    r.totalRawSamples = r.totalUserSamples;
  }
  std::vector<const cb::pm::BlameReport*> ptrs;
  for (const cb::pm::BlameReport& r : reports) ptrs.push_back(&r);

  double batchMs = 1e300, streamMs = 1e300;
  cb::pm::BlameReport batch, streamed;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    batch = cb::pm::aggregateAcrossLocales(ptrs);
    auto t1 = Clock::now();
    batchMs = std::min(batchMs, millis(t0, t1));
    auto t2 = Clock::now();
    cb::pm::StreamingAggregator agg;
    for (const cb::pm::BlameReport& r : reports) agg.add(r);
    streamed = agg.finish();
    auto t3 = Clock::now();
    streamMs = std::min(streamMs, millis(t2, t3));
  }
  bool identical = batch == streamed;
  std::printf("\naggregate 1024 locale reports (12 rows, sparse 1024-locale matrices):\n");
  std::printf("  %-28s %12.2f %10.0f reports/ms\n", "batch (vector of ptrs)", batchMs,
              1024.0 / batchMs);
  std::printf("  %-28s %12.2f %10.0f reports/ms%s\n", "streaming (fold + finish)", streamMs,
              1024.0 / streamMs, identical ? "" : "  ** MISMATCH **");
  if (!identical) std::exit(1);
}

}  // namespace

int main() {
  printHeader(
      "Parallel sharded post-mortem: speedup over the sequential path\n"
      "(shard by stream/taskTag -> per-shard attribute as scheduler tasks ->\n"
      "deterministic merge;\n"
      "every row is verified bit-identical to workers=1 before timing counts)");
  std::printf("hardware concurrency: %u\n", cb::ThreadPool::defaultConcurrency());
  benchProgram("lulesh", 211);
  benchProgram("minimd", 211);
  benchShardGate();
  benchAggregation();
  return 0;
}
