// Profiling-as-a-service throughput: the acceptance gate for the resident
// daemon + analysis cache + streaming ingestion stack.
//
// Emits one JSON object (the CI timing-smoke artifact) and exits non-zero
// when any acceptance bar fails:
//   - warm analysis (resident tier) is >= 5x faster than cold
//     compile+analyze on an analysis-heavy synthetic module, and the disk
//     tier's warm profile skips the blame fixpoint (cache hit observed)
//     with a bit-identical report;
//   - the streaming post-mortem ingests a log ~100x larger than its decode
//     buffer within a fixed memory budget (decode buffer + accumulator),
//     producing the batch report bit for bit;
//   - a resident cb-serve daemon answers 1/2/4/8 concurrent clients with
//     responses bit-identical to local runJob for the same argv.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cache/analysis_cache.h"
#include "postmortem/streaming.h"
#include "sampling/log_io.h"
#include "service/client.h"
#include "service/job.h"
#include "service/server.h"
#include "support/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// User + system CPU time of the whole process (every thread), in ms.
double processCpuMs() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& t) { return t.tv_sec * 1000.0 + t.tv_usec / 1000.0; };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

// Analysis-heavy synthetic program: a deep caller-before-callee chain with
// dense intra-function def-use edges, the worst case for the blame fixpoint
// (same generator family as bench_analysis_scale), with a trivial main so
// compile+analyze dominates end-to-end cost.
std::string makeAnalysisHeavyModule(int numFuncs, int chainLen, int extraEdges) {
  cb::Rng rng(0x5CCBE4Cull);
  std::ostringstream out;
  for (int f = 0; f < numFuncs; ++f) {
    out << "proc f" << f << "(ref x: real) {\n";
    for (int v = 1; v <= chainLen; ++v)
      out << "  var v" << v << " = " << (v == 1 ? "x" : "v" + std::to_string(v - 1))
          << " + 1.0;\n";
    for (int e = 0; e < extraEdges; ++e) {
      int a = 1 + static_cast<int>(rng.nextBounded(static_cast<uint64_t>(chainLen)));
      int b = 1 + static_cast<int>(rng.nextBounded(static_cast<uint64_t>(chainLen)));
      if (a == b) continue;
      out << "  v" << a << " = v" << b << " * 0.5;\n";
    }
    out << "  x = v1;\n";
    if (f + 1 < numFuncs) out << "  f" << f + 1 << "(x);\n";
    out << "}\n";
  }
  out << "proc main() {\n  var acc = 0.0;\n  f0(acc);\n  writeln(acc);\n}\n";
  return out.str();
}

}  // namespace

int main() {
  bool ok = true;

  // -------------------------------------------------------------------
  // 1. Cold vs warm analysis: disk tier and resident tier.
  // -------------------------------------------------------------------
  const std::string src = makeAnalysisHeavyModule(40, 24, 48);
  const std::string cacheDir =
      std::filesystem::temp_directory_path().string() + "/cb_bench_cache";
  std::filesystem::remove_all(cacheDir);

  cb::ProfileOptions copts;
  copts.cacheDir = cacheDir;

  auto t0 = Clock::now();
  cb::Profiler cold(copts);
  if (!(cold.compileString("bench.chpl", src) && cold.analyze())) {
    std::fprintf(stderr, "bench: cold analysis failed: %s\n", cold.lastError().c_str());
    return 1;
  }
  double coldMs = msSince(t0);

  t0 = Clock::now();
  cb::Profiler warmDisk(copts);
  if (!(warmDisk.compileString("bench.chpl", src) && warmDisk.analyze())) {
    std::fprintf(stderr, "bench: warm analysis failed: %s\n", warmDisk.lastError().c_str());
    return 1;
  }
  double warmDiskMs = msSince(t0);
  bool diskHit = warmDisk.analysisCacheHit();

  // Resident tier: the daemon's steady state. A warm lookup re-hashes the
  // source and hands back the shared compilation+analysis, skipping parse,
  // lowering, CFG/dominators and the fixpoint entirely.
  cb::cache::ResidentProgramCache resident(8);
  {
    auto prog = std::make_shared<cb::cache::CachedProgram>();
    prog->comp = cold.sharedCompilation();
    prog->blame = cold.sharedModuleBlame();
    resident.insert(cold.programKey(), std::move(prog));
  }
  t0 = Clock::now();
  uint64_t key = cb::cache::hashProgram("bench.chpl", src, copts.compile, copts.blame);
  auto hit = resident.find(key);
  cb::Profiler warmRes(copts);
  if (hit) warmRes.attachProgram(hit->comp, hit->blame, key);
  double warmResMs = msSince(t0);
  if (!hit || !warmRes.moduleBlame()) {
    std::fprintf(stderr, "bench: resident tier missed its own entry\n");
    return 1;
  }

  // Bit-identity: the cached analysis serializes to the cold bytes.
  bool cacheBitIdentical =
      cb::cache::serializeModuleBlame(*warmDisk.moduleBlame()) ==
          cb::cache::serializeModuleBlame(*cold.moduleBlame()) &&
      cb::cache::serializeModuleBlame(*warmRes.moduleBlame()) ==
          cb::cache::serializeModuleBlame(*cold.moduleBlame());

  double speedupDisk = warmDiskMs > 0 ? coldMs / warmDiskMs : 0;
  double speedupRes = warmResMs > 0 ? coldMs / warmResMs : 0;
  constexpr double kMinWarmSpeedup = 5.0;

  // -------------------------------------------------------------------
  // 2. Streaming ingestion: large log, fixed memory, batch bit-identity.
  // -------------------------------------------------------------------
  cb::Profiler prof = cb::bench::profileAsset("minimd");
  const cb::ir::Module& m = prof.compilation()->module();
  cb::sampling::RunLog big = prof.runResult()->log;
  const int replicas = 24;
  for (int r = 1; r < replicas; ++r)
    big.samples.insert(big.samples.end(), prof.runResult()->log.samples.begin(),
                       prof.runResult()->log.samples.end());
  std::string logPath =
      std::filesystem::temp_directory_path().string() + "/cb_bench_stream.cblog";
  if (!cb::sampling::saveRunLog(big, logPath, cb::sampling::RunLogFormat::Binary)) {
    std::fprintf(stderr, "bench: cannot write %s\n", logPath.c_str());
    return 1;
  }
  uint64_t logBytes = std::filesystem::file_size(logPath);

  std::vector<cb::pm::Instance> inst = cb::pm::consolidate(m, big, {});
  cb::pm::BlameReport batch = cb::pm::attribute(*prof.moduleBlame(), inst, {});

  cb::pm::StreamingPostmortemOptions sopts;
  cb::pm::BlameReport streamed;
  cb::pm::StreamingPostmortemStats stats;
  t0 = Clock::now();
  if (!cb::pm::runPostmortemStreamingFile(m, prof.moduleBlame(), logPath, sopts, streamed,
                                          nullptr, &stats)) {
    std::fprintf(stderr, "bench: streaming post-mortem failed on %s\n", logPath.c_str());
    return 1;
  }
  double streamMs = msSince(t0);
  std::filesystem::remove(logPath);

  bool streamBitIdentical = streamed == batch;
  // Fixed budget: decode window + accumulator must stay under 8 MiB while
  // the log itself is tens of MiB.
  constexpr size_t kStreamBudgetBytes = 8ull * 1024 * 1024;
  size_t streamFootprint = stats.decodeBufferBytes + stats.peakAccumulatorBytes;
  bool streamBounded = streamFootprint <= kStreamBudgetBytes &&
                       logBytes > 4 * (uint64_t)stats.decodeBufferBytes;

  // -------------------------------------------------------------------
  // 3. Served vs local: concurrent soak at widths 1/2/4/8.
  // -------------------------------------------------------------------
  const std::vector<std::vector<std::string>> jobs = {
      {"minimd", "--view", "data"},
      {"example", "--view", "data"},
      {"minimd", "--view", "code"},
  };
  std::vector<cb::svc::JobResult> expected;
  for (const auto& argv : jobs) expected.push_back(cb::svc::runJob(argv));

  struct SoakRow {
    uint32_t width;
    uint32_t requests;
    double ms;
    double cpuMs;  // process CPU over the round: daemon, clients, scheduler
    bool identical;
  };
  std::vector<SoakRow> soak;
  bool servedIdentical = true;
  for (uint32_t width : {1u, 2u, 4u, 8u}) {
    cb::svc::ServerOptions so;
    so.socketPath = std::filesystem::temp_directory_path().string() + "/cb_bench_" +
                    std::to_string(width) + ".sock";
    std::filesystem::remove(so.socketPath);
    so.workers = width;
    cb::svc::Server server(so);
    if (!server.start()) {
      std::fprintf(stderr, "bench: daemon failed to start: %s\n",
                   server.lastError().c_str());
      return 1;
    }
    uint32_t requests = 2 * width;
    std::vector<std::thread> clients;
    std::vector<bool> match(requests, false);
    t0 = Clock::now();
    double cpu0 = processCpuMs();
    for (uint32_t i = 0; i < requests; ++i)
      clients.emplace_back([&, i] {
        const auto& argv = jobs[i % jobs.size()];
        const cb::svc::JobResult& want = expected[i % jobs.size()];
        cb::svc::ClientResult got = cb::svc::runRemote(so.socketPath, argv);
        match[i] = got.ok && got.job.exitCode == want.exitCode &&
                   got.job.out == want.out && got.job.err == want.err;
      });
    for (auto& t : clients) t.join();
    double ms = msSince(t0);
    double cpuMs = processCpuMs() - cpu0;
    server.stop();
    bool all = true;
    for (bool b : match) all = all && b;
    servedIdentical = servedIdentical && all;
    soak.push_back({width, requests, ms, cpuMs, all});
  }

  // -------------------------------------------------------------------
  // Report + gates.
  // -------------------------------------------------------------------
  std::printf("{\n");
  std::printf("  \"analysis_cache\": {\"cold_ms\": %.2f, \"warm_disk_ms\": %.2f, "
              "\"warm_resident_ms\": %.4f, \"speedup_disk\": %.1f, "
              "\"speedup_resident\": %.1f, \"disk_hit\": %s, \"bit_identical\": %s},\n",
              coldMs, warmDiskMs, warmResMs, speedupDisk, speedupRes,
              diskHit ? "true" : "false", cacheBitIdentical ? "true" : "false");
  std::printf("  \"streaming\": {\"log_bytes\": %llu, \"samples\": %llu, \"ms\": %.1f, "
              "\"decode_buffer_bytes\": %zu, \"peak_accumulator_bytes\": %zu, "
              "\"budget_bytes\": %zu, \"bit_identical\": %s},\n",
              (unsigned long long)logBytes, (unsigned long long)stats.samples, streamMs,
              stats.decodeBufferBytes, stats.peakAccumulatorBytes, kStreamBudgetBytes,
              streamBitIdentical ? "true" : "false");
  std::printf("  \"soak\": [\n");
  for (size_t i = 0; i < soak.size(); ++i)
    std::printf("    {\"width\": %u, \"requests\": %u, \"ms\": %.1f, \"jobs_per_sec\": "
                "%.1f, \"cpu_ms_per_job\": %.1f, \"bit_identical\": %s}%s\n",
                soak[i].width, soak[i].requests, soak[i].ms,
                soak[i].requests * 1000.0 / soak[i].ms, soak[i].cpuMs / soak[i].requests,
                soak[i].identical ? "true" : "false", i + 1 < soak.size() ? "," : "");
  std::printf("  ],\n  \"peak_rss_mb\": %.1f\n}\n", peakRssMb());

  if (!diskHit) {
    std::fprintf(stderr, "bench: warm profile did not hit the disk cache\n");
    ok = false;
  }
  if (!cacheBitIdentical) {
    std::fprintf(stderr, "bench: cached analysis diverged from cold analysis\n");
    ok = false;
  }
  if (speedupRes < kMinWarmSpeedup) {
    std::fprintf(stderr, "bench: resident warm speedup %.1fx below the %.0fx bar\n",
                 speedupRes, kMinWarmSpeedup);
    ok = false;
  }
  if (!streamBitIdentical) {
    std::fprintf(stderr, "bench: streamed report != batch report\n");
    ok = false;
  }
  if (!streamBounded) {
    std::fprintf(stderr,
                 "bench: streaming footprint %zu bytes vs budget %zu (log %llu bytes)\n",
                 streamFootprint, kStreamBudgetBytes, (unsigned long long)logBytes);
    ok = false;
  }
  if (!servedIdentical) {
    std::fprintf(stderr, "bench: served responses diverged from local runJob\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
