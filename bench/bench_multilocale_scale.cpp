// Multi-locale PGAS simulation scaling: profileMultiLocale at 1/2/4/8
// locales on the MiniMD distribution variants and CLOMP, reporting (a) the
// comm mix of the aggregated blame (remote share of blamed samples — the
// distribution-mismatch signal), and (b) the wall-clock speedup of locale
// pipelines as scheduler tasks (at most 4 at once) over the sequential
// locale loop, verified bit-identical before any time is reported. The
// final section is the acceptance pair: LULESH at 8 locales, 4 locale
// tasks at once vs sequential.
#include <chrono>

#include "bench_common.h"

namespace {

using Clock = std::chrono::steady_clock;

double millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct TimedRun {
  double ms = 0.0;
  cb::MultiLocaleResult r;
};

TimedRun timeMultiLocale(const std::string& name, uint32_t locales, uint32_t workers) {
  cb::ProfileOptions o;
  o.localeWorkers = workers;
  auto t0 = Clock::now();
  cb::MultiLocaleResult r = cb::profileMultiLocale(cb::assetProgram(name), locales, o);
  auto t1 = Clock::now();
  if (!r.ok) {
    std::fprintf(stderr, "bench: %s at %u locales failed:\n%s\n", name.c_str(), locales,
                 r.error.c_str());
    std::exit(1);
  }
  return {millis(t0, t1), std::move(r)};
}

double remoteShare(const cb::pm::BlameReport& rep) {
  uint64_t remote = 0, blamed = 0;
  for (const cb::pm::VariableBlame& row : rep.rows) {
    remote += row.remoteSamples();
    blamed += row.sampleCount;
  }
  return blamed ? 100.0 * static_cast<double>(remote) / blamed : 0.0;
}

void benchProgram(const char* name) {
  std::printf("\n%s:\n", name);
  std::printf("  %-8s %10s %12s %12s %9s %9s\n", "locales", "samples", "seq (ms)",
              "tasks4 (ms)", "speedup", "remote%");
  for (uint32_t locales : {1u, 2u, 4u, 8u}) {
    TimedRun seq = timeMultiLocale(name, locales, /*workers=*/1);
    TimedRun par = timeMultiLocale(name, locales, /*workers=*/4);
    bool identical = par.r.aggregate == seq.r.aggregate && par.r.perLocale == seq.r.perLocale;
    std::printf("  %-8u %10llu %12.1f %12.1f %8.2fx %8.1f%%%s\n", locales,
                static_cast<unsigned long long>(seq.r.aggregate.totalRawSamples), seq.ms,
                par.ms, seq.ms / par.ms, remoteShare(seq.r.aggregate),
                identical ? "" : "  ** MISMATCH **");
    if (!identical) std::exit(1);
  }
}

}  // namespace

int main() {
  cb::bench::printHeader(
      "Multi-locale scaling: per-locale SPMD pipelines as scheduler tasks\n"
      "(every 4-wide run is verified bit-identical to the sequential locale\n"
      "loop — aggregate and per-locale reports — before its time is printed)");
  benchProgram("minimd_badloc");
  benchProgram("minimd_blockloc");
  benchProgram("clomp");

  // Acceptance pair: 8-locale LULESH, 4 locale tasks at once vs sequential.
  std::printf("\nlulesh acceptance pair (8 locales):\n");
  TimedRun seq = timeMultiLocale("lulesh", 8, /*workers=*/1);
  TimedRun par = timeMultiLocale("lulesh", 8, /*workers=*/4);
  bool identical = par.r.aggregate == seq.r.aggregate && par.r.perLocale == seq.r.perLocale;
  std::printf("  sequential %.1f ms, tasks(4) %.1f ms -> %.2fx%s (target >= 3x)\n", seq.ms,
              par.ms, seq.ms / par.ms, identical ? "" : "  ** MISMATCH **");
  if (!identical) std::exit(1);
  return 0;
}
