// cb_e2e: end-to-end and per-layer benchmark of whole `cb` jobs.
//
// A workload is a weighted list of distinct cb argvs. One run sets the
// workload up (several times, for a steady set-up time), times whole rounds
// of it closed-loop through svc::runJob (or svc::runRemote against an
// in-process svc::Server), verifies every distinct output against an
// independent oracle, and with --trace re-runs each distinct job calling
// the layers' public functions one by one. See README.md for the metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/server.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One distinct job of a workload.
struct Job {
  std::vector<std::string> argv;  // the cb argv, program first
  uint32_t weight = 1;            // copies of this job per round
  /// An argv whose output must equal this job's (empty = none), e.g. the
  /// same job under --reference-interp, or the batch job behind a log.
  std::vector<std::string> oracle;
  /// A file under tests/golden the output must equal ("" = none).
  std::string golden;
};

/// A workload after set-up: its jobs, and the daemon for served ones.
struct Workload {
  std::string name;
  bool served = false;
  uint32_t clients = 1;
  std::vector<Job> jobs;
  /// Recording argvs of the logs the jobs read (from_log only).
  std::vector<std::vector<std::string>> recordings;
  std::unique_ptr<cb::svc::Server> server;  // served only: started and warm
};

std::vector<std::string> workloadNames();

/// Sets workload `name` up for `seed` under `workDir`: writes generated
/// inputs, records logs, starts and warms the daemon, and runs one warm-up
/// job. False (with `err`) on an unknown name or a failed step.
bool setUp(const std::string& name, uint64_t seed, const std::string& workDir, Workload& w,
           std::string& err);

/// Runs one job the way the workload does (served or local).
cb::svc::JobResult runOnce(const Workload& w, const std::vector<std::string>& argv);

std::string joinArgv(const std::vector<std::string>& argv);

// ---- timed phase and verification (timed.cpp) -----------------------------

struct TimedResult {
  std::vector<double> latMs;  // one per timed job
  double wallS = 0;
  uint64_t rounds = 0;
  // Per round: jobs/s, process user+sys CPU per job, and peak RSS.
  std::vector<double> roundJobsPerS, roundCpuMsPerJob, roundPeakRssMb;
  uint64_t residentHits = 0, residentLookups = 0;  // served only
  // Per distinct job:
  std::vector<cb::svc::JobResult> first;  // first output seen
  std::vector<uint64_t> reps;             // timed repetitions
  std::vector<std::vector<double>> jobLatMs;
  std::vector<uint64_t> bad;  // repetitions that failed or differ from `first`
};

/// Times whole seeded rounds until both `seconds` and `minJobs` are reached
/// (`maxJobs` > 0 stops early, for the smoke test).
TimedResult runTimed(Workload& w, uint64_t seed, double seconds, uint64_t minJobs,
                     uint64_t maxJobs);

/// Percentile `p` of the job mix: each distinct job at its median latency,
/// counted `weight` times. Robust to load bursts that slow a few jobs.
double mixPercentile(const Workload& w, const TimedResult& t, double p);

/// Verifies the first output of every distinct job that ran. Returns one
/// message per failed job, "" for a passing or unrun one.
std::vector<std::string> verify(const Workload& w, const TimedResult& t);

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of unsorted values.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Metric name -> (value, unit), printed and written in insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// ---- traced run (traced.cpp) -----------------------------------------------

struct TraceSummary {
  std::vector<Metric> layers;  // the per-layer metrics
  std::vector<Metric> shares;  // each layer time over the median job time
  std::map<std::string, uint64_t> counts;  // deterministic, per round
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

/// Re-runs each distinct job `reps` times untraced and traced (layer by
/// layer), checks traced output against `t.first`, and appends Chrome
/// trace events to `events`.
TraceSummary runTraced(Workload& w, const TimedResult& t, uint32_t reps,
                       const std::string& workDir, std::vector<std::string>& events);

/// Writes Chrome trace-event JSON (opens in Perfetto) holding `events`.
bool writeTraceFile(const std::string& path, const std::vector<std::string>& events);

// ---- output (main.cpp) -----------------------------------------------------

/// `s` as a quoted JSON string literal.
std::string quote(const std::string& s);

}  // namespace e2e
