// Closed-loop timed phase and output verification.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "cb_config.h"
#include "e2e.h"
#include "service/job.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace e2e {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

namespace {

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Returns free heap to the OS and restarts the kernel's RSS high-water mark
// from the current RSS, so the mark covers what follows alone.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The RSS high-water mark (VmHWM) in MB; the process lifetime peak where
/// /proc is unavailable.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string firstLine(const std::string& s) { return s.substr(0, s.find('\n')); }

/// Runs fn(0..n-1) on up to hardware-concurrency threads.
template <typename Fn>
void parallelFor(size_t n, Fn fn) {
  cb::ThreadPool pool(static_cast<uint32_t>(
      std::min<size_t>(std::max<size_t>(n, 1), cb::ThreadPool::defaultConcurrency())));
  for (size_t i = 0; i < n; ++i) pool.submit([&fn, i] { fn(i); });
  pool.wait();
}

std::string verifyJob(const Workload& w, const Job& job, const cb::svc::JobResult& got) {
  if (got.exitCode != 0)
    return "exit " + std::to_string(got.exitCode) + ": " + firstLine(got.err);
  auto differs = [&](const cb::svc::JobResult& ref) {
    return ref.exitCode != 0 || ref.out != got.out;
  };
  if (w.served && differs(cb::svc::runJob(job.argv))) return "served output differs from local";
  if (!job.oracle.empty() && differs(cb::svc::runJob(job.oracle)))
    return "output differs from `" + joinArgv(job.oracle) + "`";
  if (!job.golden.empty()) {
    std::ifstream in(std::string(cb::kGoldenDir) + "/" + job.golden, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    if (!in || want.str() != got.out) return "output differs from golden " + job.golden;
  }
  if (!w.served && job.oracle.empty() && job.golden.empty() &&
      differs(cb::svc::runJob(job.argv)))
    return "output differs between two runs";
  return "";
}

}  // namespace

TimedResult runTimed(Workload& w, uint64_t seed, double seconds, uint64_t minJobs,
                     uint64_t maxJobs) {
  const size_t n = w.jobs.size();
  TimedResult t;
  t.first.resize(n);
  t.reps.assign(n, 0);
  t.bad.assign(n, 0);
  t.jobLatMs.resize(n);

  std::vector<size_t> round;
  for (size_t j = 0; j < n; ++j) round.insert(round.end(), w.jobs[j].weight, j);

  // The dispenser hands out whole rounds, each in a fresh seeded order, and
  // stops only at a round boundary so every run times the same mix. Rates,
  // CPU and peak RSS are taken per round: the median over rounds shrugs off
  // a burst of load from other tenants that a whole-run total would absorb.
  std::mutex mu;
  std::vector<size_t> order;
  size_t pos = 0;
  uint64_t handed = 0;
  bool done = false;
  Clock::time_point t0, roundStart;
  double roundCpu = 0;
  uint64_t roundJobs = 0;
  auto openRound = [&] {
    order = round;
    cb::Rng rng(seed * 0x9E3779B97F4A7C15ull + t.rounds++);
    for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.nextBounded(i)]);
    pos = 0;
    resetPeakRss();
    roundStart = Clock::now();
    roundCpu = cpuSeconds();
    roundJobs = 0;
  };
  auto closeRound = [&] {
    double wallS = msSince(roundStart) / 1000.0;
    t.roundJobsPerS.push_back(static_cast<double>(roundJobs) / wallS);
    t.roundCpuMsPerJob.push_back((cpuSeconds() - roundCpu) * 1000.0 / static_cast<double>(roundJobs));
    t.roundPeakRssMb.push_back(peakRssMb());
  };
  auto next = [&]() -> std::optional<size_t> {
    std::lock_guard<std::mutex> lock(mu);
    if (done || (maxJobs != 0 && handed >= maxJobs)) return std::nullopt;
    if (pos == order.size()) {
      if (msSince(t0) >= seconds * 1000 && handed >= minJobs) {
        done = true;  // the last round closes once its jobs finish
        return std::nullopt;
      }
      closeRound();
      openRound();
    }
    ++handed;
    ++roundJobs;
    return order[pos++];
  };
  auto record = [&](size_t j, double ms, cb::svc::JobResult res) {
    std::lock_guard<std::mutex> lock(mu);
    t.latMs.push_back(ms);
    t.jobLatMs[j].push_back(ms);
    bool failed = res.exitCode != 0;
    if (t.reps[j]++ == 0) t.first[j] = std::move(res);
    else failed = failed || res.out != t.first[j].out || res.exitCode != t.first[j].exitCode;
    t.bad[j] += failed;
  };
  auto client = [&] {
    while (std::optional<size_t> j = next()) {
      Clock::time_point start = Clock::now();
      cb::svc::JobResult res = runOnce(w, w.jobs[*j].argv);
      record(*j, msSince(start), std::move(res));
    }
  };

  uint64_t hits0 = 0, misses0 = 0;
  if (w.server) {
    hits0 = w.server->residentCache().hits();
    misses0 = w.server->residentCache().misses();
  }
  t0 = Clock::now();
  openRound();
  if (w.clients <= 1) {
    client();
  } else {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < w.clients; ++c) clients.emplace_back(client);
    for (std::thread& c : clients) c.join();
  }
  closeRound();
  t.wallS = msSince(t0) / 1000.0;
  if (w.server) {
    t.residentHits = w.server->residentCache().hits() - hits0;
    t.residentLookups = t.residentHits + w.server->residentCache().misses() - misses0;
  }
  return t;
}

double mixPercentile(const Workload& w, const TimedResult& t, double p) {
  std::vector<double> mix;
  for (size_t j = 0; j < w.jobs.size(); ++j)
    if (t.reps[j] != 0) mix.insert(mix.end(), w.jobs[j].weight, median(t.jobLatMs[j]));
  return percentile(std::move(mix), p);
}

std::vector<std::string> verify(const Workload& w, const TimedResult& t) {
  std::vector<std::string> msgs(w.jobs.size());
  parallelFor(w.jobs.size(), [&](size_t j) {
    if (t.reps[j] != 0) msgs[j] = verifyJob(w, w.jobs[j], t.first[j]);
  });
  return msgs;
}

}  // namespace e2e
