// cb_e2e: runs one workload of whole `cb` jobs and reports end-to-end and
// per-layer metrics (see README.md).
//
//   cb_e2e --workload NAME [--seed N] [--seconds S] [--out FILE] [--trace FILE]
//   cb_e2e --smoke DIR
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (or, with --trace, the per-layer ones).
// Result files are compared with `run.py compare`.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "e2e.h"
#include "service/job.h"

namespace e2e {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

namespace fs = std::filesystem;

// Every run times at least this many jobs, so at least ten lie beyond p90.
constexpr uint64_t kMinJobs = 100;
// Set-up repeats this often per run; setup_s is the median.
constexpr int kSetups = 3;
// Each distinct job is traced this often; layer times are medians.
constexpr uint32_t kTraceReps = 3;

std::string num(double v) {
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string metricsObject(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (const Metric& m : ms)
    s += (s.size() > 1 ? ", " : "") + quote(m.name) + ": {\"value\": " + num(m.value) +
         ", \"unit\": " + quote(m.unit) + "}";
  return s + "}";
}

// ---- host and build record ---------------------------------------------------

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

long cacheBytes(int level, int sysconfName) {
  long v = sysconf(sysconfName);
  if (v > 0) return v;
  // sysconf reports 0 on some kernels; sysfs has the same figure.
  for (int idx = 0; idx < 8; ++idx) {
    std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream lv(dir + "/level"), sz(dir + "/size");
    int l = 0;
    std::string size;
    if (!(lv >> l) || l != level || !(sz >> size)) continue;
    long n = std::atol(size.c_str());
    return size.back() == 'K' ? n * 1024 : size.back() == 'M' ? n * 1024 * 1024 : n;
  }
  return 0;
}

uint64_t srcLines() {
  uint64_t lines = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(std::string(CB_E2E_ROOT) + "/src", ec)) {
    std::string ext = e.path().extension().string();
    if (!e.is_regular_file() || (ext != ".cpp" && ext != ".h")) continue;
    std::ifstream in(e.path(), std::ios::binary);
    lines += static_cast<uint64_t>(std::count(std::istreambuf_iterator<char>(in),
                                              std::istreambuf_iterator<char>(), '\n'));
  }
  return lines;
}

std::string hostRecord() {
  std::ostringstream s;
  s << "\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << quote(cpuModel())
    << ", \"l2_bytes\": " << cacheBytes(2, _SC_LEVEL2_CACHE_SIZE)
    << ", \"l3_bytes\": " << cacheBytes(3, _SC_LEVEL3_CACHE_SIZE) << "},\n"
    << "  \"build\": {\"compiler\": " << quote(__VERSION__)
    << ", \"build_type\": " << quote(CB_E2E_BUILD_TYPE)
    << ", \"git_sha\": " << quote(CB_E2E_GIT_SHA) << ", \"src_lines\": " << srcLines()
    << "}";
  return s.str();
}

// ---- one run -----------------------------------------------------------------

struct RunReport {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  uint64_t attempted = 0, failed = 0, jobs = 0, rounds = 0, beyondP90 = 0;
  std::vector<Metric> metrics, layers, shares;
  std::map<std::string, uint64_t> counts;
  std::vector<std::string> errors;
  struct PerJob {
    std::string argv;
    uint32_t weight;
    uint64_t reps;
    double medianMs;
  };
  std::vector<PerJob> perJob;  // one row per distinct job
  double timedS = 0;
  std::map<std::string, std::vector<double>> perRound;

  bool correct() const { return failed == 0 && errors.empty(); }

  std::string json() const {
    std::ostringstream s;
    s << "{\"workload\": " << quote(workload) << ", \"seed\": " << seed
      << ", \"seconds\": " << num(seconds) << ", \"timed_s\": " << num(timedS)
      << ", \"traced\": " << (traced ? "true" : "false")
      << ", \"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"jobs\": " << jobs << ", \"rounds\": " << rounds
      << ", \"beyond_p90\": " << beyondP90 << ",\n     \"per_round\": {";
    for (auto it = perRound.begin(); it != perRound.end(); ++it) {
      s << (it == perRound.begin() ? "" : ", ") << quote(it->first) << ": [";
      for (size_t i = 0; i < it->second.size(); ++i) s << (i ? ", " : "") << num(it->second[i]);
      s << "]";
    }
    s << "},\n     \"metrics\": " << metricsObject(metrics);
    if (traced)
      s << ",\n     \"layers\": " << metricsObject(layers)
        << ",\n     \"shares\": " << metricsObject(shares);
    s << ",\n     \"counts\": {";
    for (auto it = counts.begin(); it != counts.end(); ++it)
      s << (it == counts.begin() ? "" : ", ") << quote(it->first) << ": " << it->second;
    s << "},\n     \"errors\": [";
    for (size_t i = 0; i < errors.size(); ++i) s << (i ? ", " : "") << quote(errors[i]);
    s << "],\n     \"per_job\": [";
    for (size_t i = 0; i < perJob.size(); ++i)
      s << (i ? ",\n       " : "\n       ") << "{\"argv\": " << quote(perJob[i].argv)
        << ", \"weight\": " << perJob[i].weight << ", \"reps\": " << perJob[i].reps
        << ", \"median_ms\": " << num(perJob[i].medianMs) << "}";
    s << "]}";
    return s.str();
  }
};

bool writeResults(const std::string& path, const std::vector<RunReport>& runs) {
  std::ofstream out(path, std::ios::binary);
  out << "{\"schema\": \"cb_e2e/1\",\n  " << hostRecord() << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i)
    out << "    " << runs[i].json() << (i + 1 < runs.size() ? ",\n" : "\n");
  out << "  ]}\n";
  return static_cast<bool>(out.flush());
}

/// Sets up (kSetups times), times, verifies and optionally traces one
/// workload. `maxJobs` > 0 makes a smoke run of that many jobs.
bool runWorkload(const std::string& name, uint64_t seed, double seconds, uint64_t maxJobs,
                 bool trace, const std::string& workDir, RunReport& rep,
                 std::vector<std::string>& events) {
  rep.workload = name;
  rep.seed = seed;
  rep.seconds = seconds;
  rep.traced = trace;
  Workload w;
  std::vector<double> setupS;
  for (int i = 0; i < (maxJobs ? 1 : kSetups); ++i) {
    w = Workload();  // stops the previous daemon outside the measurement
    std::string err;
    Clock::time_point t0 = Clock::now();
    if (!setUp(name, seed, workDir, w, err)) {
      std::fprintf(stderr, "cb_e2e: %s: set-up failed: %s\n", name.c_str(), err.c_str());
      return false;
    }
    setupS.push_back(msSince(t0) / 1000.0);
  }

  TimedResult t = runTimed(w, seed, seconds, maxJobs ? 0 : kMinJobs, maxJobs);
  std::vector<std::string> verdicts = verify(w, t);
  uint64_t roundBytes = 0;
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    rep.attempted += t.reps[j];
    rep.failed += verdicts[j].empty() ? t.bad[j] : t.reps[j];
    if (!verdicts[j].empty()) rep.errors.push_back(joinArgv(w.jobs[j].argv) + ": " + verdicts[j]);
    roundBytes += w.jobs[j].weight * t.first[j].out.size();
    rep.perJob.push_back(
        {joinArgv(w.jobs[j].argv), w.jobs[j].weight, t.reps[j], median(t.jobLatMs[j])});
  }
  rep.jobs = t.latMs.size();
  rep.rounds = t.rounds;
  rep.timedS = t.wallS;
  rep.perRound = {{"jobs_per_s", t.roundJobsPerS},
                  {"cpu_ms_per_job", t.roundCpuMsPerJob},
                  {"peak_rss_mb", t.roundPeakRssMb}};
  double p90 = mixPercentile(w, t, 90);
  for (double ms : t.latMs) rep.beyondP90 += ms > p90;
  rep.metrics = {
      {"jobs_per_s", median(t.roundJobsPerS), "jobs/s"},
      {"job_p50_ms", mixPercentile(w, t, 50), "ms"},
      {"job_p90_ms", p90, "ms"},
      {"cpu_ms_per_job", median(t.roundCpuMsPerJob), "ms"},
      {"peak_rss_mb", median(t.roundPeakRssMb), "MB"},
      {"setup_s", median(setupS), "s"},
  };
  rep.counts["jobs_per_round"] = 0;
  for (const Job& j : w.jobs) rep.counts["jobs_per_round"] += j.weight;
  if (!maxJobs) rep.counts["round_output_bytes"] = roundBytes;

  if (trace) {
    TraceSummary ts = runTraced(w, t, maxJobs ? 1 : kTraceReps, workDir, events);
    rep.attempted += ts.attempted;
    rep.failed += ts.failed;
    rep.errors.insert(rep.errors.end(), ts.errors.begin(), ts.errors.end());
    rep.layers = std::move(ts.layers);
    rep.shares = std::move(ts.shares);
    rep.counts.insert(ts.counts.begin(), ts.counts.end());
  }
  return true;
}

void printReport(const RunReport& r, bool verbose) {
  std::printf("%s seed %llu: %llu jobs in %llu rounds, %llu beyond p90, %llu/%llu failed\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              static_cast<unsigned long long>(r.jobs), static_cast<unsigned long long>(r.rounds),
              static_cast<unsigned long long>(r.beyondP90),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& e : r.errors) std::printf("  FAIL %s\n", e.c_str());
  if (!verbose) return;
  for (const RunReport::PerJob& j : r.perJob)
    std::printf("  %3u x %-58s %4llu reps %10.2f ms\n", j.weight, j.argv.c_str(),
                static_cast<unsigned long long>(j.reps), j.medianMs);
  for (const auto* group : {&r.metrics, &r.layers, &r.shares})
    for (const Metric& m : *group)
      std::printf("  %-14s %-28s %14.6g %s\n", r.workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
}

std::string defaultWorkDir(const std::string& tag) {
  return std::string(CB_E2E_BUILD_DIR) + "/work/" + tag + "-" + std::to_string(getpid());
}

/// Three jobs per workload, verified and traced. Writes `outDir`/trace.json
/// and `outDir`/result.json, which the CTest checks after it parse and
/// compare.
int smoke(const std::string& outDir) {
  bool ok = true;
  std::vector<RunReport> runs;
  std::vector<std::string> events;
  std::string workDir = defaultWorkDir("smoke");
  for (const std::string& name : workloadNames()) {
    RunReport rep;
    ok = runWorkload(name, 1, 0, 3, true, workDir + "/" + name, rep, events) && ok;
    printReport(rep, false);
    ok = ok && rep.correct();
    runs.push_back(std::move(rep));
  }
  std::error_code ec;
  fs::remove_all(workDir, ec);
  fs::create_directories(outDir, ec);
  if (!writeTraceFile(outDir + "/trace.json", events) ||
      !writeResults(outDir + "/result.json", runs)) {
    std::fprintf(stderr, "cb_e2e: smoke: cannot write to %s\n", outDir.c_str());
    ok = false;
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: cb_e2e --workload NAME [--seed N] [--seconds S] [--out FILE] "
               "[--trace FILE]\n"
               "       cb_e2e --smoke DIR\n"
               "workloads:");
  for (const std::string& n : workloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int run(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "job") {  // one cb job in a child process (set-up)
    cb::svc::JobResult r = cb::svc::runJob(std::vector<std::string>(args.begin() + 1, args.end()));
    std::fputs(r.err.c_str(), stderr);
    return r.exitCode;
  }
  if (args.size() == 2 && args[0] == "--smoke") return smoke(args[1]);

  std::string workload, outPath, tracePath;
  uint64_t seed = 1;
  double seconds = 10;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (i + 1 >= args.size()) return usage();
    const std::string& v = args[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--out") outPath = v;
    else if (a == "--trace") tracePath = v;
    else return usage();
  }
  const std::vector<std::string> names = workloadNames();
  if (std::find(names.begin(), names.end(), workload) == names.end() || !(seconds > 0))
    return usage();

  RunReport rep;
  std::vector<std::string> events;
  std::string workDir = defaultWorkDir(workload);
  bool ran = runWorkload(workload, seed, seconds, 0, !tracePath.empty(), workDir, rep, events);
  std::error_code ec;
  fs::remove_all(workDir, ec);
  if (!ran) return 1;
  printReport(rep, true);
  if (!tracePath.empty() && !writeTraceFile(tracePath, events)) {
    std::fprintf(stderr, "cb_e2e: cannot write %s\n", tracePath.c_str());
    return 1;
  }
  if (!outPath.empty() && !writeResults(outPath, {rep})) {
    std::fprintf(stderr, "cb_e2e: cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              rep.correct() ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              metricsObject(tracePath.empty() ? rep.metrics : rep.layers).c_str());
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  return e2e::run(std::vector<std::string>(argv + 1, argv + argc));
}
