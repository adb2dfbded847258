// The six cb_e2e workloads. Each round of a workload holds every distinct
// job `weight` times, in an order drawn from the seed, so every run times
// the same mix. The weights put p50 and p90 at least 5 percentile points
// inside one latency class: a percentile that sits on a class boundary
// jumps between classes from run to run.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "e2e.h"
#include "service/client.h"
#include "service/job.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace e2e {

namespace fs = std::filesystem;
using Argv = std::vector<std::string>;

std::string joinArgv(const Argv& argv) {
  std::string s;
  // Generated inputs and logs live in a per-run work directory; their file
  // name identifies them.
  for (const std::string& a : argv) {
    if (!s.empty()) s += ' ';
    s += fs::path(a).filename().string();
  }
  return s;
}

namespace {

/// An executing job: its reference is the same argv on the tree-walking
/// oracle interpreter.
Job exec(Argv argv, uint32_t weight, std::string golden = "") {
  Job j{std::move(argv), weight, {}, std::move(golden)};
  j.oracle = j.argv;
  j.oracle.push_back("--reference-interp");
  return j;
}

/// A non-executing job (lint): checked against its golden fixture when one
/// exists, otherwise against a fresh run of itself.
Job check(Argv argv, uint32_t weight, std::string golden = "") {
  return Job{std::move(argv), weight, {}, std::move(golden)};
}

const Argv kClomp16 = {"--config", "CLOMP_numParts=16"};

Argv cat(Argv a, const Argv& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Round of 20. Classes by latency: tiny ig/loc programs (0-25 %), lulesh
// (25-65 %, holds p50), clomp_opt then clomp (65-80 %), minimd (80-100 %,
// holds p90). runtime is ~85-90 % of these jobs and post-mortem ~10 %.
std::vector<Job> localColdJobs() {
  return {
      exec({"lulesh"}, 3),
      exec({"lulesh", "--view", "pprof"}, 3),
      exec({"lulesh", "--view", "csv"}, 2),
      exec({"ig_naive", "--view", "csv"}, 1),
      exec({"ig_naive"}, 1),
      exec({"ig_agg", "--view", "gui"}, 1),
      exec({"minimd_badloc", "--view", "code"}, 1),
      exec({"minimd_blockloc"}, 1),
      exec(cat({"clomp_opt", "--view", "hybrid"}, kClomp16), 1),
      exec(cat({"clomp"}, kClomp16), 1),
      exec(cat({"clomp", "--view", "gui"}, kClomp16), 1),
      exec({"minimd"}, 2),
      exec({"minimd", "--view", "code"}, 1),
      exec({"minimd_opt"}, 1),
  };
}

// Round of 40 over two clients. Small jobs 0-30 %, lulesh 30-65 % (p50),
// minimd 65-97.5 % (p90), one diagnose. Resident hits skip compile and
// analyze.
std::vector<Job> serveWarmJobs() {
  return {
      exec({"lulesh"}, 7),
      exec({"lulesh", "--view", "pprof"}, 7),
      exec({"minimd"}, 13),
      exec({"ig_naive"}, 3),
      exec({"minimd_badloc", "--view", "code"}, 3),
      exec({"ig_agg", "--locales", "4", "--view", "commmatrix"}, 3, "ig_agg_commmatrix4.txt"),
      check({"minimd_badloc", "--lint"}, 3, "minimd_badloc_lint.txt"),
      exec({"lulesh", "--diagnose"}, 1, "lulesh_diagnose.txt"),
  };
}

// Round of 20 over all 11 programs, 4-locale lint model. Tiny 0-10 %,
// small 10-60 % (p50), minimd 60-75 %, clomp 75-85 %, lulesh 85-100 %
// (p90). clomp and minimd are scaled down so no job takes more than ~350 ms.
std::vector<Job> lintCorpusJobs() {
  const Argv steps1 = {"--config", "numSteps=1"};
  const Argv parts8 = {"--config", "CLOMP_numParts=8"};
  return {
      check({"ig_naive", "--lint"}, 2, "ig_naive_lint.txt"),
      check({"ig_agg", "--lint"}, 2),
      check({"minimd_badloc", "--lint"}, 3, "minimd_badloc_lint.txt"),
      check({"minimd_blockloc", "--lint"}, 3),
      check({"weakscale", "--lint"}, 1, "weakscale_lint.txt"),
      check({"example", "--lint"}, 1),
      check(cat({"minimd", "--lint"}, steps1), 2),
      check(cat({"minimd_opt", "--lint"}, steps1), 1),
      check(cat({"clomp_opt", "--lint"}, parts8), 1),
      check(cat({"clomp", "--lint"}, parts8), 1),
      check({"lulesh", "--lint"}, 3),
  };
}

// Logs recorded in set-up: (program argv, threshold). 1-3 MB text logs.
struct Recording {
  Argv program;
  const char* threshold;
};
const std::vector<Recording>& fromLogRecordings() {
  static const std::vector<Recording> r = {
      {{"lulesh"}, "1999"},
      {{"ig_naive"}, "197"},
      {{"minimd"}, "1999"},
      {cat({"clomp"}, kClomp16), "1999"},
  };
  return r;
}

// Round of 20. ig_naive 0-25 %, lulesh 25-65 % (p50), minimd 65-80 %,
// clomp 80-100 % (p90). Each job's reference is the batch job with the
// recording's options in the same view.
std::vector<Job> fromLogJobs(const std::string& workDir) {
  const std::vector<std::pair<size_t, std::pair<const char*, uint32_t>>> plan = {
      {0, {"data", 3}}, {0, {"hybrid", 3}}, {0, {"comm", 2}},   {1, {"data", 3}},
      {1, {"csv", 2}},  {2, {"data", 2}},   {2, {"hybrid", 1}}, {3, {"data", 2}},
      {3, {"csv", 2}},
  };
  std::vector<Job> jobs;
  for (const auto& [rec, viewWeight] : plan) {
    const Recording& r = fromLogRecordings()[rec];
    Argv argv = {r.program[0], "--from-log", workDir + "/log" + std::to_string(rec) + ".txt",
                 "--view", viewWeight.first};
    Job j{argv, viewWeight.second, cat(r.program, {"--threshold", r.threshold}), ""};
    j.oracle.insert(j.oracle.end(), {"--view", viewWeight.first});
    jobs.push_back(std::move(j));
  }
  return jobs;
}

// Round of 40. ~20 ms jobs 0-30 %, minimd_badloc@8 30-62.5 % (p50),
// ig_naive@4 62.5-70 %, ~95 ms jobs 70-95 % (p90), lulesh@4 and
// ig_naive@16 at the top.
std::vector<Job> multilocaleJobs() {
  return {
      exec({"minimd_badloc", "--locales", "8", "--view", "comm"}, 7),
      exec({"minimd_badloc", "--locales", "8", "--view", "locale"}, 6),
      exec({"minimd_blockloc", "--locales", "8", "--view", "comm"}, 2),
      exec({"minimd_blockloc", "--locales", "8", "--view", "locale"}, 2),
      exec({"ig_agg", "--locales", "4", "--view", "commmatrix"}, 4, "ig_agg_commmatrix4.txt"),
      exec({"weakscale", "--locales", "64"}, 4),
      exec({"ig_naive", "--locales", "4", "--view", "commmatrix"}, 3, "ig_naive_commmatrix4.txt"),
      exec({"weakscale", "--locales", "256"}, 7),
      exec({"ig_agg", "--locales", "16", "--view", "commmatrix"}, 3),
      exec({"lulesh", "--locales", "4"}, 1),
      exec({"ig_naive", "--locales", "16", "--view", "commmatrix"}, 1),
  };
}

// Analysis-heavy program: a caller-before-callee chain of `numFuncs`
// procedures, each a def-use chain of `chainLen` variables plus
// `extraEdges` random back-assignments, and a trivial main, so compile and
// the blame fixpoint dominate the job.
std::string analysisHeavyProgram(cb::Rng& rng, int numFuncs, int chainLen, int extraEdges) {
  std::ostringstream out;
  for (int f = 0; f < numFuncs; ++f) {
    out << "proc f" << f << "(ref x: real) {\n";
    out << "  var v1 = x + 1.0;\n";
    for (int v = 2; v <= chainLen; ++v) out << "  var v" << v << " = v" << v - 1 << " + 1.0;\n";
    for (int e = 0; e < extraEdges; ++e) {
      int a = 1 + static_cast<int>(rng.nextBounded(static_cast<uint64_t>(chainLen)));
      int b = 1 + static_cast<int>(rng.nextBounded(static_cast<uint64_t>(chainLen)));
      if (a != b) out << "  v" << a << " = v" << b << " * 0.5;\n";
    }
    out << "  x = v1;\n";
    if (f + 1 < numFuncs) out << "  f" << f + 1 << "(x);\n";
    out << "}\n";
  }
  out << "proc main() {\n  var acc = 0.0;\n  f0(acc);\n  writeln(acc);\n}\n";
  return out.str();
}

// 30 distinct programs per round, each run once per round. Function counts,
// chain lengths and edge counts are each spread evenly over their ranges in
// a fixed pairing, so every seed yields the same sizes, and with them steady
// p50 and p90; the seed draws the edges, so the programs differ.
constexpr int kGeneratedPrograms = 30;

bool writeGenerated(uint64_t seed, const std::string& workDir, std::vector<Job>& jobs,
                    std::string& err) {
  cb::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xA11C01Du);
  constexpr int kLast = kGeneratedPrograms - 1;
  for (int i = 0; i < kGeneratedPrograms; ++i) {
    int funcs = 80 + 120 * i / kLast;
    int chain = 32 + 16 * (i * 7 % kGeneratedPrograms) / kLast;
    int edges = 64 + 32 * (i * 11 % kGeneratedPrograms) / kLast;
    std::string path = workDir + "/gen" + std::to_string(i) + ".chpl";
    std::ofstream out(path, std::ios::binary);
    out << analysisHeavyProgram(rng, funcs, chain, edges);
    if (!out.flush()) {
      err = "cannot write " + path;
      return false;
    }
    jobs.push_back(exec({path}, 1));
  }
  return true;
}

/// Starts `cb_e2e job ARGV` (one cb job, output discarded) as a child
/// process. Returns its pid, or -1.
pid_t spawnJob(const Argv& argv) {
  Argv args = cat({"cb_e2e", "job"}, argv);
  std::vector<char*> cargs;
  for (std::string& a : args) cargs.push_back(a.data());
  cargs.push_back(nullptr);
  pid_t pid = -1;
  return posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, cargs.data(), environ) == 0 ? pid
                                                                                          : -1;
}

/// Waits for a child; true when it exited with code 0.
bool reap(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// The recordings run as child processes, in parallel: recording in this
// process would leave ~100 MB of fragmented heap behind in the threads'
// malloc arenas and swamp the peak RSS of the streaming jobs.
bool recordLogs(const std::string& workDir, Workload& w, std::string& err) {
  const auto& recs = fromLogRecordings();
  std::vector<pid_t> pids;
  for (size_t i = 0; i < recs.size(); ++i) {
    w.recordings.push_back(cat(recs[i].program, {"--threshold", recs[i].threshold}));
    pids.push_back(
        spawnJob(cat(w.recordings[i], {"--save-log", workDir + "/log" + std::to_string(i) + ".txt"})));
  }
  bool ok = true;
  for (size_t i = 0; i < pids.size(); ++i) {
    if (pids[i] < 0 || !reap(pids[i])) {
      err = "recording `" + joinArgv(w.recordings[i]) + "` failed";
      ok = false;
    }
  }
  return ok;
}

/// The socket path the daemon binds: relative to the working directory when
/// that is shorter, since sun_path holds only 108 bytes.
std::string socketPathIn(const std::string& workDir) {
  std::string abs = workDir + "/cb.sock";
  std::error_code ec;
  std::string rel = fs::proximate(abs, ec).string();
  return !ec && rel.size() < abs.size() ? rel : abs;
}

bool startDaemon(const std::string& workDir, Workload& w, std::string& err) {
  cb::svc::ServerOptions so;
  so.socketPath = socketPathIn(workDir);
  so.workers = 2;
  w.server = std::make_unique<cb::svc::Server>(so);
  if (!w.server->start()) {
    err = "daemon failed to start: " + w.server->lastError();
    return false;
  }
  // Warm the resident tier: serve one job of every program on the resident
  // path (lint and multi-locale jobs never consult it).
  std::vector<std::string> warmed;
  for (const Job& j : w.jobs) {
    bool resident = std::find(j.argv.begin(), j.argv.end(), "--lint") == j.argv.end() &&
                    std::find(j.argv.begin(), j.argv.end(), "--locales") == j.argv.end();
    if (!resident || std::find(warmed.begin(), warmed.end(), j.argv[0]) != warmed.end())
      continue;
    warmed.push_back(j.argv[0]);
    cb::svc::JobResult r = runOnce(w, j.argv);
    if (r.exitCode != 0) {
      err = "warm-up " + joinArgv(j.argv) + " failed: " + r.err;
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<std::string> workloadNames() {
  return {"local_cold", "serve_warm", "lint_corpus", "from_log", "multilocale", "analysis_cold"};
}

cb::svc::JobResult runOnce(const Workload& w, const Argv& argv) {
  if (!w.served) return cb::svc::runJob(argv);
  cb::svc::ClientResult r = cb::svc::runRemote(w.server->socketPath(), argv);
  if (r.ok) return r.job;
  cb::svc::JobResult failed;
  failed.exitCode = -1;
  failed.err = "transport: " + r.error;
  return failed;
}

bool setUp(const std::string& name, uint64_t seed, const std::string& workDir, Workload& w,
           std::string& err) {
  w = Workload();
  w.name = name;
  std::error_code ec;
  fs::create_directories(workDir, ec);
  if (ec) {
    err = "cannot create " + workDir + ": " + ec.message();
    return false;
  }
  if (name == "local_cold") {
    w.jobs = localColdJobs();
  } else if (name == "serve_warm") {
    w.served = true;
    w.clients = std::min(2u, cb::ThreadPool::defaultConcurrency());
    w.jobs = serveWarmJobs();
    return startDaemon(workDir, w, err);
  } else if (name == "lint_corpus") {
    w.jobs = lintCorpusJobs();
  } else if (name == "from_log") {
    w.jobs = fromLogJobs(workDir);
    if (!recordLogs(workDir, w, err)) return false;
  } else if (name == "multilocale") {
    w.jobs = multilocaleJobs();
  } else if (name == "analysis_cold") {
    if (!writeGenerated(seed, workDir, w.jobs, err)) return false;
  } else {
    err = "unknown workload '" + name + "'";
    return false;
  }
  // One warm-up job: the first job in a process pays one-off costs (code
  // pages, allocator arenas) that a user's later jobs do not.
  cb::svc::JobResult r = runOnce(w, w.jobs.front().argv);
  if (r.exitCode != 0) {
    err = "warm-up " + joinArgv(w.jobs.front().argv) + " failed: " + r.err;
    return false;
  }
  return true;
}

}  // namespace e2e
