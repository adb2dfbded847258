// The traced run: each distinct job again, this time calling the layers'
// public functions one by one from here, with one span per call. The
// sequence mirrors svc::runJob's paths (lint, multi-locale, resident hit,
// streaming from a log, execute), and every traced output must equal the
// job's verified bytes, so the spans time the same work the job does.
//
// Spans marked `probe` time extra calls that are not part of the job
// (bytecode lowering alone, the causal report diagnose computes inside
// itself, re-saving a log); they are left out of coverage sums.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cache/analysis_cache.h"
#include "core/profiler.h"
#include "e2e.h"
#include "postmortem/streaming.h"
#include "report/views.h"
#include "sampling/log_io.h"
#include "service/job.h"

namespace e2e {

namespace {

using Argv = std::vector<std::string>;

/// A cb argv parsed for the flags the workloads use.
struct Shape {
  std::string program, path, view = "data", fromLog;
  bool lint = false, diagnose = false;
  uint32_t locales = 1;
  bool localesSet = false;
  cb::ProfileOptions opts;
};

bool parseShape(const Argv& argv, Shape& s, std::string& err) {
  s.opts.run.sampleThreshold = 9973;  // cb's default
  for (size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    bool hasValue = i + 1 < argv.size();
    if (a == "--lint") {
      s.lint = true;
    } else if (a == "--diagnose") {
      s.diagnose = true;
    } else if (a == "--view" && hasValue) {
      s.view = argv[++i];
    } else if (a == "--threshold" && hasValue) {
      s.opts.run.sampleThreshold = std::stoull(argv[++i]);
    } else if (a == "--locales" && hasValue) {
      s.locales = static_cast<uint32_t>(std::stoul(argv[++i]));
      s.localesSet = true;
    } else if (a == "--from-log" && hasValue) {
      s.fromLog = argv[++i];
    } else if (a == "--config" && hasValue) {
      const std::string& kv = argv[++i];
      size_t eq = kv.find('=');
      if (eq == std::string::npos) break;
      s.opts.run.configOverrides[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else if (a.rfind("--", 0) == 0 || !s.program.empty()) {
      err = "cannot trace argument '" + a + "'";
      return false;
    } else {
      s.program = a;
    }
  }
  if (s.program.empty()) {
    err = "no program";
    return false;
  }
  bool isPath = s.program.size() > 5 && s.program.substr(s.program.size() - 5) == ".chpl";
  s.path = isPath ? s.program : cb::assetProgram(s.program);
  return true;
}

std::string renderView(const cb::Profiler& p, const Shape& s) {
  const std::string& v = s.view;
  const cb::rpt::ViewOptions& vo = p.options().view;
  if (v == "data") return p.dataCentricText();
  if (v == "code") return p.codeCentricText();
  if (v == "pprof") return p.pprofText(s.program);
  if (v == "hybrid") return p.hybridText();
  if (v == "gui") return p.guiText();
  if (v == "csv") return cb::rpt::dataCentricCsv(*p.blameReport());
  if (v == "comm") return cb::rpt::commView(*p.blameReport(), vo);
  if (v == "commmatrix") return cb::rpt::commMatrixView(*p.blameReport(), vo);
  return "unsupported view " + v;
}

std::string renderReport(const cb::pm::BlameReport& r, const Shape& s,
                         const cb::rpt::ViewOptions& vo) {
  if (s.view == "data") return cb::rpt::dataCentricView(r, vo);
  if (s.view == "hybrid") return cb::rpt::hybridView(r, vo);
  if (s.view == "csv") return cb::rpt::dataCentricCsv(r);
  if (s.view == "comm") return cb::rpt::commView(r, vo);
  return cb::rpt::commMatrixView(r, vo);
}

std::string renderMultiLocale(const cb::MultiLocaleResult& ml, const Shape& s,
                              const cb::rpt::ViewOptions& vo) {
  if (s.view == "comm") return cb::rpt::commView(ml.aggregate, vo);
  if (s.view == "commmatrix") return cb::rpt::commMatrixView(ml.aggregate, vo);
  if (s.view == "locale") return cb::rpt::perLocaleView(ml.perLocale, vo);
  return "Aggregated blame across " + std::to_string(s.locales) + " locales:\n" +
         cb::rpt::dataCentricView(ml.aggregate, vo);
}

uint64_t irInstrs(const cb::Profiler& p) {
  const cb::ir::Module& m = p.compilation()->module();
  uint64_t n = 0;
  for (cb::ir::FuncId f = 0; f < m.numFunctions(); ++f) n += m.function(f).numInstrs();
  return n;
}

/// Span recorder for one traced repetition: per-layer totals plus Chrome
/// trace events, kept in memory until the run ends.
class Rep {
 public:
  Rep(std::vector<std::string>& events, std::string args) : events_(events), args_(std::move(args)) {}

  /// A layer call on the job's path: counts toward coverage.
  template <typename Fn>
  auto layer(const char* name, Fn&& fn) {
    return span(name, "layer", std::forward<Fn>(fn));
  }
  /// An extra call the job does not make itself.
  template <typename Fn>
  auto probe(const char* name, Fn&& fn) {
    return span(name, "probe", std::forward<Fn>(fn));
  }
  /// The enclosing span of a whole traced job.
  template <typename Fn>
  auto job(Fn&& fn) {
    return span("job", "job", std::forward<Fn>(fn));
  }

  std::map<std::string, double> ms;  // per span name
  double coveredMs = 0;              // layer spans only
  std::map<std::string, uint64_t> counts;
  std::string out;

 private:
  template <typename Fn>
  auto span(const char* name, const char* cat, Fn&& fn) {
    struct Close {
      Rep& rep;
      const char* name;
      const char* cat;
      Clock::time_point start;
      ~Close() { rep.close(name, cat, start); }
    } close{*this, name, cat, Clock::now()};
    return fn();
  }

  void close(const char* name, const char* cat, Clock::time_point start) {
    double dur = msSince(start);
    ms[name] += dur;
    if (std::string_view(cat) == "layer") coveredMs += dur;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":1,\"args\":",
                  name, cat, usSinceOrigin(start), dur * 1000.0);
    events_.push_back(buf + args_ + "}");
  }

  static double usSinceOrigin(Clock::time_point t) {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(t - origin).count();
  }

  std::vector<std::string>& events_;
  std::string args_;
};

/// One traced repetition of a job. False (with `err`) when a layer fails.
bool traceJob(const Workload& w, const Shape& s, cb::Profiler& p, Rep& rep, std::string& err) {
  auto fail = [&](const std::string& msg) {
    err = msg;
    return false;
  };
  if (s.lint) {
    p.options().run.numLocales = s.localesSet ? s.locales : 4;
    if (!rep.layer("frontend", [&] { return p.compileFile(s.path); }))
      return fail(p.lastError());
    rep.counts["frontend.ir_instrs"] = irInstrs(p);
    rep.out = rep.layer("lint", [&] { return p.lintText(); });
    return true;
  }
  if (s.diagnose) {
    p.options().run.trackCausalSites = true;
    p.options().run.numLocales = s.localesSet ? s.locales : 4;
  }
  if (s.locales > 1 && !s.diagnose) {
    cb::MultiLocaleResult ml = rep.layer(
        "multilocale", [&] { return cb::profileMultiLocale(s.path, s.locales, p.options()); });
    if (!ml.ok) return fail(ml.error);
    rep.counts["multilocale.locales"] = s.locales;
    rep.out = rep.layer("report", [&] { return renderMultiLocale(ml, s, p.options().view); });
    return true;
  }

  bool attached = false;
  if (w.server) {
    attached = rep.layer("cache", [&] {
      std::ifstream in(s.path, std::ios::binary);
      std::ostringstream src;
      src << in.rdbuf();
      uint64_t key = cb::cache::hashProgram(s.path, src.str(), p.options().compile,
                                            p.options().blame);
      auto hit = w.server->residentCache().find(key);
      if (hit) p.attachProgram(hit->comp, hit->blame, key);
      return hit != nullptr;
    });
  }
  if (!attached) {
    if (!rep.layer("frontend", [&] { return p.compileFile(s.path); }))
      return fail(p.lastError());
    rep.counts["frontend.ir_instrs"] = irInstrs(p);
    if (!rep.layer("blame", [&] { return p.analyze(); })) return fail(p.lastError());
  }
  const cb::ir::Module& m = p.compilation()->module();

  if (!s.fromLog.empty()) {
    cb::pm::StreamingPostmortemOptions so;
    so.consolidate = p.options().consolidate;
    so.attribution = p.options().attribution;
    cb::pm::BlameReport report;
    cb::pm::StreamingPostmortemStats stats;
    if (!rep.layer("stream", [&] {
          return cb::pm::runPostmortemStreamingFile(m, p.moduleBlame(), s.fromLog, so, report,
                                                    nullptr, &stats);
        }))
      return fail("cannot stream " + s.fromLog);
    rep.counts["stream.samples"] = stats.samples;
    rep.counts["stream.peak_bytes"] = stats.decodeBufferBytes + stats.peakAccumulatorBytes;
    rep.out = rep.layer("report", [&] { return renderReport(report, s, p.options().view); });
    return true;
  }

  rep.probe("runtime.lower", [&] {
    cb::rt::RunOptions o = p.options().run;
    o.maxInstructions = 1;  // stops at once: what remains is lowering
    return cb::rt::execute(m, o).ok;
  });
  if (!rep.layer("runtime", [&] { return p.run(); })) return fail(p.lastError());
  const cb::rt::RunResult& rr = *p.runResult();
  rep.counts["runtime.vinstr"] = rr.instructionsExecuted;
  rep.counts["runtime.vcycles"] = rr.totalCycles;
  rep.counts["runtime.samples"] = rr.log.samples.size();
  rep.counts["runtime.regions_replayed"] = rr.parallelRegionsReplayed;
  rep.counts["runtime.race_fallback_regions"] = rr.log.raceFallbackRegions;
  if (!rep.layer("postmortem", [&] { return p.postProcess(); })) return fail(p.lastError());
  if (s.diagnose) {
    rep.probe("causal", [&] { return p.causalReport().ok; });
    rep.out = rep.layer("diagnose", [&] { return p.diagnoseText(); });
    return true;
  }
  rep.out = rep.layer("report", [&] { return renderView(p, s); });
  return true;
}

/// Median served minus median local time of `n` tiny `example` jobs: what
/// the protocol and dispatch add to a job. The local side shares the
/// daemon's resident cache, so both skip compile and analyze alike.
double serviceRttMs(const Workload& w, int n, std::string& err) {
  std::vector<double> local, served;
  const Argv argv = {"example"};
  cb::svc::JobContext ctx;
  ctx.resident = &w.server->residentCache();
  for (int i = 0; i < n; ++i) {
    Clock::time_point t0 = Clock::now();
    cb::svc::JobResult a = cb::svc::runJob(argv, ctx);
    local.push_back(msSince(t0));
    t0 = Clock::now();
    cb::svc::JobResult b = runOnce(w, argv);
    served.push_back(msSince(t0));
    if (a.exitCode != 0 || b.exitCode != 0 || a.out != b.out) err = "example job failed";
  }
  return median(served) - median(local);
}

std::string repArgs(const std::string& workload, size_t job, uint32_t rep, const Argv& argv) {
  return "{\"workload\":" + quote(workload) + ",\"job\":" + std::to_string(job) +
         ",\"rep\":" + std::to_string(rep) + ",\"argv\":" + quote(joinArgv(argv)) + "}";
}

}  // namespace

TraceSummary runTraced(Workload& w, const TimedResult& t, uint32_t reps,
                       const std::string& workDir, std::vector<std::string>& events) {
  TraceSummary ts;
  const size_t n = w.jobs.size();
  // Per job: weight (0 = not traced), untraced and covered time, the median
  // of each layer's time, and the counts of the first repetition.
  std::vector<double> weight(n, 0), untraced(n, 0), covered(n, 0);
  std::vector<std::map<std::string, double>> layerMs(n);
  std::vector<std::map<std::string, uint64_t>> counts(n);
  auto error = [&](size_t j, const std::string& msg) {
    ++ts.failed;
    ts.errors.push_back(joinArgv(w.jobs[j].argv) + ": " + msg);
  };

  for (size_t j = 0; j < n; ++j) {
    if (t.reps[j] == 0) continue;
    const Job& job = w.jobs[j];
    Shape s;
    std::string err;
    if (!parseShape(job.argv, s, err)) {
      ++ts.attempted;
      error(j, err);
      continue;
    }
    std::vector<double> u, c;
    std::map<std::string, std::vector<double>> layers;
    for (uint32_t r = 0; r < reps; ++r) {
      Clock::time_point t0 = Clock::now();
      cb::svc::JobResult plain = runOnce(w, job.argv);
      u.push_back(msSince(t0));
      ++ts.attempted;
      if (plain.exitCode != 0 || plain.out != t.first[j].out) error(j, "untraced output changed");

      Rep rep(events, repArgs(w.name, j, r, job.argv));
      ++ts.attempted;
      bool ok = rep.job([&] {
        auto p = std::make_unique<cb::Profiler>(s.opts);
        bool traced = traceJob(w, s, *p, rep, err);
        // Freeing the program, analysis and profile is part of every job.
        rep.layer("teardown", [&] {
          p.reset();
          return true;
        });
        return traced;
      });
      if (!ok) {
        error(j, "traced run failed: " + err);
        continue;
      }
      if (rep.out != t.first[j].out) error(j, "traced output differs from the job's output");
      if (r == 0) counts[j] = rep.counts;
      else if (rep.counts != counts[j]) error(j, "counts differ between repetitions");
      c.push_back(rep.coveredMs);
      for (const auto& [layer, ms] : rep.ms) layers[layer].push_back(ms);
    }
    weight[j] = job.weight;
    // Coverage compares the fastest untraced and traced repetitions: load
    // from other tenants only ever adds time, to either side at random.
    untraced[j] = u.empty() ? 0 : *std::min_element(u.begin(), u.end());
    covered[j] = c.empty() ? 0 : *std::min_element(c.begin(), c.end());
    for (auto& [layer, v] : layers) {
      v.resize(c.size(), 0.0);  // a layer absent from a repetition took 0 ms there
      layerMs[j][layer] = median(v);
    }
  }

  // Draw-weighted aggregates: times per job, counts per round.
  double wsum = 0, usum = 0, csum = 0;
  std::map<std::string, double> msPerJob;
  std::map<std::string, double> perRound;
  for (size_t j = 0; j < n; ++j) {
    if (weight[j] == 0) continue;
    wsum += weight[j];
    usum += weight[j] * untraced[j];
    csum += weight[j] * covered[j];
    for (const auto& [layer, ms] : layerMs[j]) msPerJob[layer] += weight[j] * ms;
    for (const auto& [name, v] : counts[j]) perRound[name] += weight[j] * static_cast<double>(v);
  }
  if (wsum > 0)
    for (auto& [layer, ms] : msPerJob) ms /= wsum;
  auto layerMsOf = [&](const std::string& layer) {
    auto it = msPerJob.find(layer);
    return it == msPerJob.end() ? 0.0 : it->second;
  };
  auto countOf = [&](const std::string& name) {
    auto it = perRound.find(name);
    return it == perRound.end() ? 0.0 : it->second;
  };
  auto rate = [&](const std::string& count, const std::string& layer) {
    double ms = layerMsOf(layer) * wsum;  // per round
    return ms > 0 ? countOf(count) / (ms / 1000.0) : 0.0;
  };
  uint64_t streamPeak = 0;
  for (size_t j = 0; j < n; ++j)
    if (auto it = counts[j].find("stream.peak_bytes"); it != counts[j].end())
      streamPeak = std::max(streamPeak, it->second);

  // Probes outside the job list: log saving (from_log) and the service
  // round trip (served workloads).
  std::vector<double> saveMs;
  uint64_t logBytes = 0;
  for (size_t i = 0; i < w.recordings.size(); ++i) {
    Shape s;
    std::string err;
    bool parsed = parseShape(w.recordings[i], s, err);
    cb::Profiler p(s.opts);
    if (!parsed || !p.compileFile(s.path) || !p.run()) {
      ts.errors.push_back("recording " + joinArgv(w.recordings[i]) + " failed");
      ++ts.failed;
      continue;
    }
    std::string path = workDir + "/trace_log" + std::to_string(i) + ".txt";
    std::vector<double> v;
    for (uint32_t r = 0; r < reps; ++r) {
      Rep rep(events, repArgs(w.name, n + i, r, w.recordings[i]));
      if (!rep.probe("log.save",
                     [&] { return cb::sampling::saveRunLog(p.runResult()->log, path); })) {
        ts.errors.push_back("cannot write " + path);
        ++ts.failed;
      }
      v.push_back(rep.ms["log.save"]);
    }
    saveMs.push_back(median(v));
    std::error_code ec;
    logBytes += std::filesystem::file_size(path, ec);
    std::filesystem::remove(path, ec);
  }
  double rttMs = 0;
  if (w.served) {
    std::string err;
    rttMs = serviceRttMs(w, 200, err);
    if (!err.empty()) {
      ts.errors.push_back(err);
      ++ts.failed;
    }
  }
  double multiLocales = countOf("multilocale.locales");

  double medianJobMs = mixPercentile(w, t, 50);
  auto timeMetric = [&](const std::string& layer) {
    double ms = layerMsOf(layer);
    ts.layers.push_back({layer + ".ms", ms, "ms/job"});
    ts.shares.push_back({layer + ".share", medianJobMs > 0 ? ms / medianJobMs : 0, "ratio"});
  };
  auto countMetric = [&](const std::string& name) {
    ts.layers.push_back({name, countOf(name), "count"});
    ts.counts[name] = static_cast<uint64_t>(countOf(name));
  };
  timeMetric("frontend");
  countMetric("frontend.ir_instrs");
  timeMetric("blame");
  timeMetric("cache");
  ts.layers.push_back({"cache.resident_hit_ratio",
                       t.residentLookups ? double(t.residentHits) / double(t.residentLookups) : 0,
                       "ratio"});
  timeMetric("runtime");
  ts.layers.push_back({"runtime.vinstr_per_s", rate("runtime.vinstr", "runtime"), "1/s"});
  ts.layers.push_back({"runtime.lower_ms", layerMsOf("runtime.lower"), "ms/job"});
  for (const char* c : {"runtime.regions_replayed", "runtime.race_fallback_regions",
                        "runtime.vinstr", "runtime.vcycles", "runtime.samples"})
    countMetric(c);
  timeMetric("postmortem");
  ts.layers.push_back(
      {"postmortem.samples_per_s", rate("runtime.samples", "postmortem"), "1/s"});
  timeMetric("report");
  timeMetric("teardown");
  timeMetric("stream");
  ts.layers.push_back({"stream.samples_per_s", rate("stream.samples", "stream"), "1/s"});
  ts.layers.push_back({"stream.peak_bytes", double(streamPeak), "bytes"});
  ts.counts["stream.samples"] = static_cast<uint64_t>(countOf("stream.samples"));
  ts.layers.push_back({"log.save_ms", saveMs.empty() ? 0 : median(saveMs), "ms/log"});
  ts.layers.push_back({"log.bytes", double(logBytes), "bytes"});
  ts.counts["log.bytes"] = logBytes;
  timeMetric("lint");
  ts.layers.push_back({"causal.ms", layerMsOf("causal"), "ms/job"});
  timeMetric("diagnose");
  double mlMs = layerMsOf("multilocale") * wsum;
  ts.layers.push_back(
      {"multilocale.ms_per_locale", multiLocales > 0 ? mlMs / multiLocales : 0, "ms/locale"});
  ts.shares.push_back(
      {"multilocale.share", medianJobMs > 0 ? layerMsOf("multilocale") / medianJobMs : 0, "ratio"});
  ts.layers.push_back({"service.rtt_ms", rttMs, "ms/req"});
  ts.layers.push_back(
      {"trace.unattributed_frac", usum > 0 ? (usum - csum) / usum : 0, "ratio"});
  return ts;
}

bool writeTraceFile(const std::string& path, const std::vector<std::string>& events) {
  std::ofstream out(path, std::ios::binary);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) out << events[i] << (i + 1 < events.size() ? ",\n" : "\n");
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace e2e
