#include "service/job.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/profiler.h"
#include "postmortem/streaming.h"
#include "report/html.h"
#include "report/views.h"
#include "sampling/log_io.h"

namespace cb::svc {

std::string usageText() {
  return
      "usage: cb <program|path.chpl> [options]   (flags may appear anywhere)\n"
      "  --lint                locality & race lint: one sampling-off run that\n"
      "                        prints predicted comm splits, findings and race\n"
      "                        verdicts (always the bytecode engine:\n"
      "                        --reference-interp does not apply)\n"
      "  --with-run            with --lint: also profile the program so the\n"
      "                        static-vs-dynamic differential is reported\n"
      "  --diagnose            causal what-if profile + rule-based diagnosis:\n"
      "                        critical path, per-variable virtual speedups, and\n"
      "                        ranked findings (models 4 locales unless --locales;\n"
      "                        works with --from-log to diagnose a saved log)\n"
      "  --diagnose-baseline F compare the diagnose metric block against a saved\n"
      "                        report F; exit 4 when a metric regressed >10%\n"
      "  --fast                compile with the --fast pipeline\n"
      "  --threshold N         PMU overflow threshold (virtual cycles)\n"
      "  --workers N           worker streams (1..65536, default 12)\n"
      "  --pm-workers N        post-mortem shards run at once on the shared scheduler\n"
      "                        (0 = hardware, 1 = sequential; small logs never shard)\n"
      "  --config K=V          override a config const (repeatable); V must parse\n"
      "                        as the config's type, unknown names are ignored\n"
      "  --view V              data|code|pprof|hybrid|gui|baseline|csv|comm|commmatrix|locale\n"
      "                        (default data; locale requires --locales N)\n"
      "  --skid N              simulate PMU skid of N instructions\n"
      "  --reference-interp    use the tree-walking oracle instead of bytecode\n"
      "  --replay-threads N    replay eligible parallel regions' worker streams, N at\n"
      "                        once on the shared scheduler (0 = auto, 1 = sequential;\n"
      "                        small regions replay inline)\n"
      "  --locales N           simulate N locales (1..4096) and aggregate blame\n"
      "  --save-log PATH       write the raw monitoring dataset to PATH\n"
      "  --from-log PATH       skip execution: stream an existing run log (text or\n"
      "                        binary) through the memory-bounded post-mortem\n"
      "  --stream-chunk N      samples per --from-log accounting chunk (default 4096)\n"
      "  --cache-dir PATH      on-disk analysis cache (also: $CB_CACHE_DIR)\n"
      "  --html PATH           write a standalone HTML report (the GUI) to PATH\n"
      "  --no-idle             do not sample idle workers\n"
      "  --echo                echo program writeln output\n"
      "  --time                print total virtual cycles\n"
      "\n"
      "service mode (see also README):\n"
      "  cb --serve [--socket PATH] [--serve-workers N] [--max-requests N]\n"
      "                        run as a resident profiling daemon on a unix socket\n"
      "  cb --socket PATH ...  run this invocation on the daemon at PATH instead\n"
      "                        of locally ($CB_SERVE_SOCKET works too)\n";
}

namespace {

constexpr uint64_t kMaxWorkers = 65536;
constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();

/// Strict numeric flag value: decimal digits only (no sign, whitespace or
/// trailing text) within [lo, hi]. Returns an error message, empty on
/// success.
std::string parseCount(const std::string& text, uint64_t lo, uint64_t hi, uint64_t& out) {
  const char* end = text.data() + text.size();
  auto [p, ec] = std::from_chars(text.data(), end, out);
  if (text.empty() || ec == std::errc::invalid_argument || p != end)
    return "expected a non-negative integer, got '" + text + "'";
  if (ec == std::errc::result_out_of_range || out < lo || out > hi)
    return "value " + text + " is outside " + std::to_string(lo) + ".." + std::to_string(hi);
  return {};
}

JobResult runJobInner(const std::vector<std::string>& args, const JobContext& ctx) {
  JobResult res;
  std::ostringstream out, err;
  auto usage = [&](int code) {
    err << usageText();
    res.out = out.str();
    res.err = err.str();
    res.exitCode = code;
    return res;
  };

  std::string program;
  std::string view = "data";
  bool showTime = false;
  bool lintMode = false;
  bool lintWithRun = false;
  bool diagnoseMode = false;
  std::string diagnoseBaselinePath;
  uint32_t numLocales = 1;
  bool localesSet = false;
  std::string saveLogPath;
  std::string fromLogPath;
  std::string htmlPath;
  uint32_t streamChunk = 4096;
  Profiler profiler;
  profiler.options().run.sampleThreshold = 9973;
  profiler.options().cacheDir = ctx.cacheDir;

  std::string flagError;  // first malformed numeric flag value (exit 2)
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    bool missing = false;
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        missing = true;
        return {};
      }
      return args[++i];
    };
    auto count = [&](uint64_t lo, uint64_t hi) -> uint64_t {
      std::string text = next();
      uint64_t v = 0;
      if (missing || !flagError.empty()) return v;
      if (std::string e = parseCount(text, lo, hi, v); !e.empty()) flagError = arg + ": " + e;
      return v;
    };
    if (arg == "--lint") {
      lintMode = true;
    } else if (arg == "--with-run") {
      lintWithRun = true;
    } else if (arg == "--diagnose") {
      diagnoseMode = true;
    } else if (arg == "--diagnose-baseline") {
      diagnoseMode = true;
      diagnoseBaselinePath = next();
    } else if (arg == "--fast") {
      profiler.options().compile.fast = true;
      profiler.options().run.fastCostProfile = true;
    } else if (arg == "--threshold") {
      profiler.options().run.sampleThreshold = count(0, std::numeric_limits<uint64_t>::max());
    } else if (arg == "--workers") {
      profiler.options().run.numWorkers = static_cast<uint32_t>(count(1, kMaxWorkers));
    } else if (arg == "--pm-workers") {
      profiler.options().postmortem.workers = static_cast<uint32_t>(count(0, kMaxU32));
    } else if (arg == "--config") {
      std::string kv = next();
      size_t eq = kv.find('=');
      if (!missing && eq == std::string::npos) return usage(2);
      if (!missing)
        profiler.options().run.configOverrides[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else if (arg == "--view") {
      view = next();
    } else if (arg == "--skid") {
      profiler.options().run.skidInstructions = static_cast<uint32_t>(count(0, kMaxU32));
    } else if (arg == "--reference-interp") {
      profiler.options().run.referenceInterp = true;
    } else if (arg == "--replay-threads") {
      profiler.options().run.replayThreads = static_cast<uint32_t>(count(0, kMaxU32));
    } else if (arg == "--locales") {
      uint64_t requested = count(0, std::numeric_limits<uint64_t>::max());
      if (!missing && flagError.empty()) {
        if (std::string e = validateLocaleCount(requested); !e.empty()) {
          err << "error: --locales: " << e << "\n";
          res.out = out.str();
          res.err = err.str();
          res.exitCode = 2;
          return res;
        }
        numLocales = static_cast<uint32_t>(requested);
        localesSet = true;
      }
    } else if (arg == "--save-log") {
      saveLogPath = next();
    } else if (arg == "--from-log") {
      fromLogPath = next();
    } else if (arg == "--stream-chunk") {
      streamChunk = static_cast<uint32_t>(count(0, kMaxU32));
    } else if (arg == "--cache-dir") {
      profiler.options().cacheDir = next();
    } else if (arg == "--html") {
      htmlPath = next();
    } else if (arg == "--no-idle") {
      profiler.options().run.sampleIdle = false;
    } else if (arg == "--echo") {
      profiler.options().run.echoWriteln = true;
    } else if (arg == "--time") {
      showTime = true;
    } else if (arg.rfind("--", 0) == 0 || !program.empty()) {
      // Unknown flag, or a second positional argument.
      return usage(2);
    } else {
      program = arg;
    }
    if (missing) return usage(2);
  }
  if (!flagError.empty()) {
    err << "error: " << flagError << "\n";
    res.err = err.str();
    res.exitCode = 2;
    return res;
  }
  if (program.empty()) return usage(2);

  std::string path = program.size() > 5 && program.substr(program.size() - 5) == ".chpl"
                         ? program
                         : assetProgram(program);

  auto fail = [&](const std::string& msg) {
    err << "error:\n" << msg << "\n";
    res.out = out.str();
    res.err = err.str();
    res.exitCode = 1;
    return res;
  };
  auto finish = [&](int code) {
    res.out = out.str();
    res.err = err.str();
    res.exitCode = code;
    return res;
  };

  if (lintMode) {
    // Static analysis defaults to a 4-locale model so distribution effects
    // are visible even without an explicit --locales; the override wins.
    uint32_t lintLocales = localesSet ? numLocales : 4;
    profiler.options().run.numLocales = lintLocales;
    bool ok = lintWithRun ? profiler.profileFile(path) : profiler.compileFile(path);
    if (!ok) return fail(profiler.lastError());
    an::loc::LintReport lint = profiler.lintReport();
    if (!lint.ok) return fail(lint.error);
    out << profiler.lintText(lint);
    return finish(0);
  }

  if (diagnoseMode) {
    // Diagnose runs the full pipeline with per-site span tracking on and —
    // like --lint — models 4 locales by default so distribution effects are
    // measurable in one run (which models locale 0; --locales overrides the
    // count but still runs a single diagnosed locale).
    profiler.options().run.trackCausalSites = true;
    profiler.options().run.numLocales = localesSet ? numLocales : 4;
  }

  if (numLocales > 1 && !diagnoseMode) {
    MultiLocaleResult ml = profileMultiLocale(path, numLocales, profiler.options());
    if (!ml.ok) {
      // Partial profiles (some locales failed) still print their aggregate;
      // only a total failure is fatal.
      bool anyOk = false;
      for (const std::string& e : ml.localeErrors) anyOk |= e.empty();
      if (!anyOk) return fail(ml.error);
      err << "warning (partial profile):\n" << ml.error << "\n";
    }
    if (view == "comm") {
      out << rpt::commView(ml.aggregate, profiler.options().view);
    } else if (view == "commmatrix") {
      out << rpt::commMatrixView(ml.aggregate, profiler.options().view);
    } else if (view == "locale") {
      out << rpt::perLocaleView(ml.perLocale, profiler.options().view);
    } else {
      out << "Aggregated blame across " << numLocales << " locales:\n"
          << rpt::dataCentricView(ml.aggregate, profiler.options().view);
    }
    return finish(0);
  }

  // Resident fast path: when the daemon's program cache already holds this
  // (source, options) build, adopt it and skip compile + analyze entirely.
  bool attached = false;
  uint64_t key = 0;
  if (ctx.resident) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      key = cache::hashProgram(path, ss.str(), profiler.options().compile,
                               profiler.options().blame);
      if (auto hit = ctx.resident->find(key)) {
        profiler.attachProgram(hit->comp, hit->blame, key);
        attached = true;
      }
    }
  }
  if (!attached) {
    if (!profiler.compileFile(path) || !profiler.analyze()) return fail(profiler.lastError());
    if (ctx.resident && profiler.programKey() != 0) {
      auto prog = std::make_shared<cache::CachedProgram>();
      prog->comp = profiler.sharedCompilation();
      prog->blame = profiler.sharedModuleBlame();
      ctx.resident->insert(profiler.programKey(), std::move(prog));
    }
  }

  if (!fromLogPath.empty() && diagnoseMode) {
    // Causal diagnosis needs the full log (task spans + per-site splits),
    // so this path materializes it instead of streaming.
    sampling::RunLog log;
    if (!sampling::loadRunLog(fromLogPath, log) ||
        !pm::logMatchesModule(profiler.compilation()->module(), log))
      return fail("cannot load run log '" + fromLogPath + "' (missing or malformed)");
    profiler.attachRunLog(std::move(log));
    if (!profiler.postProcess()) return fail(profiler.lastError());
  } else if (!fromLogPath.empty()) {
    // Streaming ingestion: attribute an existing run log chunk-by-chunk
    // without materializing its samples. Only report-shaped views are
    // available (code-centric views need the full instance vector).
    if (view != "data" && view != "hybrid" && view != "csv" && view != "comm" &&
        view != "commmatrix") {
      err << "error: --from-log supports --view data|hybrid|csv|comm|commmatrix\n";
      return finish(2);
    }
    const ir::Module& m = profiler.compilation()->module();
    if (m.debugInfoStripped)
      return fail("--from-log requires a non---fast module (data-centric mapping stripped)");
    pm::StreamingPostmortemOptions sopts;
    sopts.consolidate = profiler.options().consolidate;
    sopts.attribution = profiler.options().attribution;
    sopts.chunkSamples = streamChunk;
    pm::BlameReport report;
    pm::StreamingPostmortemStats stats;
    if (!pm::runPostmortemStreamingFile(m, profiler.moduleBlame(), fromLogPath, sopts, report,
                                        nullptr, &stats))
      return fail("cannot stream run log '" + fromLogPath + "' (missing or malformed)");
    if (view == "data") out << rpt::dataCentricView(report, profiler.options().view);
    else if (view == "hybrid") out << rpt::hybridView(report, profiler.options().view);
    else if (view == "csv") out << rpt::dataCentricCsv(report);
    else if (view == "comm") out << rpt::commView(report, profiler.options().view);
    else out << rpt::commMatrixView(report, profiler.options().view);
    if (showTime)
      out << "streamed samples: " << stats.samples << " in " << stats.chunks << " chunks\n";
    return finish(0);
  }

  if (fromLogPath.empty() && (!profiler.run() || !profiler.postProcess()))
    return fail(profiler.lastError());
  if (!saveLogPath.empty() && !sampling::saveRunLog(profiler.runResult()->log, saveLogPath)) {
    err << "error: cannot write " << saveLogPath << "\n";
    return finish(1);
  }

  if (diagnoseMode) {
    std::string text = profiler.diagnoseText();
    out << text;
    if (!diagnoseBaselinePath.empty()) {
      std::ifstream bf(diagnoseBaselinePath, std::ios::binary);
      if (!bf) return fail("cannot read baseline '" + diagnoseBaselinePath + "'");
      std::ostringstream bs;
      bs << bf.rdbuf();
      std::vector<an::diag::Regression> regs = an::diag::compareBaselineText(bs.str(), text);
      if (regs.empty()) {
        out << "baseline: no regressions vs " << diagnoseBaselinePath << "\n";
      } else {
        out << "baseline regressions vs " << diagnoseBaselinePath << " (" << regs.size()
            << "):\n";
        for (const an::diag::Regression& r : regs) out << "  [regression] " << r.message << "\n";
        return finish(4);
      }
    }
    return finish(0);
  }
  if (!htmlPath.empty() && !rpt::writeHtmlReport(htmlPath, program, *profiler.blameReport(),
                                                 *profiler.codeReport())) {
    err << "error: cannot write " << htmlPath << "\n";
    return finish(1);
  }

  if (view == "data") out << profiler.dataCentricText();
  else if (view == "code") out << profiler.codeCentricText();
  else if (view == "pprof") out << profiler.pprofText(program);
  else if (view == "hybrid") out << profiler.hybridText();
  else if (view == "gui") out << profiler.guiText();
  else if (view == "baseline") out << rpt::baselineView(profiler.baselineReport());
  else if (view == "csv") out << rpt::dataCentricCsv(*profiler.blameReport());
  else if (view == "comm") out << rpt::commView(*profiler.blameReport(), profiler.options().view);
  else if (view == "commmatrix")
    out << rpt::commMatrixView(*profiler.blameReport(), profiler.options().view);
  else
    return usage(2);

  if (showTime) {
    out << "total virtual cycles: " << profiler.runResult()->totalCycles << "\n";
    out << "instructions executed: " << profiler.runResult()->instructionsExecuted << "\n";
  }
  return finish(0);
}

}  // namespace

JobResult runJob(const std::vector<std::string>& args, const JobContext& ctx) {
  // Per-job isolation: a crash in one job must fail that job only, never
  // the daemon or its caches.
  try {
    return runJobInner(args, ctx);
  } catch (const std::exception& e) {
    JobResult r;
    r.exitCode = 3;
    r.err = std::string("internal error: ") + e.what() + "\n";
    return r;
  } catch (...) {
    JobResult r;
    r.exitCode = 3;
    r.err = "internal error: unknown exception\n";
    return r;
  }
}

}  // namespace cb::svc
