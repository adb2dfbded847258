#include "core/profiler.h"

#include <algorithm>
#include <mutex>

#include "cb_config.h"
#include "runtime/lint.h"
#include "support/scheduler.h"

namespace cb {

std::string assetProgram(const std::string& name) {
  return std::string(kAssetDir) + "/programs/" + name + ".chpl";
}

namespace {

/// Content hash of the program buffer a compilation was built from (file id
/// 1 is the primary buffer) combined with the options that shape analysis.
uint64_t keyOf(const fe::Compilation& comp, const ProfileOptions& opts) {
  const SourceManager& sm = comp.sourceManager();
  if (sm.numBuffers() < 1) return 0;
  return cache::hashProgram(sm.name(1), sm.contents(1), opts.compile, opts.blame);
}

}  // namespace

bool Profiler::compileString(const std::string& name, const std::string& source) {
  programKey_ = 0;
  lowered_.reset();
  comp_ = fe::Compilation::fromString(name, source, opts_.compile);
  if (!comp_->ok()) {
    error_ = comp_->diags().renderAll();
    return false;
  }
  programKey_ = keyOf(*comp_, opts_);
  return true;
}

bool Profiler::compileFile(const std::string& path) {
  programKey_ = 0;
  lowered_.reset();
  comp_ = fe::Compilation::fromFile(path, opts_.compile);
  if (!comp_->ok()) {
    error_ = comp_->diags().renderAll();
    return false;
  }
  programKey_ = keyOf(*comp_, opts_);
  return true;
}

void Profiler::attachProgram(std::shared_ptr<const fe::Compilation> comp,
                             std::shared_ptr<const an::ModuleBlame> blame, uint64_t key,
                             std::shared_ptr<const rt::bc::CompiledModule> lowered) {
  comp_ = std::move(comp);
  blame_ = std::move(blame);
  lowered_ = std::move(lowered);
  programKey_ = key;
  analysisCacheHit_ = false;
  result_.reset();
  instances_.reset();
  report_.reset();
  codeReport_.reset();
  error_.clear();
}

bool Profiler::analyze() {
  if (!comp_ || !comp_->ok()) {
    error_ = "analyze() requires a successful compile";
    return false;
  }
  analysisCacheHit_ = false;
  const ir::Module& m = comp_->module();
  if (!opts_.cacheDir.empty() && programKey_ != 0) {
    cache::AnalysisCache disk(opts_.cacheDir);
    an::ModuleBlame mb;
    if (disk.load(programKey_, m, mb)) {
      blame_ = std::make_shared<const an::ModuleBlame>(std::move(mb));
      analysisCacheHit_ = true;
      return true;
    }
    blame_ = std::make_shared<const an::ModuleBlame>(an::analyzeModule(m, opts_.blame));
    disk.store(programKey_, m, *blame_);
    return true;
  }
  blame_ = std::make_shared<const an::ModuleBlame>(an::analyzeModule(m, opts_.blame));
  return true;
}

bool Profiler::run() {
  if (!comp_ || !comp_->ok()) {
    error_ = "run() requires a successful compile";
    return false;
  }
  result_ = rt::execute(comp_->module(), opts_.run, nullptr, lowered_);
  if (!result_->ok) {
    error_ = "runtime error: " + result_->error;
    return false;
  }
  return true;
}

bool Profiler::postProcess() {
  if (!blame_ || !result_) {
    error_ = "postProcess() requires analyze() and run()";
    return false;
  }
  // --fast strips the IR -> source-variable mapping, so only the
  // code-centric view is meaningful (paper §V, footnote 1); attribution is
  // skipped by passing a null blame database.
  bool stripped = comp_->module().debugInfoStripped;
  pm::PostmortemResult res =
      pm::runPostmortem(comp_->module(), stripped ? nullptr : blame_.get(), result_->log,
                        opts_.consolidate, opts_.attribution, opts_.postmortem, &attrCache_);
  instances_ = std::move(res.instances);
  codeReport_ = rpt::codeCentric(*instances_);
  report_ = std::move(res.report);
  if (stripped) report_->totalRawSamples = instances_->size();
  return true;
}

bool Profiler::profileString(const std::string& name, const std::string& source) {
  return compileString(name, source) && analyze() && run() && postProcess();
}

bool Profiler::profileFile(const std::string& path) {
  return compileFile(path) && analyze() && run() && postProcess();
}

pm::BaselineReport Profiler::baselineReport() const {
  if (!comp_ || !result_ || !instances_) return {};
  return pm::baselineAttribute(comp_->module(), result_->log, *instances_, opts_.baseline);
}

an::loc::LintReport Profiler::lintReport() const {
  if (!comp_ || !comp_->ok()) {
    an::loc::LintReport r;
    r.error = "lint requires a successfully compiled module";
    return r;
  }
  return rt::lint(comp_->module(), opts_.run);
}

std::string Profiler::lintText() const { return lintText(lintReport()); }

std::string Profiler::lintText(const an::loc::LintReport& report) const {
  if (!comp_ || !comp_->ok()) return "<no compiled module>";
  return rpt::lintView(comp_->module(), report, report_ ? &*report_ : nullptr);
}

void Profiler::attachRunLog(sampling::RunLog log) {
  result_.emplace();
  result_->log = std::move(log);
  result_->totalCycles = result_->log.totalCycles;
  result_->ok = true;
  instances_.reset();
  report_.reset();
  codeReport_.reset();
  error_.clear();
}

an::causal::CausalReport Profiler::causalReport(size_t maxVariables) const {
  if (!result_) {
    an::causal::CausalReport r;
    r.error = "causal analysis requires run()";
    return r;
  }
  // Variable → site bridge: each blame row carries the leaf sites its
  // samples fired at — served from postProcess()'s attribution memo when
  // primed, otherwise by a fresh site-collection pass. Skipped for
  // --fast modules (no data-centric mapping) — the critical-path breakdown
  // still works, only the what-if table is empty.
  std::vector<an::causal::VariableSites> vars;
  if (blame_ && instances_ && comp_ && !comp_->module().debugInfoStripped) {
    std::vector<pm::VariableSiteSet> sets =
        pm::attributionSites(*blame_, *instances_, opts_.attribution, &attrCache_);
    vars.reserve(sets.size());
    for (pm::VariableSiteSet& s : sets) {
      an::causal::VariableSites v;
      v.context = std::move(s.context);
      v.name = std::move(s.name);
      v.type = std::move(s.type);
      v.sampleCount = s.sampleCount;
      v.sites = std::move(s.sites);
      vars.push_back(std::move(v));
    }
  }
  an::causal::Options copts;
  copts.maxVariables = maxVariables;
  return an::causal::analyze(result_->log, vars, copts);
}

std::string Profiler::diagnoseText() const {
  if (!result_) return "<no run>";
  an::causal::CausalReport causal = causalReport();
  static const pm::BlameReport kEmptyReport;
  const pm::BlameReport& rep = report_ ? *report_ : kEmptyReport;
  uint32_t workers = result_->log.numStreams > 1 ? result_->log.numStreams - 1
                                                 : opts_.run.numWorkers;
  an::diag::Inputs in = rpt::diagnoseInputs(result_->log, workers, rep);
  in.causal = &causal;
  an::loc::LintReport lint;
  if (comp_ && comp_->ok() && !comp_->module().debugInfoStripped) {
    lint = lintReport();
    in.lint = &lint;
  }
  std::vector<std::string> regionNames;
  if (comp_ && comp_->ok()) {
    const ir::Module& m = comp_->module();
    regionNames.reserve(causal.regions.size());
    for (const an::causal::RegionSummary& r : causal.regions)
      regionNames.push_back(r.taskFn != ir::kNone ? pm::userContextName(m, r.taskFn) : "");
  }
  in.regionNames = regionNames;
  an::diag::DiagnoseReport diag = an::diag::diagnose(in);
  return rpt::diagnoseView(causal, diag, regionNames);
}

std::string Profiler::dataCentricText() const {
  if (!report_) return "<no blame report>";
  return rpt::dataCentricView(*report_, opts_.view);
}

std::string Profiler::codeCentricText() const {
  if (!codeReport_) return "<no code-centric report>";
  return rpt::codeCentricView(*codeReport_, opts_.view.maxRows);
}

std::string Profiler::pprofText(const std::string& binaryName) const {
  if (!codeReport_) return "<no code-centric report>";
  return rpt::pprofView(*codeReport_, binaryName);
}

std::string Profiler::hybridText() const {
  if (!report_) return "<no blame report>";
  return rpt::hybridView(*report_, opts_.view);
}

std::string Profiler::guiText() const {
  if (!report_ || !codeReport_) return "<no reports>";
  return rpt::guiView(*report_, *codeReport_, opts_.view);
}

std::string validateLocaleCount(uint64_t n) {
  if (n == 0) return "locale count must be at least 1";
  if (n > kMaxSimulatedLocales)
    return "locale count " + std::to_string(n) + " exceeds the supported maximum of " +
           std::to_string(kMaxSimulatedLocales);
  return {};
}

MultiLocaleResult profileMultiLocale(const std::string& path, uint32_t numLocales,
                                     ProfileOptions opts) {
  MultiLocaleResult result;
  if (std::string err = validateLocaleCount(numLocales); !err.empty()) {
    result.error = std::move(err);
    result.ok = false;
    return result;
  }
  result.perLocale.resize(numLocales);
  result.localeErrors.resize(numLocales);

  // The program is identical across locales — only the run options (seed,
  // localeId, hereId override) differ — so compilation and static analysis
  // are hoisted out of the per-locale loop and shared read-only by every
  // pipeline. A compile/analyze failure fails every locale with the same
  // message the per-locale compile produced before the hoist.
  Profiler shared(opts);
  bool sharedOk = shared.compileFile(path) && shared.analyze();
  if (!sharedOk) {
    for (uint32_t locale = 0; locale < numLocales; ++locale)
      result.localeErrors[locale] =
          "locale " + std::to_string(locale) + ": " + shared.lastError();
  }
  std::shared_ptr<const fe::Compilation> sharedComp = shared.sharedCompilation();
  std::shared_ptr<const an::ModuleBlame> sharedBlame = shared.sharedModuleBlame();
  uint64_t sharedKey = shared.programKey();
  // The lowering depends only on the program and the cost profile, which
  // every locale shares: lower once for the bytecode engine.
  std::shared_ptr<const rt::bc::CompiledModule> lowered;
  if (sharedOk && !opts.run.referenceInterp) lowered = rt::lower(sharedComp->module(), opts.run);

  // Each locale is one monitored execution + post-mortem over the shared
  // program — embarrassingly parallel, so the locales are tasks of one
  // group on the process scheduler. Every locale writes only its own
  // pre-sized slots, and each finished report is folded straight into a
  // streaming aggregator (guarded by a mutex) whose folds are all
  // commutative sums, so the aggregate is bit-identical for any width and
  // any completion order. With keepPerLocaleReports off, the report dies
  // with its pipeline right after the fold: peak memory is the accumulator
  // plus the in-flight pipelines, never numLocales full reports.
  pm::StreamingAggregator agg;
  std::mutex aggMutex;
  auto runLocale = [&, numLocales](uint32_t locale) {
    ProfileOptions o = opts;
    o.run.rngSeed = opts.run.rngSeed + locale;
    o.run.numLocales = numLocales;
    o.run.localeId = locale;
    o.run.configOverrides["hereId"] = std::to_string(locale);
    Profiler p(o);
    p.attachProgram(sharedComp, sharedBlame, sharedKey, lowered);
    if (!p.run() || !p.postProcess()) {
      result.localeErrors[locale] = "locale " + std::to_string(locale) + ": " + p.lastError();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(aggMutex);
      agg.add(*p.blameReport());
    }
    if (opts.keepPerLocaleReports) result.perLocale[locale] = std::move(*p.blameReportMutable());
  };

  if (sharedOk) {  // else the locale errors already record the shared failure
    uint32_t width = opts.localeWorkers != 0 ? opts.localeWorkers
                                             : std::min(numLocales, Scheduler::instance().width());
    TaskGroup group(std::min(width, numLocales));
    for (uint32_t locale = 0; locale < numLocales; ++locale)
      group.run([&runLocale, locale] { runLocale(locale); });
    group.wait();
  }

  // Surface every failing locale, and keep aggregating the locales that did
  // complete — a partial profile still answers "where does the blame go".
  for (uint32_t locale = 0; locale < numLocales; ++locale) {
    if (result.localeErrors[locale].empty()) continue;
    if (!result.error.empty()) result.error += "; ";
    result.error += result.localeErrors[locale];
  }
  result.aggregate = agg.finish();
  result.ok = result.error.empty();
  return result;
}

}  // namespace cb
