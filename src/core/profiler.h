// ChapelBlame public facade — the paper's tool, end to end:
//
//   Profiler p;
//   p.compileFile(cb::assetProgram("minimd"));   // step 0: chpl --llvm -g
//   p.analyze();                                 // step 1: static blame
//   p.run();                                     // step 2: sampled execution
//   p.postProcess();                             // step 3: glue + attribute
//   std::cout << p.dataCentricText();            // step 4: present
//
// Every intermediate artefact (IR module, blame database, raw samples,
// instances, reports) stays accessible for tests, benches and ablations.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "analysis/blame.h"
#include "analysis/causal.h"
#include "analysis/diagnose.h"
#include "cache/analysis_cache.h"
#include "frontend/compiler.h"
#include "postmortem/attribution.h"
#include "postmortem/baseline.h"
#include "postmortem/instance.h"
#include "postmortem/parallel.h"
#include "report/views.h"
#include "runtime/interp.h"

namespace cb {

struct ProfileOptions {
  fe::CompileOptions compile;
  an::BlameOptions blame;
  /// Execution-engine selection rides along here: `run.referenceInterp`
  /// forces the tree-walking oracle interpreter, and `run.replayThreads`
  /// caps how many worker streams of an eligible parallel region the
  /// default bytecode engine replays at once on the process scheduler. Every combination produces a bit-identical RunLog, so
  /// profiles are comparable regardless of engine (see src/runtime/exec.cpp).
  rt::RunOptions run;
  pm::ConsolidateOptions consolidate;
  pm::AttributionOptions attribution;
  /// Parallel post-mortem (step 3) sharding. `postmortem.workers` caps the
  /// shards running at once (default hardware concurrency); 1 forces the
  /// sequential path. Any worker
  /// count yields a bit-identical BlameReport (see src/postmortem/parallel.h).
  pm::ParallelOptions postmortem;
  pm::BaselineOptions baseline;
  rpt::ViewOptions view;
  /// profileMultiLocale width: each simulated locale is an independent
  /// run+postmortem pipeline, and at most this many run at once as tasks on
  /// the process scheduler. 0 = auto (min(numLocales, hardware)); 1 = fully
  /// sequential. Any value yields bit-identical per-locale and aggregate
  /// reports — locale results land in pre-sized slots and the aggregate is
  /// streamed through a commutative accumulator, so completion order cannot
  /// change it.
  uint32_t localeWorkers = 0;
  /// On-disk analysis cache directory; empty disables caching. When set,
  /// analyze() tries the cache (keyed by a content hash over the source and
  /// the compile/blame options) before running the blame fixpoint, and
  /// stores the result after a cold success. Cached and uncached analyses
  /// are bit-identical; any invalid entry is a silent cold fallback.
  std::string cacheDir;
  /// When false, profileMultiLocale drops each locale's BlameReport as soon
  /// as it has been folded into the streaming aggregate, leaving
  /// MultiLocaleResult::perLocale slots empty. That bounds peak memory at
  /// O(distinct aggregate rows) + O(in-flight locale pipelines)
  /// instead of O(numLocales × report) — the difference between 1024
  /// simulated locales fitting comfortably and not.
  bool keepPerLocaleReports = true;
};

/// Highest `numLocales` profileMultiLocale (and the profile_program
/// `--locales` flag) accepts. 1024-locale weak scaling is a supported,
/// benchmarked configuration; the cap only rejects typo-sized requests that
/// would spawn an absurd number of pipelines.
inline constexpr uint32_t kMaxSimulatedLocales = 4096;

/// Validates a requested simulated-locale count: returns an empty string
/// when `1 <= n <= kMaxSimulatedLocales`, else a human-readable error.
std::string validateLocaleCount(uint64_t n);

/// Absolute path of a bundled mini-Chapel program, e.g. assetProgram("clomp")
/// -> "<repo>/assets/programs/clomp.chpl".
std::string assetProgram(const std::string& name);

class Profiler {
 public:
  explicit Profiler(ProfileOptions opts = {}) : opts_(std::move(opts)) {}

  const ProfileOptions& options() const { return opts_; }
  ProfileOptions& options() { return opts_; }

  /// Step 0: compile. Returns false (and keeps diagnostics) on error.
  bool compileString(const std::string& name, const std::string& source);
  bool compileFile(const std::string& path);

  /// Steps 0+1 by adoption: attaches an already-built program (typically a
  /// resident-cache hit), so compileX() and analyze() are skipped entirely.
  /// `blame` may be null for --fast pipelines. `key` records the program's
  /// content hash (0 = unknown). `lowered`, when given, is the program's
  /// rt::lower() under options().run's cost profile, and run() executes it
  /// instead of lowering again. Downstream artefacts are reset.
  void attachProgram(std::shared_ptr<const fe::Compilation> comp,
                     std::shared_ptr<const an::ModuleBlame> blame, uint64_t key = 0,
                     std::shared_ptr<const rt::bc::CompiledModule> lowered = nullptr);

  /// Step 1: static blame analysis. Requires a successful compile. Consults
  /// the on-disk cache when options().cacheDir is set.
  bool analyze();

  /// Step 2: execute under the monitor. Requires a successful compile.
  bool run();

  /// Step 3: consolidate instances and attribute blame. Requires analyze()
  /// and run(). Data-centric attribution refuses --fast modules (the
  /// source-variable mapping is gone) but code-centric results still work.
  bool postProcess();

  /// Convenience: all four steps. Returns false on the first failure.
  bool profileString(const std::string& name, const std::string& source);
  bool profileFile(const std::string& path);

  // ---- artefacts ----------------------------------------------------------
  const fe::Compilation* compilation() const { return comp_.get(); }
  const an::ModuleBlame* moduleBlame() const { return blame_.get(); }
  /// Shared ownership of the built program, for the resident cache: a
  /// CachedProgram made of these stays valid after this Profiler dies.
  std::shared_ptr<const fe::Compilation> sharedCompilation() const { return comp_; }
  std::shared_ptr<const an::ModuleBlame> sharedModuleBlame() const { return blame_; }
  /// Content hash of the compiled program + options (0 before a compile).
  uint64_t programKey() const { return programKey_; }
  /// True when the last analyze() was served from the on-disk cache.
  bool analysisCacheHit() const { return analysisCacheHit_; }
  const rt::RunResult* runResult() const { return result_ ? &*result_ : nullptr; }
  const std::vector<pm::Instance>* instances() const {
    return instances_ ? &*instances_ : nullptr;
  }
  const pm::BlameReport* blameReport() const { return report_ ? &*report_ : nullptr; }
  /// Mutable access so short-lived pipelines can move the report out instead
  /// of copying it (profileMultiLocale folds then steals each locale's).
  pm::BlameReport* blameReportMutable() { return report_ ? &*report_ : nullptr; }
  const rpt::CodeCentricReport* codeReport() const {
    return codeReport_ ? &*codeReport_ : nullptr;
  }

  /// Baseline (allocation-threshold) attribution, computed on demand.
  pm::BaselineReport baselineReport() const;

  /// Locality-and-race lint (runtime/lint.h): one sampling-off run of the
  /// compiled module under `options().run` with the locality collector
  /// attached, so predictions are what run() would measure. Requires a
  /// successful compile.
  an::loc::LintReport lintReport() const;

  /// lintView rendering of lintReport() (or of `report`, when the caller
  /// already holds it); includes the static-vs-dynamic differential when
  /// postProcess() has produced a BlameReport.
  std::string lintText() const;
  std::string lintText(const an::loc::LintReport& report) const;

  /// Adopts a previously saved run log as this profiler's step-2 artefact
  /// (the `--diagnose --from-log` path): postProcess() and the causal /
  /// diagnose accessors then behave as if run() had produced it. Downstream
  /// artefacts are reset.
  void attachRunLog(sampling::RunLog log);

  /// Causal what-if report (analysis/causal.h): spawn-tree critical path,
  /// region widths, and per-variable virtual-speedup predictions, computed
  /// on demand from the recorded task spans. Requires run() (or an attached
  /// log); predictions additionally need per-site tracking
  /// (options().run.trackCausalSites) and a postProcess()'d data-centric
  /// report — the variable→site bridge comes from pm::attributionSites.
  an::causal::CausalReport causalReport(size_t maxVariables = 8) const;

  /// Rule-based diagnosis (`cb --diagnose`): the causal report, the static
  /// lint, and the measured blame rows run through an::diag::diagnose,
  /// rendered by rpt::diagnoseView with the trailing metric block that
  /// --diagnose-baseline compares against.
  std::string diagnoseText() const;

  // ---- renderings ---------------------------------------------------------
  std::string dataCentricText() const;
  std::string codeCentricText() const;
  std::string pprofText(const std::string& binaryName) const;
  std::string hybridText() const;
  std::string guiText() const;

  /// Last failure description (compile diagnostics / runtime error / usage).
  const std::string& lastError() const { return error_; }

 private:
  ProfileOptions opts_;
  std::shared_ptr<const fe::Compilation> comp_;
  std::shared_ptr<const an::ModuleBlame> blame_;
  std::shared_ptr<const rt::bc::CompiledModule> lowered_;  // null: run() lowers
  uint64_t programKey_ = 0;
  bool analysisCacheHit_ = false;
  std::optional<rt::RunResult> result_;
  std::optional<std::vector<pm::Instance>> instances_;
  /// Primed by postProcess() (sequential path only) so causalReport()'s
  /// variable→site bridge reuses the attribution memo instead of
  /// re-attributing every sample.
  pm::AttributionCache attrCache_;
  std::optional<pm::BlameReport> report_;
  std::optional<rpt::CodeCentricReport> codeReport_;
  std::string error_;
};

/// Multi-locale simulation (paper §VI future work / §IV.C step 4): runs the
/// full pipeline once per simulated locale — each locale gets its own RNG
/// stream and a `hereId` config override programs can branch on — then
/// aggregates the per-locale blame reports. Step 3 is embarrassingly
/// parallel across locales; step 4 is the combine.
struct MultiLocaleResult {
  pm::BlameReport aggregate;
  /// One slot per locale; empty on failure, and empty for EVERY locale when
  /// ProfileOptions::keepPerLocaleReports is false (the aggregate is then
  /// the only retained artefact).
  std::vector<pm::BlameReport> perLocale;
  /// Per-locale failure descriptions, one slot per locale; empty string =
  /// success. Every failing locale is surfaced (not just the first), and
  /// reports from locales that completed are kept in `perLocale` and still
  /// contribute to `aggregate`.
  std::vector<std::string> localeErrors;
  bool ok = false;
  std::string error;  // all locale failures, joined
};

MultiLocaleResult profileMultiLocale(const std::string& path, uint32_t numLocales,
                                     ProfileOptions opts = {});

}  // namespace cb
