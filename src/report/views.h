// Presentation layer (paper §IV.D): the flat data-centric view, the
// traditional code-centric view (plain table and gperftools/pprof text
// format, Fig. 4), and the hybrid "blame points" view. Text-mode stand-ins
// for the paper's GUI windows (Fig. 3).
#pragma once

#include <string>
#include <vector>

#include "analysis/causal.h"
#include "analysis/diagnose.h"
#include "analysis/locality.h"
#include "postmortem/attribution.h"
#include "postmortem/baseline.h"
#include "postmortem/instance.h"

namespace cb::rpt {

struct ViewOptions {
  size_t maxRows = 25;
  double minPercent = 1.0;  // hide rows below this blame share
};

/// Flat data-centric view: variables ranked by blame, with type and context
/// (Tables II / IV / VI).
std::string dataCentricView(const pm::BlameReport& report, const ViewOptions& opts = {});

/// CSV twin of the data-centric view (all rows).
std::string dataCentricCsv(const pm::BlameReport& report);

// ---- code-centric ---------------------------------------------------------

struct CodeCentricRow {
  std::string function;
  uint64_t self = 0;        // samples with this function at the leaf
  uint64_t inclusive = 0;   // samples with this function anywhere on the path
};

struct CodeCentricReport {
  uint64_t totalSamples = 0;  // all samples, idle included (like pprof)
  std::vector<CodeCentricRow> rows;  // sorted by self, descending
};

/// Builds the function-granularity profile from consolidated instances.
/// Runtime frames (__sched_yield etc.) are included, as gperftools sees them.
CodeCentricReport codeCentric(const std::vector<pm::Instance>& instances);

/// Plain table rendering of the code-centric view.
std::string codeCentricView(const CodeCentricReport& report, size_t maxRows = 25);

/// gperftools pprof --text format, reproducing Fig. 4:
///   samples  self%  cum%  inclusive  incl%  name
std::string pprofView(const CodeCentricReport& report, const std::string& binaryName,
                      size_t maxRows = 10);

// ---- hybrid -----------------------------------------------------------------

/// Hybrid blame-points view: variables grouped by the function ("blame
/// point") where their blame comes to rest; main is the primary blame point.
std::string hybridView(const pm::BlameReport& report, const ViewOptions& opts = {});

// ---- PGAS / multi-locale ---------------------------------------------------

/// Comm view: variables ranked by remote-access blame. Each row shows the
/// split of the variable's samples by comm classification — pure compute,
/// local array accesses, and remote GETs/PUTs — so mis-distributed arrays
/// (high remote share) stand out even when total blame is similar.
std::string commView(const pm::BlameReport& report, const ViewOptions& opts = {});

/// Comm-matrix view: the global locale×locale remote-sample matrix as a
/// heat-style text grid over the locales that actually communicate, the
/// hottest (src, dst) cells, and each remote-heavy variable's top cells —
/// the per-variable scatter/gather structure the aggregator story hinges on.
std::string commMatrixView(const pm::BlameReport& report, const ViewOptions& opts = {});

/// Per-locale view: one summary row per locale (sample totals plus the
/// locale's comm mix aggregated over its blamed variables), followed by the
/// top remote-heavy variable of each locale. `perLocale` uses one report per
/// locale in locale order; failed locales (empty reports) render as "-".
std::string perLocaleView(const std::vector<pm::BlameReport>& perLocale,
                          const ViewOptions& opts = {});

// ---- static lint ------------------------------------------------------------

/// Lint view (`cb --lint`): findings from the locality-and-race lint
/// (runtime/lint.h), the predicted per-array comm splits, and the race verdict of
/// every forall/coforall region. When `measured` is non-null, appends the
/// static-vs-dynamic differential: each predicted remote fraction is
/// cross-checked against the measured VariableBlame comm split, and
/// divergences above `divergenceThreshold` (fraction points) are flagged as
/// findings. Source locations render as basename:line:col so the output is
/// checkout-path independent (golden fixtures under tests/golden/).
std::string lintView(const ir::Module& m, const an::loc::LintReport& lint,
                     const pm::BlameReport* measured = nullptr,
                     double divergenceThreshold = 0.15);

// ---- causal diagnosis -------------------------------------------------------

/// Bridges measured artefacts into the neutral diag::Inputs the rule engine
/// consumes: VarStat copies of the blame rows plus the log's exact comm
/// counters. The caller attaches the causal report / lint / region names
/// before calling an::diag::diagnose (the same layering as the lint
/// differential: the analysis library never sees postmortem types).
an::diag::Inputs diagnoseInputs(const sampling::RunLog& log, uint32_t numWorkers,
                                const pm::BlameReport& report);

/// Diagnose view (`cb --diagnose`): the causal critical-path summary, the
/// ranked findings, the per-variable what-if prediction table, and the
/// trailing `metric <name> <value>` block that an::diag::compareBaseline
/// re-parses from a saved report for --diagnose-baseline regression checks.
/// `regionNames` labels causal.regions rows (same order; "#i" fallback).
std::string diagnoseView(const an::causal::CausalReport& causal,
                         const an::diag::DiagnoseReport& diag,
                         const std::vector<std::string>& regionNames = {});

/// Baseline (allocation-threshold) report rendering.
std::string baselineView(const pm::BaselineReport& report);

/// Fig. 3 stand-in: code-centric and data-centric views side by side.
std::string guiView(const pm::BlameReport& blame, const CodeCentricReport& code,
                    const ViewOptions& opts = {});

}  // namespace cb::rpt
