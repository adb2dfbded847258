#include "runtime/lint.h"

#include <algorithm>

#include "ir/verifier.h"
#include "runtime/semantics.h"

namespace cb::rt {

an::loc::LintReport lint(const ir::Module& m, RunOptions opts) {
  opts.sampleThreshold = 0;
  opts.trackCausalSites = false;
  opts.causalScale = {};
  opts.referenceInterp = false;
  an::loc::LintReport out;
  out.ok = true;
  out.numLocales = std::max<uint32_t>(1, opts.numLocales);
  an::loc::Collector collector(m);
  // The engine trusts verified IR; a parser-recovered module may not be.
  if (std::vector<std::string> errs = ir::verifyModule(m); !errs.empty()) {
    out.error = errs.front();
  } else if (std::string bad = sem::configError(m, opts); !bad.empty()) {
    // A malformed --config value is a usage error, not a finding: no report.
    out.ok = false;
    out.error = bad;
  } else {
    RunResult r = execute(m, opts, &collector);
    out.steps = r.instructionsExecuted;
    out.truncated = r.instructionsExecuted > opts.maxInstructions;
    if (!r.ok && !out.truncated) out.error = r.error;
    out.predictedGets = r.log.commGets;
    out.predictedPuts = r.log.commPuts;
    out.predictedAggGets = r.log.commAggGets;
    out.predictedAggPuts = r.log.commAggPuts;
    out.predictedOnForks = r.log.commOnForks;
  }
  collector.finish(out);
  return out;
}

}  // namespace cb::rt
