// `cb --lint` as a run.
//
// Lint executes the module once on the bytecode engine with sampling off
// and the locality collector (analysis/locality.h) attached as the engine's
// access observer. Every predicted count is therefore a count the run made;
// what the lint adds is the per-array split, the swapped-distribution
// counterfactual, the race prover's verdicts and the findings.
#pragma once

#include "analysis/locality.h"
#include "runtime/interp.h"

namespace cb::rt {

/// Lints `m` under `opts` (the job's run options; sampling, causal tracking
/// and the reference interpreter are switched off, and regions replay
/// sequentially). Never throws on a malformed module: IR that fails
/// verification is not executed, and a runtime error stops the run softly —
/// either way the report keeps what was gathered and says why in `error`.
/// Exhausting RunOptions::maxInstructions sets `truncated` instead. A
/// --config override that does not parse as its config's type is not run at
/// all: `ok` is false and `error` names the config.
an::loc::LintReport lint(const ir::Module& m, RunOptions opts = {});

}  // namespace cb::rt
