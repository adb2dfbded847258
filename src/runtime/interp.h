// CIR interpreter with a deterministic task scheduler and virtual-PMU
// sampling — the stand-in for the Chapel runtime + qthreads + PAPI + the
// Dyninst monitoring process.
//
// Execution model:
//  - The main thread is stream 0; `numWorkers` worker streams are 1..W.
//  - Spawn from the main thread distributes tasks round-robin over workers;
//    each worker executes its tasks serially on its own virtual clock. The
//    region ends at the max worker clock; the main clock jumps there, and
//    worker idle time is charged to synthetic runtime frames (__sched_yield
//    et al. — the Fig. 4 story). Nested spawns execute inline on the
//    spawning stream (a saturated pool).
//  - Every spawn gets a unique tag and a recorded pre-spawn stack; samples
//    taken inside tasks carry the tag so the post-mortem step can glue full
//    call paths (§IV.B).
// Determinism: everything (scheduling, sampling, RNG) is a pure function of
// the module + options, so every paper table reproduces exactly.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.h"
#include "runtime/cost_model.h"
#include "runtime/value.h"
#include "sampling/sample.h"
#include "support/rng.h"

namespace cb::an::loc {
class Collector;
}

namespace cb::rt {

struct RunOptions {
  /// PMU overflow threshold in virtual cycles (0 disables sampling). The
  /// default is prime, like the paper's 608,888,809.
  uint64_t sampleThreshold = 9973;
  uint32_t numWorkers = 12;
  bool fastCostProfile = false;   // pair with the --fast compile pipeline
  bool sampleIdle = true;         // emit __sched_yield samples for idle workers
  bool echoWriteln = false;       // also print program output to stdout
  std::unordered_map<std::string, std::string> configOverrides;
  uint64_t rngSeed = 0x5eedULL;
  uint64_t maxInstructions = 4000000000ULL;  // runaway guard
  /// PMU skid: the sampled instruction pointer lands this many instructions
  /// AFTER the overflowing one (real PMUs overshoot; the paper notes skid
  /// as a known issue and leaves compensation to future work, §IV.B).
  /// 0 = precise sampling (the default, as if ProfileMe-style).
  uint32_t skidInstructions = 0;
  /// Full cost-profile override (calibration/ablation); when set it takes
  /// precedence over fastCostProfile.
  std::optional<CostProfile> costProfileOverride;
  /// Engine selection. The default engine pre-compiles each function to a
  /// flat bytecode with pre-decoded operands and fused superinstructions
  /// (src/runtime/bytecode.h, src/runtime/exec.cpp). Setting this flag runs
  /// the tree-walking CIR interpreter instead — kept as the oracle for that
  /// lowering, fusion, operand decoding and the parallel-replay merge,
  /// mirroring BlameOptions::referenceFixpoint. Both engines apply the same
  /// measurement rules (src/runtime/semantics.h) and produce bit-identical
  /// RunLogs.
  bool referenceInterp = false;
  /// Cap on the worker streams of one region that replay at once on the
  /// process scheduler (support/scheduler.h) in the bytecode engine.
  /// 0 = auto (min(numWorkers, hardware)); 1 = fully sequential execution.
  /// Any value yields a bit-identical RunLog: only provably independent
  /// forall/coforall regions replay, their per-stream artefacts are merged
  /// in canonical task order, and a region whose predicted work is small
  /// replays its streams inline instead of forking.
  uint32_t replayThreads = 0;
  /// Simulated PGAS locale count (SPMD: profileMultiLocale runs the program
  /// once per locale) and the id of the locale this run models. `on` blocks
  /// switch the current locale dynamically; `dmapped` domains partition
  /// array ownership across `numLocales`; accesses whose owner differs from
  /// the current locale are charged remote GET/PUT costs.
  uint32_t numLocales = 1;
  uint32_t localeId = 0;
  /// Record the exact per-site cycle split of every task span (plus the
  /// per-charge ceil-scaled sums for the causal what-if factor set) in
  /// RunLog::taskSpans[*].sites. Spans themselves are always recorded; this
  /// only gates the per-site maps, which cost a hash probe per charge.
  bool trackCausalSites = false;
  /// Ground-truth causal oracle: scale every cycle charge whose site is in
  /// `sites` to ceil(c * den / num) at charge time (num/den = the speedup
  /// factor k; num == 0 means k = ∞, i.e. the charge becomes 0). Empty
  /// `sites` disables scaling. The re-run's schedule stays the recorded one
  /// whenever the program's control flow is cycle-independent (no clock()
  /// feedback), which makes analysis/causal.h predictions exactly checkable.
  struct CausalScale {
    std::vector<uint64_t> sites;  // RunLog::siteKey values
    uint32_t num = 1;             // speedup numerator (0 = infinite speedup)
    uint32_t den = 1;             // speedup denominator
  } causalScale;
};

struct RunResult {
  sampling::RunLog log;
  uint64_t totalCycles = 0;           // main-thread end-to-end virtual time
  uint64_t instructionsExecuted = 0;
  std::string output;                 // accumulated writeln text
  /// Exclusive busy cycles per function (ground truth for validating the
  /// sampling-based views).
  std::vector<uint64_t> cyclesPerFunction;
  bool ok = false;
  std::string error;                  // runtime error message when !ok
  /// Diagnostics only (never part of the RunLog comparison): number of
  /// top-level spawn regions the bytecode engine replayed as worker-stream
  /// chunks — forked onto the scheduler, or inline in canonical order when
  /// small. Always 0 for the reference interpreter and for
  /// replayThreads == 1.
  uint64_t parallelRegionsReplayed = 0;
};

namespace bc {
struct CompiledModule;
}

/// The bytecode engine's lowering of `m` (bytecode plus the race prover's
/// spawn plans). It depends only on the module and `opts`' cost profile, and
/// no run writes it, so every run with that module and profile may share
/// one — profileMultiLocale lowers once for all its locales.
std::shared_ptr<const bc::CompiledModule> lower(const ir::Module& m, const RunOptions& opts);

/// Compiles nothing — executes an already-lowered module under monitoring.
/// `numWorkers == 0` is rejected (ok = false). An `observer` (rt::lint's
/// locality collector) always runs on the bytecode engine, sequentially.
/// `lowered`, when given, must come from lower() on `m` with the same cost
/// profile; the bytecode engine lowers `m` itself otherwise.
RunResult execute(const ir::Module& m, const RunOptions& opts,
                  an::loc::Collector* observer = nullptr,
                  std::shared_ptr<const bc::CompiledModule> lowered = nullptr);

}  // namespace cb::rt
