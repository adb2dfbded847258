// Post-mortem step 1 (paper §IV.C): convert raw context-sensitive samples
// into consolidated "instances" — complete, clean call paths with
// pre-/post-spawn stacks glued via spawn tags and resolved to file/line.
#pragma once

#include <string>
#include <vector>

#include "ir/module.h"
#include "sampling/sample.h"

namespace cb::pm {

/// One resolved call-path frame.
struct ResolvedFrame {
  ir::FuncId func = ir::kNone;
  ir::InstrId instr = ir::kNone;
  std::string funcName;
  std::string file;
  uint32_t line = 0;

  friend bool operator==(const ResolvedFrame&, const ResolvedFrame&) = default;
};

/// A consolidated sample: the paper's "instance" abstraction (module, file,
/// line and stack order number for every level of the call path).
struct Instance {
  std::vector<ResolvedFrame> frames;   // outermost first; leaf last
  uint32_t stream = 0;
  bool idle = false;
  sampling::RuntimeFrameKind runtimeFrame = sampling::RuntimeFrameKind::None;
  /// Comm classification carried over from the raw sample (PGAS): what kind
  /// of array access the stream had most recently resolved at overflow time,
  /// and — for remote kinds — which locale pair it crossed (src = executing
  /// locale, dst = owning locale; both 0 otherwise).
  sampling::AccessKind accessKind = sampling::AccessKind::None;
  int32_t srcLocale = 0;
  int32_t dstLocale = 0;

  friend bool operator==(const Instance&, const Instance&) = default;
};

struct ConsolidateOptions {
  /// Glue worker samples to their spawn context (ablatable: without gluing,
  /// task-function samples lose their user-code calling context, which is
  /// the HPCToolkit-on-Chapel failure the paper describes in §II.B).
  bool glueSpawns = true;
};

/// The glue rule, shared by consolidateSample and the streaming
/// post-mortem: replaces `out` with the pre-spawn stacks of `taskTag`'s
/// spawn chain, outermost spawn first ("we glue the pre-spawn stack trace
/// and post-spawn stack trace based on the unique spawn tag"), trimming a
/// frame that repeats the one before it. Empty when gluing is off or the tag
/// has no spawn record. The chain walk stops after as many records as the
/// registry holds, so a cyclic chain in a corrupt log cannot loop.
void glueSpawnPrefix(const sampling::RunLog& log, uint64_t taskTag, const ConsolidateOptions& opts,
                     std::vector<sampling::Frame>& out);

/// Glues, trims and resolves every sample of a run.
std::vector<Instance> consolidate(const ir::Module& m, const sampling::RunLog& log,
                                  const ConsolidateOptions& opts = {});

/// Consolidates a single sample. Samples are independent of one another —
/// this is the per-item kernel the parallel post-mortem pipeline shards
/// over; `consolidate` is exactly a sequential map of it over `log.samples`.
/// Only reads `log.spawns` (for glue-chain lookups), never mutates the log.
Instance consolidateSample(const ir::Module& m, const sampling::RunLog& log,
                           const sampling::RawSample& s, const ConsolidateOptions& opts = {});

}  // namespace cb::pm
