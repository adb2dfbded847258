// Race-freedom prover for forall/coforall task functions.
//
// Both execution engines gate their parallel-replay decision on the verdicts
// produced here, and the lint pass (analysis/locality.h) reports the same
// verdicts as diagnostics explaining WHY a region fell back to sequential
// replay.
//
// The analysis is a flow-insensitive abstract interpretation of the outlined
// task function. Integer values are classified relative to the chunk loop:
// Uniform (same value in every task, with an interned symbolic identity),
// Induction (the chunk-loop counter, whose ranges are disjoint across tasks),
// Aff/AffN (uniform +/- induction — still injective, so same-signature
// accesses from different tasks never collide), or Varying. Shared arrays are
// tracked back to task-invariant roots (globals / byval iterand args / byref
// captures, possibly through record-field paths); every element access
// through a root is summarized by the signature of its index vector.
//
// Three rules widen what counts as an access through a root:
//   - Calls are inlined abstractly: each call site gets its own copy of the
//     callee's abstract state with the formals bound to the caller's
//     abstract actuals, so the callee's loads and stores land on the task
//     function's roots (and a `ref` formal bound to a task-local variable
//     updates that variable). Recursion, chains deeper than kMaxCallDepth
//     and callees returning arrays or references stay obstructions.
//   - An array loaded from an element of root R at signature S (an array of
//     arrays, or a record field holding an array) is a sub-array owned by
//     R[S]: every access through it is recorded as an access to R at S. The
//     engine's runtime half checks that distinct elements own distinct
//     sub-arrays that alias no root (RootRef::subArrays).
//   - A view (slice / domain remap) of root R is an arbitrary-index access
//     of R: reads through it are fine, and a store through it makes R
//     written at an arbitrary index, which the root rule rejects.
//
// A region is RaceFree when each written root is touched through exactly one
// disjointness-bearing signature and nothing falls outside the abstraction
// (nested spawns, RNG, `on` blocks, aggregators, global or capture stores,
// escaping handles...). Anything not understood degrades to MayRace — i.e. a
// sequential fallback — never to an actual replay race. Soundness therefore
// only depends on the *positive* direction: RaceFree must imply that
// worker-stream replay order cannot change any observable value.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.h"

namespace cb::an::race {

/// A shared-array root the task function accesses: the task-invariant place
/// the array handle is loaded from, resolved to a concrete ArrayObj at spawn
/// time by the engines. `index`/`deref` describe task-fn arguments (byval
/// iterand arrays, or byref captures dereferenced once); globals walk
/// `index` as a GlobalId. `path` is a chain of record-field / tuple-element
/// indices.
struct RootRef {
  bool fromGlobal = false;
  bool deref = false;       // arg holds a Ref that must be dereferenced first
  uint32_t index = 0;       // GlobalId or task-fn arg index
  std::vector<uint32_t> path;
  bool written = false;     // some task may write elements of this root
  /// Tasks access arrays owned by this root's elements (sub-array rule):
  /// parallel replay additionally requires every element to own distinct
  /// storage that aliases no root.
  bool subArrays = false;
};

/// One access (or other instruction) that defeated the proof.
struct Offender {
  ir::FuncId fn = ir::kNone;     // function `instr` indexes (the task fn or a callee)
  ir::InstrId instr = ir::kNone;
  bool isWrite = false;
  std::string what;         // short description of the offending operation
};

/// Per-region verdict: RaceFree (parallel replay allowed, `roots` lists the
/// shared arrays needing runtime alias checks) or MayRace (`reason` explains
/// the first obstruction, `offenders` pins it to instructions when known).
struct Verdict {
  bool raceFree = false;
  std::string reason;               // empty when raceFree
  std::vector<Offender> offenders;  // may be empty (structural reasons)
  std::vector<RootRef> roots;       // all roots seen (valid when raceFree)
};

/// Deepest call chain the prover inlines below a task function.
inline constexpr uint32_t kMaxCallDepth = 8;

/// Analyzes one outlined task function. Deterministic and side-effect free.
Verdict analyzeTaskFunction(const ir::Module& m, ir::FuncId taskFn);

/// Memoizing wrapper for the reference interpreter, which queries per spawn
/// site (the bytecode engine keeps the verdict in its SpawnPlan).
class RaceCache {
 public:
  const Verdict& verdictFor(const ir::Module& m, ir::FuncId taskFn) {
    auto it = cache_.find(taskFn);
    if (it != cache_.end()) return it->second;
    return cache_.emplace(taskFn, analyzeTaskFunction(m, taskFn)).first->second;
  }

 private:
  std::unordered_map<ir::FuncId, Verdict> cache_;
};

/// Human-readable name of a root for diagnostics: the global's name, the
/// task-fn parameter's name, plus any record-field path ("g:Force" style
/// keys never leak to users).
std::string describeRoot(const ir::Module& m, const ir::Function& taskFn, const RootRef& r);

}  // namespace cb::an::race
