// Raw profiling artefacts produced during execution (the paper's step 2).
//
// A sample is a context-sensitive stack snapshot taken when a virtual PMU
// stream overflows. Samples taken inside spawned tasks carry the spawn tag
// chain; the matching pre-spawn stack snapshots live in the SpawnRegistry so
// the post-mortem step can glue full call paths (§IV.B/C).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.h"

namespace cb::sampling {

/// One call-stack frame: a function plus the instruction the frame is
/// currently at (the callsite for parent frames, the sampled instruction for
/// the leaf).
struct Frame {
  ir::FuncId func = ir::kNone;
  ir::InstrId instr = ir::kNone;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Synthetic runtime frames for idle workers (what gperftools sees as
/// __sched_yield / chpl_thread_yield in the paper's Fig. 4).
enum class RuntimeFrameKind : uint8_t {
  None,
  SchedYield,         // __sched_yield
  ChplTaskYield,      // chpl_thread_yield
  PthreadState,       // __pthread_setcancelstate
};

/// Comm-event channel: what kind of array access the stream most recently
/// resolved when the overflow fired. Local means the access stayed on the
/// executing locale; RemoteGet/RemotePut crossed locales (PGAS simulation).
enum class AccessKind : uint8_t {
  None,       // no array access pending (pure compute / idle)
  Local,
  RemoteGet,
  RemotePut,
};

struct RawSample {
  uint32_t stream = 0;           // 0 = main thread, 1..W = workers
  uint64_t taskTag = 0;          // 0 when not inside a spawned task
  uint64_t atCycle = 0;          // stream-local virtual time of the overflow
  RuntimeFrameKind runtimeFrame = RuntimeFrameKind::None;  // set for idle samples
  AccessKind accessKind = AccessKind::None;  // pending comm attribution
  /// Locale pair of the pending remote access: srcLocale is the requesting
  /// (executing) locale, dstLocale the owner of the touched element. Both 0
  /// unless accessKind is RemoteGet/RemotePut.
  int32_t srcLocale = 0;
  int32_t dstLocale = 0;
  std::vector<Frame> stack;      // post-spawn stack, outermost first; empty for idle
};

/// Recorded once per spawn operation ("we keep a unique tag for each spawn
/// operation and record the stack trace before the spawn operation begins").
struct SpawnRecord {
  uint64_t tag = 0;
  uint64_t parentTag = 0;        // 0 when spawned from the main thread context
  ir::FuncId taskFn = ir::kNone;
  ir::InstrId spawnInstr = ir::kNone;  // the Spawn instruction in the parent
  std::vector<Frame> preSpawnStack;    // outermost first; leaf is the spawn site
};

/// Exact cycles charged at one code site (RunLog::siteKey of the charging
/// instruction) within one task span, together with the per-charge
/// ceil-scaled sums for the fixed causal what-if factor set. `s2` is
/// Σ ceil(c/2) over every individual charge at the site, NOT ceil(raw/2) —
/// the ground-truth oracle re-runs the program with each charge scaled by
/// ceil(c·den/num) at charge time, so exact virtual-speedup prediction needs
/// the same per-charge rounding (see analysis/causal.h). k = ∞ scales every
/// charge to 0, so its sum needs no field.
struct SiteCycles {
  uint64_t site = 0;   // RunLog::siteKey(func, instr)
  uint64_t raw = 0;    // exact cycles charged at this site in this span
  uint64_t s125 = 0;   // Σ ceil(4c/5)  — k = 1.25
  uint64_t s2 = 0;     // Σ ceil(c/2)   — k = 2
  uint64_t s4 = 0;     // Σ ceil(c/4)   — k = 4

  friend bool operator==(const SiteCycles&, const SiteCycles&) = default;
};

/// One contiguous execution segment on one stream's continuous virtual
/// clock, the raw material for spawn-tree critical-path reconstruction
/// (analysis/causal.h). tag == 0 marks a main-thread serial segment between
/// top-level parallel regions; otherwise `tag` names the SpawnRecord whose
/// chunk `chunk` (the task ordinal ti) this span executed. Segments are
/// emitted in canonical order — serial segment at the fork, then chunk
/// spans in ti order with any nested-task spans of chunk ti directly before
/// chunk ti's own span — identically by both engines and every replay
/// width. `sites` (populated only under RunOptions::trackCausalSites) holds
/// the exact per-site cycle split of the span, sorted by site; nested-task
/// spans carry no sites — their cycles accrue to the enclosing top-level
/// chunk.
struct TaskSpan {
  uint64_t tag = 0;
  uint32_t chunk = 0;
  uint32_t stream = 0;
  uint64_t startCycle = 0;
  uint64_t endCycle = 0;
  std::vector<SiteCycles> sites;

  uint64_t duration() const { return endCycle - startCycle; }

  friend bool operator==(const TaskSpan&, const TaskSpan&) = default;
};

/// Everything a monitored run produces.
struct RunLog {
  std::vector<RawSample> samples;
  std::unordered_map<uint64_t, SpawnRecord> spawns;
  uint64_t sampleThreshold = 0;
  uint32_t numStreams = 0;
  uint64_t totalCycles = 0;      // main-thread end-to-end virtual time

  /// Exact communication counters (not sampled): remote GETs/PUTs resolved
  /// and cross-locale `on` forks executed over the whole run.
  uint64_t commGets = 0;
  uint64_t commPuts = 0;
  uint64_t commOnForks = 0;

  /// Aggregated transfers (simulated Src/DstAggregator copies): remote
  /// elements moved through aggregation buffers instead of naive GET/PUT,
  /// plus the number of buffer flushes that carried them.
  uint64_t commAggGets = 0;
  uint64_t commAggPuts = 0;
  uint64_t commAggFlushes = 0;

  /// Bandwidth-ceiling stall cycles (runtime/bandwidth.h; all zero under the
  /// default pure-latency profiles): cycles streams spent stalled on the
  /// local memory roof, on the network injection ceiling, and on
  /// destination-locale contention. These split remote traffic into
  /// latency-bound (latency charges dominate, stalls near zero) versus
  /// bandwidth-bound (stalls rival the latency charges).
  uint64_t commMemStallCycles = 0;
  uint64_t commNetStallCycles = 0;
  uint64_t commContentionCycles = 0;

  /// Top-level forall/coforall regions the race-freedom prover
  /// (analysis/race.h) could NOT prove independent, so their worker streams
  /// replayed sequentially. Counts executed region entries (not distinct
  /// spawn sites) and is identical across engines and replay widths — it
  /// depends only on the static verdict. Makes silent serialization
  /// observable: a hot region stuck at width 1 shows up here instead of
  /// being indistinguishable from a parallel replay.
  uint64_t raceFallbackRegions = 0;

  /// Exact source→destination locale communication matrix: pairKey(src,dst)
  /// -> remote element transfers (naive and aggregated alike). Sparse and
  /// sorted, so iteration order is deterministic.
  std::map<uint64_t, uint64_t> commMatrix;

  static uint64_t pairKey(int64_t src, int64_t dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint32_t>(dst);
  }
  static int32_t pairSrc(uint64_t key) { return static_cast<int32_t>(key >> 32); }
  static int32_t pairDst(uint64_t key) { return static_cast<int32_t>(key & 0xffffffffu); }

  /// Heap allocations observed at each ArrayNew site: (func<<32|instr) ->
  /// largest allocation in bytes. Feeds the allocation-threshold baseline
  /// profiler (the ">= 4K bytes" rule the paper criticizes in §II.B).
  std::unordered_map<uint64_t, uint64_t> allocBytesBySite;

  static uint64_t siteKey(ir::FuncId f, ir::InstrId i) {
    return (static_cast<uint64_t>(f) << 32) | i;
  }

  /// Per-task clock spans in canonical emission order (log format v6; empty
  /// when loading older logs). Serial segments and top-level chunk spans
  /// tile [0, totalCycles]: each serial segment runs on stream 0, each
  /// top-level region spans [fork, join] with its chunks chained
  /// back-to-back per worker stream, and nested-task spans lie inside their
  /// enclosing chunk. Zero-length serial segments are elided.
  std::vector<TaskSpan> taskSpans;

  size_t numIdleSamples() const {
    size_t n = 0;
    for (const RawSample& s : samples)
      if (s.runtimeFrame != RuntimeFrameKind::None) ++n;
    return n;
  }
  size_t numUserSamples() const { return samples.size() - numIdleSamples(); }
};

const char* runtimeFrameName(RuntimeFrameKind k);

/// Field-by-field bit-identity of two run logs (samples in order, spawn
/// registry, allocation sites, threshold/stream/cycle metadata). This is the
/// oracle check for alternative execution engines: any engine must reproduce
/// the reference interpreter's log exactly.
bool identical(const RunLog& a, const RunLog& b);

/// When `identical` fails, a short human-readable description of the first
/// divergence (for test diagnostics); empty when the logs match.
std::string firstDifference(const RunLog& a, const RunLog& b);

}  // namespace cb::sampling
