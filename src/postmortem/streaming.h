// Memory-bounded streaming post-mortem: glue + attribution over an
// incrementally-decoded run log. Where the batch pipeline materializes every
// RawSample and every Instance before attributing, this path holds at most
//
//   spawn registry + comm metadata   (RunLogStreamer::readMeta)
// + one fixed decode window          (ChunkReader, default 256 KiB)
// + one sample in flight             (decoded in place, glued in place)
// + the per-tag glued prefixes       (one per spawn record ever sampled)
// + one Attributor                   (per-path memo + per-row tallies)
//
// Each term is a function of the PROGRAM being profiled — its spawn sites,
// distinct call paths and blamed variables — never of the log length. The
// attributor lives for the whole stream: it is the very class batch
// `attribute` runs, fed the same glued paths (glueSpawnPrefix is the one
// glue rule), so the streamed report is bit-identical to
// attribute(consolidate(log)) for every chunk size. `chunkSamples` sets the
// cadence at which chunks are counted and the footprint is sampled.
#pragma once

#include <cstdint>

#include "postmortem/attribution.h"
#include "postmortem/instance.h"
#include "sampling/log_stream.h"

namespace cb::pm {

struct StreamingPostmortemOptions {
  ConsolidateOptions consolidate;
  AttributionOptions attribution;
  /// Samples per chunk: the cadence of StreamingPostmortemStats::chunks and
  /// of the peak-footprint sample. Any value >= 1 produces the identical
  /// report.
  uint32_t chunkSamples = 4096;
};

/// Accounting for the bounded-memory claim (allocator-counter style, same
/// discipline as StreamingAggregator::approxMemoryBytes).
struct StreamingPostmortemStats {
  uint64_t samples = 0;        // samples streamed
  uint64_t chunks = 0;         // chunks of chunkSamples samples (last may be short)
  size_t decodeBufferBytes = 0;   // resident ChunkReader buffer
  size_t peakAccumulatorBytes = 0;  // max attributor + prefix-cache footprint observed
};

/// The one frame-validation rule for a log read back against a module:
/// every frame names a function `m` has and an instruction inside it. A log
/// that breaks it was recorded from another program, and both the streaming
/// and the batch `--from-log` paths reject it as malformed.
bool framesMatchModule(const ir::Module& m, const std::vector<sampling::Frame>& frames);

/// framesMatchModule over every sample stack and spawn pre-spawn stack.
bool logMatchesModule(const ir::Module& m, const sampling::RunLog& log);

/// Runs the two-pass streaming protocol over an opened streamer: readMeta
/// (validates the whole log, collects spawns/alloc/comm), then glues and
/// attributes the samples one by one. Fills `out` with the report; with
/// mb == nullptr attribution is skipped and `out` is the empty report
/// (matching the sharded path's --fast semantics). Returns false on input
/// the batch loader rejects, and on a log whose frames break
/// framesMatchModule. `meta` (optional) receives the non-sample log contents
/// (header counters, spawns, alloc sites, comm matrix).
bool runPostmortemStreaming(const ir::Module& m, const an::ModuleBlame* mb,
                            sampling::RunLogStreamer& streamer,
                            const StreamingPostmortemOptions& opts, BlameReport& out,
                            sampling::RunLog* meta = nullptr,
                            StreamingPostmortemStats* stats = nullptr);

/// File convenience wrapper: opens `path` (format auto-detected) and streams
/// it through runPostmortemStreaming.
bool runPostmortemStreamingFile(const ir::Module& m, const an::ModuleBlame* mb,
                                const std::string& path, const StreamingPostmortemOptions& opts,
                                BlameReport& out, sampling::RunLog* meta = nullptr,
                                StreamingPostmortemStats* stats = nullptr);

}  // namespace cb::pm
