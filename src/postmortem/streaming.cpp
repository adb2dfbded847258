#include "postmortem/streaming.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cb::pm {

namespace {

/// The glued pre-spawn prefix of every task tag seen so far (glueSpawnPrefix
/// computed once per tag). Only tags with a spawn record are cached, so the
/// cache is bounded by the spawn registry even on a log whose samples carry
/// unknown tags.
class PrefixCache {
 public:
  PrefixCache(const sampling::RunLog& log, const ConsolidateOptions& opts)
      : log_(log), opts_(opts) {}

  const std::vector<sampling::Frame>& of(uint64_t tag) {
    if (tag == 0 || !opts_.glueSpawns) return empty_;
    auto it = byTag_.find(tag);
    if (it != byTag_.end()) return it->second;
    if (!log_.spawns.count(tag)) return empty_;
    std::vector<sampling::Frame>& prefix = byTag_[tag];
    glueSpawnPrefix(log_, tag, opts_, prefix);
    return prefix;
  }

  size_t approxMemoryBytes() const {
    size_t bytes = byTag_.bucket_count() * sizeof(void*);
    for (const auto& [tag, prefix] : byTag_)
      bytes += sizeof(tag) + sizeof(prefix) + 2 * sizeof(void*) +
               prefix.capacity() * sizeof(sampling::Frame);
    return bytes;
  }

 private:
  const sampling::RunLog& log_;
  ConsolidateOptions opts_;
  std::unordered_map<uint64_t, std::vector<sampling::Frame>> byTag_;
  const std::vector<sampling::Frame> empty_;
};

}  // namespace

bool framesMatchModule(const ir::Module& m, const std::vector<sampling::Frame>& frames) {
  return std::all_of(frames.begin(), frames.end(), [&m](const sampling::Frame& f) {
    return f.func < m.numFunctions() && f.instr < m.function(f.func).numInstrs();
  });
}

bool logMatchesModule(const ir::Module& m, const sampling::RunLog& log) {
  for (const auto& [tag, rec] : log.spawns)
    if (!framesMatchModule(m, rec.preSpawnStack)) return false;
  return std::all_of(log.samples.begin(), log.samples.end(),
                     [&m](const sampling::RawSample& s) { return framesMatchModule(m, s.stack); });
}

bool runPostmortemStreaming(const ir::Module& m, const an::ModuleBlame* mb,
                            sampling::RunLogStreamer& streamer,
                            const StreamingPostmortemOptions& opts, BlameReport& out,
                            sampling::RunLog* meta, StreamingPostmortemStats* stats) {
  // Pass 1: full validation + everything except the samples. The spawn
  // registry collected here is what the prefix cache glues stacks through.
  sampling::RunLog local;
  sampling::RunLog& header = meta ? *meta : local;
  if (!streamer.readMeta(header)) return false;
  // A frame naming a function or instruction the module does not have makes
  // the log malformed: it was recorded from another program.
  for (const auto& [tag, rec] : header.spawns)
    if (!framesMatchModule(m, rec.preSpawnStack)) return false;

  const uint32_t chunkCap = std::max<uint32_t>(opts.chunkSamples, 1);
  std::optional<Attributor> attributor;
  if (mb) attributor.emplace(*mb, opts.attribution);
  PrefixCache prefixes(header, opts.consolidate);
  std::vector<sampling::Frame> path;  // the glued path of the sample in flight
  StreamingPostmortemStats acct;
  uint32_t inChunk = 0;

  auto endChunk = [&] {
    ++acct.chunks;
    inChunk = 0;
    size_t bytes = prefixes.approxMemoryBytes() + path.capacity() * sizeof(sampling::Frame);
    if (attributor) bytes += attributor->approxMemoryBytes();
    acct.peakAccumulatorBytes = std::max(acct.peakAccumulatorBytes, bytes);
  };

  // Pass 2: one sample in flight at a time, glued through the per-tag prefix
  // cache and fed to the one attributor that lives for the whole stream.
  bool ok = streamer.forEachSample([&](sampling::RawSample&& s) {
    ++acct.samples;
    if (!framesMatchModule(m, s.stack)) return false;
    if (s.runtimeFrame != sampling::RuntimeFrameKind::None) {
      if (attributor) attributor->addIdle();
    } else {
      if (attributor) {
        const std::vector<sampling::Frame>& prefix = prefixes.of(s.taskTag);
        path.assign(prefix.begin(), prefix.end());
        path.insert(path.end(), s.stack.begin(), s.stack.end());
        attributor->add(path, s.accessKind, s.srcLocale, s.dstLocale);
      }
    }
    if (++inChunk == chunkCap) endChunk();
    return true;
  });
  if (!ok) return false;
  if (inChunk > 0) endChunk();

  out = attributor ? attributor->report() : BlameReport{};
  if (stats) {
    acct.decodeBufferBytes = streamer.bufferBytes();
    *stats = acct;
  }
  return true;
}

bool runPostmortemStreamingFile(const ir::Module& m, const an::ModuleBlame* mb,
                                const std::string& path, const StreamingPostmortemOptions& opts,
                                BlameReport& out, sampling::RunLog* meta,
                                StreamingPostmortemStats* stats) {
  sampling::RunLogStreamer s;
  if (!s.openFile(path)) return false;
  return runPostmortemStreaming(m, mb, s, opts, out, meta, stats);
}

}  // namespace cb::pm
