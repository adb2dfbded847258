// Incremental run-log decoding over the buffered ChunkReader — the
// streaming-ingestion layer of the profiling service. One scanner decodes
// both on-disk formats (text and binary, versions 1-6, auto-detected), and
// every load path goes through it:
//
//   - deserializeRunLog / loadRunLog (the batch compatibility shims) run a
//     single full scan that materializes the whole RunLog, byte-for-byte
//     equivalent to the seed's load-everything parser;
//   - the streaming post-mortem (postmortem/streaming.h) runs the TWO-PASS
//     protocol below, so peak memory is the spawn registry + one sample at
//     a time instead of the whole sample vector.
//
// Two-pass protocol: samples reference the spawn registry (stack gluing),
// but spawn records may follow the samples in the byte stream (the binary
// format always orders them after). readMeta() therefore scans the whole
// log once — validating every record, exactly as strict as the batch parser
// — collecting everything EXCEPT the samples; forEachSample() rescans and
// hands each decoded sample to the caller in log order.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "sampling/chunk_reader.h"
#include "sampling/sample.h"

namespace cb::sampling {

/// Binary format magic + current version (shared with the serializer).
inline constexpr char kRunLogBinaryMagic[4] = {'\x89', 'C', 'B', 'L'};
inline constexpr uint8_t kRunLogBinaryVersion = 6;

class RunLogStreamer {
 public:
  /// False when the file cannot be opened. Decoding errors surface later.
  bool openFile(const std::string& path, size_t chunkBytes = ChunkReader::kDefaultChunkBytes);

  /// Serves from an in-memory buffer the caller keeps alive.
  void openString(std::string_view data);

  /// Pass 1: validates the ENTIRE log (header, every sample, spawn/alloc/
  /// matrix records, trailing-garbage check) and fills `meta` with all of it
  /// except the samples. Returns false on malformed input, truncation, or an
  /// unsupported version — accepting exactly the inputs deserializeRunLog
  /// accepts. `meta` is unspecified on failure.
  bool readMeta(RunLog& meta);

  /// Pass 2 (requires a successful readMeta): re-scans, invoking `fn` once
  /// per sample in log order. A false return from `fn` aborts the scan (and
  /// this returns false).
  bool forEachSample(const std::function<bool(RawSample&&)>& fn);

  /// Single full scan: meta + samples materialized into `out` in one pass —
  /// the batch shim. Equivalent to readMeta + forEachSample{push_back} but
  /// touches the backing stream once.
  bool readAll(RunLog& out);

  /// Number of samples in the log; valid after a successful readMeta/readAll.
  uint64_t sampleCount() const { return samples_; }

  /// Resident decode-buffer footprint (0 for in-memory sources).
  size_t bufferBytes() const { return reader_.bufferCapacity(); }

 private:
  bool reopen();
  bool scan(RunLog* meta, const std::function<bool(RawSample&&)>* fn);
  bool scanBinary(RunLog* meta, const std::function<bool(RawSample&&)>* fn);
  bool scanText(RunLog* meta, const std::function<bool(RawSample&&)>* fn);

  ChunkReader reader_;
  bool isFile_ = false;
  bool opened_ = false;
  bool metaDone_ = false;
  std::string path_;
  size_t chunkBytes_ = ChunkReader::kDefaultChunkBytes;
  std::string_view mem_;
  uint64_t samples_ = 0;
};

}  // namespace cb::sampling
