// Reusable buffered chunk reader: the single byte source behind every
// run-log load path. A fixed-size buffer (default 256 KiB) is refilled from
// the backing file as bytes are consumed, so loading — and, via
// RunLogStreamer, post-mortem ingestion — of an arbitrarily large log never
// materializes the file in memory. An in-memory backend serves
// `deserializeRunLog` through the exact same decoder, keeping one code path
// (and one corruption/truncation acceptance) for both.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace cb::sampling {

class ChunkReader {
 public:
  static constexpr size_t kDefaultChunkBytes = 256 * 1024;

  ChunkReader() = default;
  ~ChunkReader() { close(); }
  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  /// Opens a file-backed source. Returns false when the file cannot be
  /// opened. `chunkBytes` caps the resident buffer (clamped to >= 4 KiB).
  bool openFile(const std::string& path, size_t chunkBytes = kDefaultChunkBytes);

  /// Serves bytes directly from an in-memory buffer the CALLER keeps alive.
  void openString(std::string_view data);

  /// Restarts the stream from offset 0 (both backends). Returns false on a
  /// seek failure or when nothing is open.
  bool rewind();

  void close();

  /// Pulls one byte; false at end of stream.
  bool byte(uint8_t& out) {
    if (pos_ >= len_ && !refill()) return false;
    out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  /// Reads one '\n'-terminated line (terminator stripped). `out` views the
  /// window itself when the whole line is resident — no copy — and `spill`,
  /// a caller-owned buffer reused from line to line, when the line straddles
  /// a refill; either way it is valid until the next read. Returns false
  /// only at end-of-stream with nothing read; a final unterminated line is
  /// returned as-is.
  bool getline(std::string_view& out, std::string& spill);

  /// Copies up to `n` leading bytes WITHOUT consuming them; returns how many
  /// were available. `n` must be small (at most the chunk size).
  size_t peek(uint8_t* dst, size_t n);

  /// True when every byte has been consumed.
  bool atEnd() {
    return pos_ >= len_ && !refill();
  }

  /// Bounds-checked LEB128 varint (false on truncation/over-long encoding).
  bool varint(uint64_t& out) {
    out = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b;
      if (!byte(b)) return false;
      out |= static_cast<uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) return true;
    }
    return false;
  }

  bool varint32(uint32_t& out) {
    uint64_t v;
    if (!varint(v) || v > ~0u) return false;
    out = static_cast<uint32_t>(v);
    return true;
  }

  /// Total bytes consumed so far (survives refills; reset by rewind).
  uint64_t bytesConsumed() const { return consumed_ + pos_; }

  /// Known total size of the backing source (file size / view length).
  uint64_t totalBytes() const { return total_; }

  /// Resident buffer footprint — what a memory-bounded ingest accounts for.
  size_t bufferCapacity() const { return isMem_ ? 0 : buf_.capacity(); }

 private:
  bool refill();

  std::FILE* f_ = nullptr;
  std::string path_;
  std::string_view mem_;
  bool isMem_ = false;
  bool open_ = false;
  std::vector<char> buf_;
  const char* data_ = nullptr;  // current window (buf_ or mem_)
  size_t pos_ = 0;              // cursor within window
  size_t len_ = 0;              // valid bytes in window
  uint64_t consumed_ = 0;       // bytes consumed before the current window
  uint64_t total_ = 0;
};

}  // namespace cb::sampling
