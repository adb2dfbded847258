#include "sampling/chunk_reader.h"

#include <algorithm>
#include <cstring>

namespace cb::sampling {

bool ChunkReader::openFile(const std::string& path, size_t chunkBytes) {
  close();
  f_ = std::fopen(path.c_str(), "rb");
  if (!f_) return false;
  path_ = path;
  isMem_ = false;
  buf_.resize(std::max<size_t>(chunkBytes, 4096));
  data_ = buf_.data();
  pos_ = len_ = 0;
  consumed_ = 0;
  open_ = true;
  if (std::fseek(f_, 0, SEEK_END) == 0) {
    long sz = std::ftell(f_);
    total_ = sz > 0 ? static_cast<uint64_t>(sz) : 0;
    std::fseek(f_, 0, SEEK_SET);
  }
  return true;
}

void ChunkReader::openString(std::string_view data) {
  close();
  mem_ = data;
  isMem_ = true;
  data_ = mem_.data();
  pos_ = 0;
  len_ = mem_.size();
  consumed_ = 0;
  total_ = mem_.size();
  open_ = true;
}

bool ChunkReader::rewind() {
  if (!open_) return false;
  if (isMem_) {
    pos_ = 0;
    len_ = mem_.size();
    consumed_ = 0;
    return true;
  }
  if (std::fseek(f_, 0, SEEK_SET) != 0) return false;
  pos_ = len_ = 0;
  consumed_ = 0;
  return true;
}

void ChunkReader::close() {
  if (f_) std::fclose(f_);
  f_ = nullptr;
  mem_ = {};
  data_ = nullptr;
  pos_ = len_ = 0;
  consumed_ = total_ = 0;
  open_ = isMem_ = false;
}

bool ChunkReader::refill() {
  if (!open_ || isMem_) return false;  // memory windows never refill
  consumed_ += len_;
  len_ = std::fread(buf_.data(), 1, buf_.size(), f_);
  pos_ = 0;
  return len_ > 0;
}

bool ChunkReader::getline(std::string_view& out, std::string& spill) {
  if (pos_ >= len_ && !refill()) return false;
  const char* start = data_ + pos_;
  if (const char* nl = static_cast<const char*>(std::memchr(start, '\n', len_ - pos_))) {
    out = std::string_view(start, static_cast<size_t>(nl - start));
    pos_ += out.size() + 1;
    return true;
  }
  // The line runs past the window: copy it out piece by piece across refills.
  spill.clear();
  while (true) {
    start = data_ + pos_;
    const char* nl = static_cast<const char*>(std::memchr(start, '\n', len_ - pos_));
    if (nl) {
      spill.append(start, nl);
      pos_ += static_cast<size_t>(nl - start) + 1;
      break;
    }
    spill.append(start, len_ - pos_);
    pos_ = len_;
    if (!refill()) break;
  }
  out = spill;
  return true;
}

size_t ChunkReader::peek(uint8_t* dst, size_t n) {
  if (!open_) return 0;
  if (isMem_) {
    size_t avail = std::min(n, len_ - pos_);
    std::memcpy(dst, data_ + pos_, avail);
    return avail;
  }
  // Compact the unread tail to the front so the peek window is contiguous,
  // then top the buffer up (also the first fill after open, when the buffer
  // is empty at pos_ == 0).
  if (len_ - pos_ < n) {
    if (pos_ > 0) {
      std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
      consumed_ += pos_;
      len_ -= pos_;
      pos_ = 0;
    }
    len_ += std::fread(buf_.data() + len_, 1, buf_.size() - len_, f_);
  }
  size_t avail = std::min(n, len_ - pos_);
  std::memcpy(dst, data_ + pos_, avail);
  return avail;
}

}  // namespace cb::sampling
