#include "sampling/log_stream.h"

#include <charconv>

#include "support/varint.h"

namespace cb::sampling {

namespace {

/// Cursor over one text-log line, decoding the grammar stated in log_io.h
/// in place: no stream object, no token strings. Every field is one
/// separator followed by a decimal number that must fit its type, so a
/// non-numeric token, a token with trailing junk, a doubled space, an
/// out-of-range value and a minus sign on an unsigned field all fail it.
struct LineCursor {
  const char* p;
  const char* end;

  explicit LineCursor(std::string_view line) : p(line.data()), end(line.data() + line.size()) {}

  size_t left() const { return static_cast<size_t>(end - p); }
  bool done() const { return p == end; }

  template <char Sep = ' ', typename... T>
  bool fields(T&... out) {
    return (field<Sep>(out) && ...);
  }

  /// "<n>" then n frames " func:instr". Each frame takes at least four
  /// bytes, so an n larger than the rest of the line is malformed before
  /// anything is reserved for it.
  bool frames(std::vector<Frame>& out) {
    size_t n;
    if (!fields(n) || n > left()) return false;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Frame f;
      if (!fields(f.func) || !fields<':'>(f.instr)) return false;
      out.push_back(f);
    }
    return true;
  }

 private:
  template <char Sep, typename T>
  bool field(T& out) {
    if (p == end || *p != Sep) return false;
    auto [next, ec] = std::from_chars(p + 1, end, out);
    if (ec != std::errc()) return false;
    p = next;
    return true;
  }
};

/// Pull-based mirror of StringByteReader's zigzag-delta decoding.
bool readDelta(ChunkReader& r, uint64_t& cur, uint64_t prev) {
  uint64_t z;
  if (!r.varint(z)) return false;
  cur = prev + static_cast<uint64_t>(unzigzag(z));
  return true;
}

bool readDelta32(ChunkReader& r, uint32_t& cur, uint32_t prev) {
  uint64_t c;
  if (!readDelta(r, c, prev)) return false;
  cur = static_cast<uint32_t>(c);  // ids wrap in 32 bits by construction
  return true;
}

bool readFramesBinary(ChunkReader& r, uint64_t remaining, std::vector<Frame>& out) {
  uint64_t n;
  if (!r.varint(n) || n > remaining) return false;  // each frame >= 2 bytes
  out.reserve(n);
  uint32_t prevFunc = 0, prevInstr = 0;
  for (uint64_t i = 0; i < n; ++i) {
    Frame f;
    if (!readDelta32(r, f.func, prevFunc) || !readDelta32(r, f.instr, prevInstr)) return false;
    prevFunc = f.func;
    prevInstr = f.instr;
    out.push_back(f);
  }
  return true;
}

}  // namespace

bool RunLogStreamer::openFile(const std::string& path, size_t chunkBytes) {
  isFile_ = true;
  path_ = path;
  chunkBytes_ = chunkBytes;
  metaDone_ = false;
  samples_ = 0;
  opened_ = reader_.openFile(path, chunkBytes);
  return opened_;
}

void RunLogStreamer::openString(std::string_view data) {
  isFile_ = false;
  mem_ = data;
  metaDone_ = false;
  samples_ = 0;
  reader_.openString(data);
  opened_ = true;
}

bool RunLogStreamer::reopen() {
  if (!opened_) return false;
  return reader_.rewind();
}

bool RunLogStreamer::readMeta(RunLog& meta) {
  if (!reopen()) return false;
  samples_ = 0;
  metaDone_ = scan(&meta, nullptr);
  return metaDone_;
}

bool RunLogStreamer::forEachSample(const std::function<bool(RawSample&&)>& fn) {
  if (!metaDone_ || !reopen()) return false;
  return scan(nullptr, &fn);
}

bool RunLogStreamer::readAll(RunLog& out) {
  if (!reopen()) return false;
  samples_ = 0;
  std::function<bool(RawSample&&)> sink = [&out](RawSample&& s) {
    out.samples.push_back(std::move(s));
    return true;
  };
  metaDone_ = scan(&out, &sink);
  return metaDone_;
}

bool RunLogStreamer::scan(RunLog* meta, const std::function<bool(RawSample&&)>* fn) {
  if (meta) *meta = RunLog{};
  uint8_t magic[4];
  size_t got = reader_.peek(magic, 4);
  bool binary = got == 4;
  for (size_t i = 0; binary && i < 4; ++i)
    binary = magic[i] == static_cast<uint8_t>(kRunLogBinaryMagic[i]);
  return binary ? scanBinary(meta, fn) : scanText(meta, fn);
}

// ---------------------------------------------------------------------------
// Binary scan — the decoding twin of serializeRunLogBinary (see log_io.h for
// the wire layout). Version 1..5 files load with newer fields defaulted.
// ---------------------------------------------------------------------------

bool RunLogStreamer::scanBinary(RunLog* meta, const std::function<bool(RawSample&&)>* fn) {
  ChunkReader& r = reader_;
  auto remaining = [&r] { return r.totalBytes() - r.bytesConsumed(); };
  RunLog scratch;
  RunLog& dst = meta ? *meta : scratch;

  uint8_t b;
  for (char m : kRunLogBinaryMagic)
    if (!r.byte(b) || b != static_cast<uint8_t>(m)) return false;
  uint8_t version;
  if (!r.byte(version) || version < 1 || version > kRunLogBinaryVersion) return false;

  uint64_t nStreams;
  if (!r.varint(dst.sampleThreshold) || !r.varint(nStreams) || nStreams > ~0u ||
      !r.varint(dst.totalCycles))
    return false;
  dst.numStreams = static_cast<uint32_t>(nStreams);
  if (version >= 2 &&
      (!r.varint(dst.commGets) || !r.varint(dst.commPuts) || !r.varint(dst.commOnForks)))
    return false;
  if (version >= 3 && (!r.varint(dst.commAggGets) || !r.varint(dst.commAggPuts) ||
                       !r.varint(dst.commAggFlushes)))
    return false;
  if (version >= 4 && (!r.varint(dst.commMemStallCycles) || !r.varint(dst.commNetStallCycles) ||
                       !r.varint(dst.commContentionCycles)))
    return false;
  if (version >= 5 && !r.varint(dst.raceFallbackRegions)) return false;

  uint64_t nSamples;
  if (!r.varint(nSamples) || nSamples > remaining()) return false;
  uint64_t prevCycle = 0;
  RawSample s;  // reused: its stack keeps its capacity from sample to sample
  for (uint64_t i = 0; i < nSamples; ++i) {
    s.accessKind = AccessKind::None;
    s.srcLocale = s.dstLocale = 0;
    s.stack.clear();
    uint64_t rtk;
    if (!r.varint32(s.stream) || !r.varint(s.taskTag) || !readDelta(r, s.atCycle, prevCycle) ||
        !r.varint(rtk) || rtk > 255)
      return false;
    prevCycle = s.atCycle;
    s.runtimeFrame = static_cast<RuntimeFrameKind>(rtk);
    if (version >= 2) {
      uint64_t ak;
      if (!r.varint(ak) || ak > 3) return false;
      s.accessKind = static_cast<AccessKind>(ak);
      if (version >= 3 &&
          (s.accessKind == AccessKind::RemoteGet || s.accessKind == AccessKind::RemotePut)) {
        uint64_t src, dst2;
        if (!r.varint(src) || src > ~0u || !r.varint(dst2) || dst2 > ~0u) return false;
        s.srcLocale = static_cast<int32_t>(src);
        s.dstLocale = static_cast<int32_t>(dst2);
      }
    }
    if (!readFramesBinary(r, remaining(), s.stack)) return false;
    if (fn && !(*fn)(std::move(s))) return false;
  }
  samples_ = nSamples;

  // A sample-only pass (pass 2) stops here: the trailing sections were
  // already validated and collected by readMeta.
  if (!meta) return true;

  uint64_t nSpawns;
  if (!r.varint(nSpawns) || nSpawns > remaining()) return false;
  uint64_t prevTag = 0;
  for (uint64_t i = 0; i < nSpawns; ++i) {
    SpawnRecord rec;
    if (!readDelta(r, rec.tag, prevTag) || !r.varint(rec.parentTag) ||
        !r.varint32(rec.taskFn) || !r.varint32(rec.spawnInstr) ||
        !readFramesBinary(r, remaining(), rec.preSpawnStack))
      return false;
    prevTag = rec.tag;
    uint64_t tag = rec.tag;
    dst.spawns.emplace(tag, std::move(rec));
  }

  uint64_t nSites;
  if (!r.varint(nSites) || nSites > remaining()) return false;
  uint64_t prevKey = 0;
  for (uint64_t i = 0; i < nSites; ++i) {
    uint64_t key, bytes;
    if (!readDelta(r, key, prevKey) || !r.varint(bytes)) return false;
    prevKey = key;
    dst.allocBytesBySite[key] = bytes;
  }

  if (version >= 3) {
    uint64_t nCells;
    if (!r.varint(nCells) || nCells > remaining()) return false;
    uint64_t prevCell = 0;
    for (uint64_t i = 0; i < nCells; ++i) {
      uint64_t key, count;
      if (!readDelta(r, key, prevCell) || !r.varint(count)) return false;
      prevCell = key;
      dst.commMatrix[key] = count;
    }
  }

  if (version >= 6) {
    uint64_t nSpans;
    if (!r.varint(nSpans) || nSpans > remaining()) return false;
    dst.taskSpans.reserve(nSpans);
    uint64_t prevStart = 0;
    for (uint64_t i = 0; i < nSpans; ++i) {
      TaskSpan sp;
      uint64_t len, nSites;
      if (!r.varint(sp.tag) || !r.varint32(sp.chunk) || !r.varint32(sp.stream) ||
          !readDelta(r, sp.startCycle, prevStart) || !r.varint(len) || !r.varint(nSites) ||
          nSites > remaining())
        return false;
      prevStart = sp.startCycle;
      sp.endCycle = sp.startCycle + len;
      sp.sites.reserve(nSites);
      uint64_t prevSite = 0;
      for (uint64_t k = 0; k < nSites; ++k) {
        SiteCycles sc;
        uint64_t d125, d2, d4;
        if (!readDelta(r, sc.site, prevSite) || !r.varint(sc.raw) || !r.varint(d125) ||
            !r.varint(d2) || !r.varint(d4) || d125 > sc.raw || d2 > sc.raw || d4 > sc.raw)
          return false;
        prevSite = sc.site;
        sc.s125 = sc.raw - d125;
        sc.s2 = sc.raw - d2;
        sc.s4 = sc.raw - d4;
        sp.sites.push_back(sc);
      }
      dst.taskSpans.push_back(std::move(sp));
    }
  }
  return r.atEnd();  // trailing garbage is a format error
}

// ---------------------------------------------------------------------------
// Text scan — the line grammar of log_io.h, versions 1..6. Lines of different
// kinds may interleave in any order; the version gates which fields appear.
// ---------------------------------------------------------------------------

bool RunLogStreamer::scanText(RunLog* meta, const std::function<bool(RawSample&&)>* fn) {
  ChunkReader& r = reader_;
  RunLog scratch;
  RunLog& dst = meta ? *meta : scratch;
  std::string_view line;
  std::string spill;
  if (!r.getline(line, spill) || !line.starts_with("cblog")) return false;
  LineCursor h(line.substr(5));
  unsigned version = 0;
  if (!h.fields(version) || version < 1 || version > 6 ||
      !h.fields(dst.sampleThreshold, dst.numStreams, dst.totalCycles))
    return false;
  if (version >= 2 && !h.fields(dst.commGets, dst.commPuts, dst.commOnForks)) return false;
  if (version >= 3 && !h.fields(dst.commAggGets, dst.commAggPuts, dst.commAggFlushes))
    return false;
  if (version >= 4 &&
      !h.fields(dst.commMemStallCycles, dst.commNetStallCycles, dst.commContentionCycles))
    return false;
  if (version >= 5 && !h.fields(dst.raceFallbackRegions)) return false;
  if (!h.done()) return false;

  uint64_t nSamples = 0;
  RawSample s;  // reused: its stack keeps its capacity from sample to sample
  while (r.getline(line, spill)) {
    if (line.empty()) return false;
    // Pass 2 only re-decodes samples: every other record kind was validated
    // and collected by readMeta.
    char kind = line[0];
    if (!meta && kind != 'S') continue;
    LineCursor in(line.substr(1));
    if (kind == 'S') {
      uint8_t rtk = 0, ak = 0;
      s.srcLocale = s.dstLocale = 0;
      s.stack.clear();
      if (!in.fields(s.stream, s.taskTag, s.atCycle, rtk)) return false;
      if (version >= 2 && (!in.fields(ak) || ak > 3)) return false;
      if (version >= 3 && !in.fields(s.srcLocale, s.dstLocale)) return false;
      if (!in.frames(s.stack) || !in.done()) return false;
      s.runtimeFrame = static_cast<RuntimeFrameKind>(rtk);
      s.accessKind = static_cast<AccessKind>(ak);
      ++nSamples;
      if (fn && !(*fn)(std::move(s))) return false;
    } else if (kind == 'W') {
      SpawnRecord rec;
      if (!in.fields(rec.tag, rec.parentTag, rec.taskFn, rec.spawnInstr) ||
          !in.frames(rec.preSpawnStack) || !in.done())
        return false;
      dst.spawns.emplace(rec.tag, std::move(rec));
    } else if (kind == 'A') {
      uint64_t key, bytes;
      if (!in.fields(key, bytes) || !in.done()) return false;
      dst.allocBytesBySite[key] = bytes;
    } else if (kind == 'M' && version >= 3) {
      int32_t src, dstLoc;
      uint64_t count;
      if (!in.fields(src, dstLoc, count) || !in.done()) return false;
      dst.commMatrix[RunLog::pairKey(src, dstLoc)] = count;
    } else if (kind == 'T' && version >= 6) {
      TaskSpan sp;
      size_t n;
      // Each site " site:raw:s125:s2:s4" takes at least ten bytes.
      if (!in.fields(sp.tag, sp.chunk, sp.stream, sp.startCycle, sp.endCycle, n) ||
          sp.endCycle < sp.startCycle || n > in.left())
        return false;
      sp.sites.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        SiteCycles sc;
        if (!in.fields(sc.site) || !in.fields<':'>(sc.raw, sc.s125, sc.s2, sc.s4)) return false;
        sp.sites.push_back(sc);
      }
      if (!in.done()) return false;
      dst.taskSpans.push_back(std::move(sp));
    } else {
      return false;
    }
  }
  samples_ = nSamples;
  return true;
}

}  // namespace cb::sampling
