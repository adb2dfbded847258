// Tests of the streaming-ingestion layer: RunLogStreamer (the single
// decoder behind deserializeRunLog/loadRunLog), the two-pass meta+samples
// protocol, and the memory-bounded streaming post-mortem. The load-bearing
// properties are
//   (1) streaming acceptance == batch acceptance on every input, valid or
//       corrupt (single-decoder principle), and
//   (2) the streamed BlameReport is bit-identical to the batch
//       attribute(consolidate(log)) at EVERY chunk size, while peak
//       accumulator memory depends on distinct blame rows, not log length.
//
// Suite naming feeds the CTest labels: Property*.* carry the `property`
// label, the rest land in `unit`.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "postmortem/attribution.h"
#include "postmortem/instance.h"
#include "postmortem/streaming.h"
#include "sampling/log_io.h"
#include "sampling/log_stream.h"
#include "support/rng.h"
#include "test_util.h"

namespace cb {
namespace {

sampling::RunLog makeLog() {
  auto c = fe::Compilation::fromString(
      "t.chpl",
      "const D = {0..#64};\nvar A: [D] real;\nproc main() { forall i in D { var t = 0.0; for j "
      "in 0..#30 { t += i * j; } A[i] = t; } }");
  EXPECT_TRUE(c->ok());
  rt::RunOptions o;
  o.sampleThreshold = 101;
  rt::RunResult r = rt::execute(c->module(), o);
  EXPECT_TRUE(r.ok);
  return r.log;
}

std::string writeTemp(const std::string& name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

// ---------------------------------------------------------------------------
// RunLogStreamer: decoder equivalence
// ---------------------------------------------------------------------------

TEST(StreamingLog, ReadAllMatchesBatchOnBothFormats) {
  sampling::RunLog log = makeLog();
  for (std::string data :
       {sampling::serializeRunLog(log), sampling::serializeRunLogBinary(log)}) {
    sampling::RunLog batch, streamed;
    ASSERT_TRUE(sampling::deserializeRunLog(data, batch));
    sampling::RunLogStreamer s;
    s.openString(data);
    ASSERT_TRUE(s.readAll(streamed));
    // Re-serialization covers every persisted field.
    EXPECT_EQ(sampling::serializeRunLog(streamed), sampling::serializeRunLog(batch));
    EXPECT_EQ(s.sampleCount(), log.samples.size());
  }
}

TEST(StreamingLog, TwoPassProtocolReconstructsTheLog) {
  sampling::RunLog log = makeLog();
  std::string data = sampling::serializeRunLogBinary(log);
  sampling::RunLogStreamer s;
  s.openString(data);
  sampling::RunLog meta;
  ASSERT_TRUE(s.readMeta(meta));
  EXPECT_TRUE(meta.samples.empty());  // pass 1 collects everything BUT samples
  EXPECT_EQ(meta.spawns.size(), log.spawns.size());
  ASSERT_TRUE(s.forEachSample([&](sampling::RawSample&& smp) {
    meta.samples.push_back(std::move(smp));
    return true;
  }));
  EXPECT_EQ(sampling::serializeRunLog(meta), sampling::serializeRunLog(log));
}

TEST(StreamingLog, ForEachSampleAbortsOnFalse) {
  sampling::RunLog log = makeLog();
  ASSERT_GE(log.samples.size(), 3u);
  std::string data = sampling::serializeRunLogBinary(log);
  sampling::RunLogStreamer s;
  s.openString(data);
  sampling::RunLog meta;
  ASSERT_TRUE(s.readMeta(meta));
  uint64_t seen = 0;
  EXPECT_FALSE(s.forEachSample([&](sampling::RawSample&&) { return ++seen < 2; }));
  EXPECT_EQ(seen, 2u);
}

TEST(StreamingLog, FileDecodeWithMinimumChunkMatchesMemoryDecode) {
  sampling::RunLog log = makeLog();
  for (std::string data :
       {sampling::serializeRunLog(log), sampling::serializeRunLogBinary(log)}) {
    std::string path = writeTemp("cb_stream_chunks.cblog", data);
    sampling::RunLogStreamer file;
    // Request a 1-byte chunk: ChunkReader clamps to its floor, forcing many
    // refills + compactions on this multi-hundred-KiB log.
    ASSERT_TRUE(file.openFile(path, 1));
    sampling::RunLog viaFile, viaMem;
    ASSERT_TRUE(file.readAll(viaFile));
    EXPECT_GT(file.bufferBytes(), 0u);
    sampling::RunLogStreamer mem;
    mem.openString(data);
    ASSERT_TRUE(mem.readAll(viaMem));
    EXPECT_EQ(mem.bufferBytes(), 0u);  // zero-copy: no resident buffer
    EXPECT_EQ(sampling::serializeRunLog(viaFile), sampling::serializeRunLog(viaMem));
    std::remove(path.c_str());
  }
}

// Single-decoder principle, adversarial form: for random prefixes and random
// byte corruptions, the chunked FILE path and the in-memory path must agree
// on acceptance — and never crash. This extends the corruption fuzz of
// test_log_io.cpp to the new ChunkReader-backed loader.
TEST(PropertyStreamingFuzz, ChunkedFileAcceptanceEqualsMemoryAcceptance) {
  sampling::RunLog log = makeLog();
  std::string data = sampling::serializeRunLogBinary(log);
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = data;
    if (trial % 2 == 0) {
      mutated.resize(rng.next() % (data.size() + 1));  // truncation
    } else {
      for (int k = 0; k < 4; ++k)  // byte flips (magic/version kept)
        mutated[5 + rng.next() % (mutated.size() - 5)] ^=
            static_cast<char>(1 + rng.next() % 255);
    }
    sampling::RunLog a, b;
    bool memOk = sampling::deserializeRunLog(mutated, a);
    std::string path = writeTemp("cb_stream_fuzz.cblog", mutated);
    sampling::RunLogStreamer s;
    ASSERT_TRUE(s.openFile(path, 1));
    bool fileOk = s.readAll(b);
    EXPECT_EQ(fileOk, memOk) << "trial " << trial << " size " << mutated.size();
    if (memOk && fileOk)
      EXPECT_EQ(sampling::serializeRunLog(b), sampling::serializeRunLog(a));
    std::remove(path.c_str());
  }
}

// Text twin of the fuzz above. Text logs have no length prefix, so a cut at
// a line boundary is usually a valid shorter log: the property is agreement
// and stability, not rejection. Accepted logs must re-serialize to a fixed
// point — compared through the binary form, whose record order is canonical
// (the text form writes hash-map order, which may differ between two loads).
TEST(PropertyStreamingFuzz, TextChunkedFileAcceptanceEqualsMemoryAcceptance) {
  sampling::RunLog log = makeLog();
  std::string data = sampling::serializeRunLog(log);
  std::string path = ::testing::TempDir() + "/cb_stream_fuzz_text.cblog";
  uint64_t accepted = 0;
  auto check = [&](const std::string& mutated, const std::string& what) {
    sampling::RunLog viaMem, viaFile;
    bool memOk = sampling::deserializeRunLog(mutated, viaMem);
    writeTemp("cb_stream_fuzz_text.cblog", mutated);
    sampling::RunLogStreamer s;
    ASSERT_TRUE(s.openFile(path, 1));
    bool fileOk = s.readAll(viaFile);
    EXPECT_EQ(fileOk, memOk) << what;
    if (!memOk || !fileOk) return;
    ++accepted;
    std::string canon = sampling::serializeRunLogBinary(viaMem);
    EXPECT_EQ(sampling::serializeRunLogBinary(viaFile), canon) << what;
    sampling::RunLog again;
    ASSERT_TRUE(sampling::deserializeRunLog(sampling::serializeRunLog(viaMem), again)) << what;
    EXPECT_EQ(sampling::serializeRunLogBinary(again), canon) << what;
  };

  for (size_t nl = data.find('\n'); nl != std::string::npos; nl = data.find('\n', nl + 1)) {
    check(data.substr(0, nl), "cut before newline at " + std::to_string(nl));
    check(data.substr(0, nl + 1), "cut after newline at " + std::to_string(nl));
  }
  Rng rng(0x7E57106);
  const std::string kFlips = "0123456789:- xS";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = data;
    if (trial % 3 == 0) {
      mutated.resize(rng.nextBounded(data.size() + 1));
    } else {
      for (int k = 0; k < 1 + trial % 3; ++k)  // digit, letter and space flips
        mutated[rng.nextBounded(mutated.size())] = kFlips[rng.nextBounded(kFlips.size())];
    }
    check(mutated, "trial " + std::to_string(trial));
  }
  EXPECT_GT(accepted, 0u);
  std::remove(path.c_str());
}

TEST(StreamingLog, LoadRunLogRejectsTruncatedFiles) {
  sampling::RunLog log = makeLog();
  std::string data = sampling::serializeRunLogBinary(log);
  for (size_t cut : {data.size() - 1, data.size() / 2, size_t{7}}) {
    std::string path = writeTemp("cb_stream_trunc.cblog", data.substr(0, cut));
    sampling::RunLog out;
    EXPECT_FALSE(sampling::loadRunLog(path, out)) << "cut at " << cut;
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Streaming post-mortem: bit-identity + bounded memory
// ---------------------------------------------------------------------------

TEST(PropertyStreamingPostmortem, ChunkSizeInvariance) {
  ProfileOptions popts;
  popts.run.sampleThreshold = 101;  // dense sampling: the tiny program must yield samples
  Profiler p = test::profileSource(
      "const D = {0..#48};\nvar A: [D] real;\nvar B: [D] real;\nproc main() { forall i in D { "
      "var t = 0.0; for j in 0..#25 { t += i + j; } A[i] = t; B[i] = 2.0 * t; } }",
      popts);
  const ir::Module& m = p.compilation()->module();
  const sampling::RunLog& log = p.runResult()->log;
  ASSERT_FALSE(log.samples.empty());

  std::vector<pm::Instance> inst = pm::consolidate(m, log, {});
  pm::BlameReport batch = pm::attribute(*p.moduleBlame(), inst, {});

  std::string data = sampling::serializeRunLogBinary(log);
  for (uint32_t chunk : {1u, 3u, 7u, 64u, 4096u}) {
    sampling::RunLogStreamer s;
    s.openString(data);
    pm::StreamingPostmortemOptions opts;
    opts.chunkSamples = chunk;
    pm::BlameReport streamed;
    pm::StreamingPostmortemStats stats;
    sampling::RunLog meta;
    ASSERT_TRUE(pm::runPostmortemStreaming(m, p.moduleBlame(), s, opts, streamed, &meta,
                                           &stats));
    EXPECT_TRUE(streamed == batch) << "chunkSamples=" << chunk;
    EXPECT_EQ(stats.samples, log.samples.size());
    EXPECT_EQ(stats.chunks, (stats.samples + chunk - 1) / chunk);
  }
}

// Streaming == batch on every corpus program at a dense threshold, through
// both serializations and at chunk sizes that split a sample run anywhere.
// ig_naive and clomp record tens of spawn records, so their stacks glue
// through several levels of pre-spawn prefixes.
class PropertyStreamingCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(PropertyStreamingCorpus, StreamedEqualsBatchOnTextAndBinary) {
  Profiler p;
  // `example` runs only ~49 virtual cycles, so it needs a far denser rate.
  p.options().run.sampleThreshold = std::string(GetParam()) == "example" ? 7 : 997;
  ASSERT_TRUE(p.compileFile(assetProgram(GetParam())) && p.analyze() && p.run())
      << p.lastError();
  const ir::Module& m = p.compilation()->module();
  const sampling::RunLog& log = p.runResult()->log;
  ASSERT_FALSE(log.samples.empty());
  pm::BlameReport batch = pm::attribute(*p.moduleBlame(), pm::consolidate(m, log, {}), {});

  for (const std::string& data :
       {sampling::serializeRunLog(log), sampling::serializeRunLogBinary(log)}) {
    for (uint32_t chunk : {1u, 7u, 4096u}) {
      sampling::RunLogStreamer s;
      s.openString(data);
      pm::StreamingPostmortemOptions opts;
      opts.chunkSamples = chunk;
      pm::BlameReport streamed;
      pm::StreamingPostmortemStats stats;
      ASSERT_TRUE(pm::runPostmortemStreaming(m, p.moduleBlame(), s, opts, streamed, nullptr,
                                             &stats));
      EXPECT_TRUE(streamed == batch) << GetParam() << " chunk " << chunk;
      EXPECT_EQ(stats.samples, log.samples.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, PropertyStreamingCorpus,
                         ::testing::Values("example", "minimd", "minimd_opt", "minimd_blockloc",
                                           "minimd_badloc", "clomp", "clomp_opt", "lulesh",
                                           "weakscale", "ig_naive", "ig_agg"));

TEST(StreamingPostmortem, PeakMemoryIndependentOfLogLength) {
  ProfileOptions popts;
  popts.run.sampleThreshold = 101;
  Profiler p = test::profileSource(
      "const D = {0..#32};\nvar A: [D] real;\nproc main() { forall i in D { var t = 0.0; for "
      "j in 0..#20 { t += i * j; } A[i] = t; } }",
      popts);
  const ir::Module& m = p.compilation()->module();
  sampling::RunLog base = p.runResult()->log;
  ASSERT_FALSE(base.samples.empty());

  // Grow the log 1x / 8x / 64x by replicating its own samples: distinct blame
  // rows stay fixed while the log length explodes.
  auto statsFor = [&](int replicas) {
    sampling::RunLog big = base;
    for (int r = 1; r < replicas; ++r)
      big.samples.insert(big.samples.end(), base.samples.begin(), base.samples.end());
    std::string path =
        writeTemp("cb_stream_rss.cblog", sampling::serializeRunLogBinary(big));
    pm::StreamingPostmortemOptions opts;
    opts.chunkSamples = 256;
    pm::BlameReport out;
    pm::StreamingPostmortemStats stats;
    EXPECT_TRUE(
        pm::runPostmortemStreamingFile(m, p.moduleBlame(), path, opts, out, nullptr, &stats));
    EXPECT_EQ(stats.samples, base.samples.size() * static_cast<uint64_t>(replicas));
    std::remove(path.c_str());
    return stats;
  };

  pm::StreamingPostmortemStats s1 = statsFor(1);
  pm::StreamingPostmortemStats s8 = statsFor(8);
  pm::StreamingPostmortemStats s64 = statsFor(64);
  // The decode buffer is a fixed-size window and the accumulator footprint is
  // a function of distinct rows only — both must stay flat as the log grows
  // 64-fold (the disk file grows from ~100 KiB to several MiB).
  EXPECT_EQ(s8.decodeBufferBytes, s1.decodeBufferBytes);
  EXPECT_EQ(s64.decodeBufferBytes, s1.decodeBufferBytes);
  ASSERT_GT(s1.peakAccumulatorBytes, 0u);
  EXPECT_EQ(s8.peakAccumulatorBytes, s1.peakAccumulatorBytes);
  EXPECT_EQ(s64.peakAccumulatorBytes, s1.peakAccumulatorBytes);
}

TEST(StreamingPostmortem, NullBlameYieldsEmptyReportLikeFastPath) {
  sampling::RunLog log = makeLog();
  auto c = fe::Compilation::fromString(
      "t.chpl",
      "const D = {0..#64};\nvar A: [D] real;\nproc main() { forall i in D { var t = 0.0; for j "
      "in 0..#30 { t += i * j; } A[i] = t; } }");
  ASSERT_TRUE(c->ok());
  std::string data = sampling::serializeRunLogBinary(log);
  sampling::RunLogStreamer s;
  s.openString(data);
  pm::BlameReport out;
  pm::StreamingPostmortemStats stats;
  ASSERT_TRUE(pm::runPostmortemStreaming(c->module(), nullptr, s, {}, out, nullptr, &stats));
  EXPECT_TRUE(out == pm::BlameReport{});
  EXPECT_EQ(stats.samples, log.samples.size());
}

TEST(StreamingPostmortem, RejectsCorruptLogs) {
  pm::BlameReport out;
  Profiler p = test::profileSource("proc main() { var x = 1; writeln(x); }");
  std::string path = writeTemp("cb_stream_bad.cblog", "not a log at all");
  EXPECT_FALSE(pm::runPostmortemStreamingFile(p.compilation()->module(), p.moduleBlame(),
                                              path, {}, out));
  std::remove(path.c_str());
  EXPECT_FALSE(pm::runPostmortemStreamingFile(p.compilation()->module(), p.moduleBlame(),
                                              ::testing::TempDir() + "/cb_no_such_file", {},
                                              out));
}

}  // namespace
}  // namespace cb
