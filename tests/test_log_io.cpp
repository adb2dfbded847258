// Tests of run-log serialization (the monitor's on-disk dataset).
#include <gtest/gtest.h>

#include <cstdio>

#include "postmortem/attribution.h"
#include "postmortem/instance.h"
#include "sampling/log_io.h"
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

TEST(LogIo, RoundTripPreservesEverything) {
  sampling::RunLog log = makeLog();
  std::string text = sampling::serializeRunLog(log);
  sampling::RunLog back;
  ASSERT_TRUE(sampling::deserializeRunLog(text, back));
  EXPECT_EQ(back.sampleThreshold, log.sampleThreshold);
  EXPECT_EQ(back.numStreams, log.numStreams);
  EXPECT_EQ(back.totalCycles, log.totalCycles);
  ASSERT_EQ(back.samples.size(), log.samples.size());
  for (size_t i = 0; i < log.samples.size(); ++i) {
    EXPECT_EQ(back.samples[i].stream, log.samples[i].stream);
    EXPECT_EQ(back.samples[i].taskTag, log.samples[i].taskTag);
    EXPECT_EQ(back.samples[i].atCycle, log.samples[i].atCycle);
    EXPECT_EQ(back.samples[i].runtimeFrame, log.samples[i].runtimeFrame);
    EXPECT_EQ(back.samples[i].stack, log.samples[i].stack);
  }
  EXPECT_EQ(back.spawns.size(), log.spawns.size());
  EXPECT_EQ(back.allocBytesBySite, log.allocBytesBySite);
}

TEST(LogIo, FileRoundTrip) {
  sampling::RunLog log = makeLog();
  std::string path = ::testing::TempDir() + "/cb_log_io_test.cblog";
  ASSERT_TRUE(sampling::saveRunLog(log, path));
  sampling::RunLog back;
  ASSERT_TRUE(sampling::loadRunLog(path, back));
  EXPECT_EQ(back.samples.size(), log.samples.size());
  std::remove(path.c_str());
}

TEST(LogIo, RejectsGarbage) {
  sampling::RunLog out;
  EXPECT_FALSE(sampling::deserializeRunLog("", out));
  EXPECT_FALSE(sampling::deserializeRunLog("not a log\n", out));
  EXPECT_FALSE(sampling::deserializeRunLog("cblog 99 1 1 1\n", out));
  EXPECT_FALSE(sampling::deserializeRunLog("cblog 1 1 1 1\nX nonsense\n", out));
}

TEST(LogIo, ReloadedLogAttributesIdentically) {
  // Post-mortem over a reloaded log must equal post-mortem over the live
  // one (the paper's step 3 runs from the on-disk dataset).
  Profiler p;
  p.options().run.sampleThreshold = 101;
  ASSERT_TRUE(p.compileFile(assetProgram("example")) && p.analyze() && p.run() &&
              p.postProcess())
      << p.lastError();
  std::string text = sampling::serializeRunLog(p.runResult()->log);
  sampling::RunLog back;
  ASSERT_TRUE(sampling::deserializeRunLog(text, back));
  auto instances = pm::consolidate(p.compilation()->module(), back);
  pm::BlameReport report = pm::attribute(*p.moduleBlame(), instances);
  ASSERT_EQ(report.rows.size(), p.blameReport()->rows.size());
  for (size_t i = 0; i < report.rows.size(); ++i) {
    EXPECT_EQ(report.rows[i].name, p.blameReport()->rows[i].name);
    EXPECT_EQ(report.rows[i].sampleCount, p.blameReport()->rows[i].sampleCount);
  }
}

// ---------------------------------------------------------------------------
// Property suite: random logs round-trip through the serializer unchanged.
// ---------------------------------------------------------------------------

void expectLogsEqual(const sampling::RunLog& a, const sampling::RunLog& b) {
  EXPECT_EQ(a.sampleThreshold, b.sampleThreshold);
  EXPECT_EQ(a.numStreams, b.numStreams);
  EXPECT_EQ(a.totalCycles, b.totalCycles);
  EXPECT_EQ(a.commGets, b.commGets);
  EXPECT_EQ(a.commPuts, b.commPuts);
  EXPECT_EQ(a.commOnForks, b.commOnForks);
  EXPECT_EQ(a.commAggGets, b.commAggGets);
  EXPECT_EQ(a.commAggPuts, b.commAggPuts);
  EXPECT_EQ(a.commAggFlushes, b.commAggFlushes);
  EXPECT_EQ(a.commMatrix, b.commMatrix);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].stream, b.samples[i].stream) << "sample " << i;
    EXPECT_EQ(a.samples[i].taskTag, b.samples[i].taskTag) << "sample " << i;
    EXPECT_EQ(a.samples[i].atCycle, b.samples[i].atCycle) << "sample " << i;
    EXPECT_EQ(a.samples[i].runtimeFrame, b.samples[i].runtimeFrame) << "sample " << i;
    EXPECT_EQ(a.samples[i].accessKind, b.samples[i].accessKind) << "sample " << i;
    EXPECT_EQ(a.samples[i].srcLocale, b.samples[i].srcLocale) << "sample " << i;
    EXPECT_EQ(a.samples[i].dstLocale, b.samples[i].dstLocale) << "sample " << i;
    EXPECT_EQ(a.samples[i].stack, b.samples[i].stack) << "sample " << i;
  }
  ASSERT_EQ(a.spawns.size(), b.spawns.size());
  for (const auto& [tag, rec] : a.spawns) {
    auto it = b.spawns.find(tag);
    ASSERT_NE(it, b.spawns.end()) << "tag " << tag;
    EXPECT_EQ(rec.parentTag, it->second.parentTag);
    EXPECT_EQ(rec.taskFn, it->second.taskFn);
    EXPECT_EQ(rec.spawnInstr, it->second.spawnInstr);
    EXPECT_EQ(rec.preSpawnStack, it->second.preSpawnStack);
  }
  EXPECT_EQ(a.allocBytesBySite, b.allocBytesBySite);
}

class PropertyLogIoRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyLogIoRoundTrip, RandomLogsSurviveSerializeParse) {
  // Serialization needs no module: func/instr ids are opaque integers here.
  Rng rng(GetParam());
  auto randomStack = [&](size_t maxDepth) {
    std::vector<sampling::Frame> stack;
    size_t depth = rng.nextBounded(maxDepth + 1);
    for (size_t i = 0; i < depth; ++i) {
      sampling::Frame f;
      f.func = static_cast<ir::FuncId>(rng.nextBounded(1000));
      f.instr = static_cast<ir::InstrId>(rng.nextBounded(5000));
      stack.push_back(f);
    }
    return stack;
  };

  for (int trial = 0; trial < 16; ++trial) {
    sampling::RunLog log;
    log.sampleThreshold = rng.next();
    log.numStreams = static_cast<uint32_t>(rng.nextBounded(64));
    log.totalCycles = rng.next();

    // Deep spawn-tag chain: tag k parents tag k-1 (chain of length numTags).
    uint64_t numTags = rng.nextBounded(40);
    for (uint64_t tag = 1; tag <= numTags; ++tag) {
      sampling::SpawnRecord rec;
      rec.tag = tag;
      rec.parentTag = tag - 1;
      rec.taskFn = static_cast<ir::FuncId>(rng.nextBounded(1000));
      rec.spawnInstr = static_cast<ir::InstrId>(rng.nextBounded(5000));
      rec.preSpawnStack = randomStack(8);  // may be empty
      log.spawns.emplace(tag, std::move(rec));
    }

    uint64_t numSamples = rng.nextBounded(200);
    for (uint64_t i = 0; i < numSamples; ++i) {
      sampling::RawSample s;
      s.stream = static_cast<uint32_t>(rng.nextBounded(64));
      s.atCycle = rng.next();
      if (rng.nextBounded(5) == 0) {
        // Idle runtime-frame sample: empty stack by construction.
        s.runtimeFrame = static_cast<sampling::RuntimeFrameKind>(1 + rng.nextBounded(3));
      } else {
        s.taskTag = numTags ? rng.nextBounded(numTags + 1) : 0;
        s.stack = randomStack(10);  // empty-stack edge case included
        s.accessKind = static_cast<sampling::AccessKind>(rng.nextBounded(4));
        if (s.accessKind == sampling::AccessKind::RemoteGet ||
            s.accessKind == sampling::AccessKind::RemotePut) {
          // The locale pair is only meaningful for remote accesses.
          s.srcLocale = static_cast<int32_t>(rng.nextBounded(64));
          s.dstLocale = static_cast<int32_t>((s.srcLocale + 1 + rng.nextBounded(63)) % 64);
        }
      }
      log.samples.push_back(std::move(s));
    }

    uint64_t numSites = rng.nextBounded(20);
    for (uint64_t i = 0; i < numSites; ++i)
      log.allocBytesBySite[rng.next()] = rng.next();

    // Exact comm counters and a sparse random comm matrix.
    log.commGets = rng.nextBounded(100000);
    log.commPuts = rng.nextBounded(100000);
    log.commOnForks = rng.nextBounded(1000);
    log.commAggGets = rng.nextBounded(100000);
    log.commAggPuts = rng.nextBounded(100000);
    log.commAggFlushes = rng.nextBounded(10000);
    for (uint64_t i = 0, n = rng.nextBounded(12); i < n; ++i) {
      int64_t src = static_cast<int64_t>(rng.nextBounded(64));
      int64_t dst = static_cast<int64_t>((src + 1 + rng.nextBounded(63)) % 64);
      log.commMatrix[sampling::RunLog::pairKey(src, dst)] = 1 + rng.nextBounded(1 << 20);
    }

    sampling::RunLog back;
    ASSERT_TRUE(sampling::deserializeRunLog(sampling::serializeRunLog(log), back))
        << "trial " << trial;
    expectLogsEqual(log, back);
  }
}

TEST_P(PropertyLogIoRoundTrip, SecondRoundTripIsAFixedPoint) {
  // parse(serialize(x)) is a fixed point: running the trip twice changes
  // nothing (spawn/alloc map iteration order may shuffle lines, but the
  // parsed structure must be stable).
  Rng rng(GetParam() ^ 0xABCDEFull);
  sampling::RunLog log;
  log.sampleThreshold = 101;
  log.numStreams = 4;
  for (uint64_t tag = 1; tag <= 12; ++tag) {
    sampling::SpawnRecord rec;
    rec.tag = tag;
    rec.parentTag = tag / 2;
    rec.preSpawnStack.push_back({static_cast<ir::FuncId>(rng.nextBounded(10)),
                                 static_cast<ir::InstrId>(rng.nextBounded(100))});
    log.spawns.emplace(tag, std::move(rec));
  }
  std::string once = sampling::serializeRunLog(log);
  sampling::RunLog back;
  ASSERT_TRUE(sampling::deserializeRunLog(once, back));
  std::string twice = sampling::serializeRunLog(back);
  sampling::RunLog back2;
  ASSERT_TRUE(sampling::deserializeRunLog(twice, back2));
  expectLogsEqual(back, back2);
}

TEST_P(PropertyLogIoRoundTrip, RandomLogsSurviveBinaryRoundTrip) {
  Rng rng(GetParam() ^ 0xB19A2Full);
  for (int trial = 0; trial < 16; ++trial) {
    sampling::RunLog log;
    log.sampleThreshold = rng.next();
    log.numStreams = static_cast<uint32_t>(rng.nextBounded(64));
    log.totalCycles = rng.next();
    uint64_t numSamples = rng.nextBounded(120);
    for (uint64_t i = 0; i < numSamples; ++i) {
      sampling::RawSample s;
      s.stream = static_cast<uint32_t>(rng.nextBounded(64));
      s.taskTag = rng.nextBounded(40);
      s.atCycle = rng.next();  // random order: deltas exercise negatives
      s.accessKind = static_cast<sampling::AccessKind>(rng.nextBounded(4));
      if (s.accessKind == sampling::AccessKind::RemoteGet ||
          s.accessKind == sampling::AccessKind::RemotePut) {
        s.srcLocale = static_cast<int32_t>(rng.nextBounded(1024));
        s.dstLocale = static_cast<int32_t>((s.srcLocale + 1) % 1024);
      }
      size_t depth = rng.nextBounded(10);
      for (size_t d = 0; d < depth; ++d)
        s.stack.push_back({static_cast<ir::FuncId>(rng.nextBounded(1000)),
                           static_cast<ir::InstrId>(rng.nextBounded(5000))});
      log.samples.push_back(std::move(s));
    }
    log.commGets = rng.nextBounded(1 << 20);
    log.commAggPuts = rng.nextBounded(1 << 20);
    log.commAggFlushes = rng.nextBounded(1 << 12);
    for (uint64_t i = 0, n = rng.nextBounded(10); i < n; ++i)
      log.commMatrix[sampling::RunLog::pairKey(static_cast<int64_t>(rng.nextBounded(512)),
                                               static_cast<int64_t>(rng.nextBounded(512)))] =
          1 + rng.nextBounded(1 << 16);
    uint64_t numTags = rng.nextBounded(30);
    for (uint64_t tag = 1; tag <= numTags; ++tag) {
      sampling::SpawnRecord rec;
      rec.tag = tag * 3 + rng.nextBounded(2);  // non-contiguous tags
      rec.parentTag = rng.nextBounded(tag);
      rec.taskFn = static_cast<ir::FuncId>(rng.nextBounded(1000));
      rec.spawnInstr = static_cast<ir::InstrId>(rng.nextBounded(5000));
      uint64_t t = rec.tag;
      log.spawns.emplace(t, std::move(rec));
    }
    for (uint64_t i = 0, n = rng.nextBounded(20); i < n; ++i)
      log.allocBytesBySite[rng.next()] = rng.next();

    std::string bin = sampling::serializeRunLogBinary(log);
    sampling::RunLog back;
    ASSERT_TRUE(sampling::deserializeRunLog(bin, back)) << "trial " << trial;
    expectLogsEqual(log, back);
    // The binary encoding is a deterministic function of the contents:
    // re-serializing the parsed log reproduces the bytes exactly.
    EXPECT_EQ(sampling::serializeRunLogBinary(back), bin) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyLogIoRoundTrip,
                         ::testing::Values(7ull, 1234ull, 0xDEADBEEFull));

// ---------------------------------------------------------------------------
// Binary format: cross-format identity, auto-detection, rejection paths.
// ---------------------------------------------------------------------------

TEST(LogIoBinary, TextToBinaryToTextIsTheIdentity) {
  sampling::RunLog log = makeLog();
  // text -> parse -> binary -> parse: structurally identical to the source.
  std::string text = sampling::serializeRunLog(log);
  sampling::RunLog fromText;
  ASSERT_TRUE(sampling::deserializeRunLog(text, fromText));
  std::string bin = sampling::serializeRunLogBinary(fromText);
  sampling::RunLog fromBin;
  ASSERT_TRUE(sampling::deserializeRunLog(bin, fromBin));
  expectLogsEqual(fromText, fromBin);
  expectLogsEqual(log, fromBin);
  // And the regenerated text parses back to the same structure again.
  sampling::RunLog again;
  ASSERT_TRUE(sampling::deserializeRunLog(sampling::serializeRunLog(fromBin), again));
  expectLogsEqual(fromBin, again);
}

TEST(LogIoBinary, FileRoundTripAutoDetects) {
  sampling::RunLog log = makeLog();
  std::string path = ::testing::TempDir() + "/cb_log_io_test_bin.cblog";
  ASSERT_TRUE(sampling::saveRunLog(log, path, sampling::RunLogFormat::Binary));
  sampling::RunLog back;
  ASSERT_TRUE(sampling::loadRunLog(path, back));  // no format hint needed
  expectLogsEqual(log, back);
  std::remove(path.c_str());
}

TEST(LogIoBinary, RejectsTruncation) {
  sampling::RunLog log = makeLog();
  std::string bin = sampling::serializeRunLogBinary(log);
  ASSERT_GT(bin.size(), 16u);
  sampling::RunLog out;
  // Every strict prefix is malformed: record counts are declared up front,
  // so a clean cut mid-stream still leaves missing records.
  for (size_t len : {size_t{0}, size_t{3}, size_t{4}, size_t{5}, size_t{8}, bin.size() / 4,
                     bin.size() / 2, bin.size() - 1})
    EXPECT_FALSE(sampling::deserializeRunLog(bin.substr(0, len), out)) << "prefix " << len;
  // Trailing garbage after a well-formed stream is rejected too.
  EXPECT_FALSE(sampling::deserializeRunLog(bin + "x", out));
  EXPECT_TRUE(sampling::deserializeRunLog(bin, out));
}

TEST(LogIoBinary, RejectsVersionMismatchAndCorruptMagic) {
  sampling::RunLog log = makeLog();
  std::string bin = sampling::serializeRunLogBinary(log);
  sampling::RunLog out;
  std::string wrongVersion = bin;
  wrongVersion[4] = 0x7F;  // unsupported future version
  EXPECT_FALSE(sampling::deserializeRunLog(wrongVersion, out));
  std::string wrongMagic = bin;
  wrongMagic[1] = 'X';  // no longer binary; not valid text either
  EXPECT_FALSE(sampling::deserializeRunLog(wrongMagic, out));
}

TEST(LogIoBinary, CorruptedBytesNeverCrash) {
  // Flipped bytes may decode to a different (valid) log or be rejected —
  // either way the parser must stay in-bounds and terminate.
  sampling::RunLog log = makeLog();
  std::string bin = sampling::serializeRunLogBinary(log);
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bin;
    size_t pos = 5 + rng.nextBounded(mutated.size() - 5);  // keep magic+version
    mutated[pos] = static_cast<char>(rng.nextBounded(256));
    sampling::RunLog out;
    sampling::deserializeRunLog(mutated, out);  // must not hang or fault
  }
}

// ---------------------------------------------------------------------------
// v3 comm channel: logs carrying locale pairs, aggregated-transfer counters
// and the exact comm matrix survive both formats; v1 AND v2 fixtures (text
// and hand-assembled binary) still load with the newer fields defaulted.
// ---------------------------------------------------------------------------

/// A log with live v3 payload: a 4-locale aggregated ig rank — remote
/// samples with locale pairs, agg counters, a populated comm matrix.
sampling::RunLog makeCommLog() {
  auto c = fe::Compilation::fromFile(assetProgram("ig_agg"), {});
  EXPECT_TRUE(c->ok()) << c->diags().renderAll();
  rt::RunOptions o;
  o.sampleThreshold = 997;
  o.numLocales = 4;
  o.localeId = 1;
  o.configOverrides["hereId"] = "1";
  rt::RunResult r = rt::execute(c->module(), o);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.log.commAggGets, 0u);
  EXPECT_GT(r.log.commAggFlushes, 0u);
  EXPECT_FALSE(r.log.commMatrix.empty());
  return r.log;
}

TEST(LogIoV3, CommLogRoundTripsTextAndBinary) {
  sampling::RunLog log = makeCommLog();
  // The payload must be non-trivial or this test is vacuous: at least one
  // sample must carry a remote classification with a real locale pair.
  bool sawRemotePair = false;
  for (const sampling::RawSample& s : log.samples)
    if ((s.accessKind == sampling::AccessKind::RemoteGet ||
         s.accessKind == sampling::AccessKind::RemotePut) &&
        s.srcLocale != s.dstLocale)
      sawRemotePair = true;
  EXPECT_TRUE(sawRemotePair);

  sampling::RunLog fromText, fromBin;
  ASSERT_TRUE(sampling::deserializeRunLog(sampling::serializeRunLog(log), fromText));
  expectLogsEqual(log, fromText);
  std::string bin = sampling::serializeRunLogBinary(log);
  ASSERT_TRUE(sampling::deserializeRunLog(bin, fromBin));
  expectLogsEqual(log, fromBin);
  EXPECT_EQ(sampling::serializeRunLogBinary(fromBin), bin);  // deterministic encoding
}

TEST(LogIoV3, TruncatedAndCorruptedCommLogsNeverCrash) {
  sampling::RunLog log = makeCommLog();
  std::string bin = sampling::serializeRunLogBinary(log);
  sampling::RunLog out;
  for (size_t len : {size_t{0}, size_t{4}, size_t{5}, bin.size() / 3, bin.size() / 2,
                     bin.size() - 2, bin.size() - 1})
    EXPECT_FALSE(sampling::deserializeRunLog(bin.substr(0, len), out)) << "prefix " << len;
  EXPECT_FALSE(sampling::deserializeRunLog(bin + std::string(1, '\0'), out));
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bin;
    size_t pos = 5 + rng.nextBounded(mutated.size() - 5);  // keep magic+version
    mutated[pos] = static_cast<char>(rng.nextBounded(256));
    sampling::RunLog ignored;
    sampling::deserializeRunLog(mutated, ignored);  // must stay in-bounds
  }
  // Text truncation: cutting a line mid-token must not parse.
  std::string text = sampling::serializeRunLog(log);
  EXPECT_FALSE(sampling::deserializeRunLog(text.substr(0, text.size() / 2) + "Z", out));
}

TEST(LogIoCompat, Version1TextStillLoads) {
  // A frozen v1 fixture: header has no comm counters, samples have no
  // access kind and no locale pair, and there are no M lines.
  const std::string v1 =
      "cblog 1 101 2 5000\n"
      "S 0 0 150 0 2 3:7 4:9\n"
      "S 1 2 300 1 0\n"
      "W 2 0 5 11 1 3:7\n"
      "A 77 4096\n";
  sampling::RunLog log;
  ASSERT_TRUE(sampling::deserializeRunLog(v1, log));
  EXPECT_EQ(log.sampleThreshold, 101u);
  EXPECT_EQ(log.numStreams, 2u);
  EXPECT_EQ(log.totalCycles, 5000u);
  ASSERT_EQ(log.samples.size(), 2u);
  EXPECT_EQ(log.samples[0].stack.size(), 2u);
  EXPECT_EQ(log.samples[1].runtimeFrame, sampling::RuntimeFrameKind::SchedYield);
  EXPECT_EQ(log.spawns.size(), 1u);
  EXPECT_EQ(log.allocBytesBySite.at(77), 4096u);
  // Every newer field defaults.
  EXPECT_EQ(log.commGets, 0u);
  EXPECT_EQ(log.commAggGets, 0u);
  EXPECT_EQ(log.commAggFlushes, 0u);
  EXPECT_TRUE(log.commMatrix.empty());
  for (const sampling::RawSample& s : log.samples) {
    EXPECT_EQ(s.accessKind, sampling::AccessKind::None);
    EXPECT_EQ(s.srcLocale, 0);
    EXPECT_EQ(s.dstLocale, 0);
  }
}

TEST(LogIoCompat, Version2TextStillLoads) {
  // A frozen v2 fixture: comm counters in the header and a per-sample
  // access kind, but no aggregated counters, no pairs, no matrix.
  const std::string v2 =
      "cblog 2 101 2 5000 10 20 3\n"
      "S 0 0 150 0 2 1 3:7\n"
      "S 0 0 400 0 1 0\n";
  sampling::RunLog log;
  ASSERT_TRUE(sampling::deserializeRunLog(v2, log));
  EXPECT_EQ(log.commGets, 10u);
  EXPECT_EQ(log.commPuts, 20u);
  EXPECT_EQ(log.commOnForks, 3u);
  EXPECT_EQ(log.commAggGets, 0u);
  EXPECT_EQ(log.commAggPuts, 0u);
  EXPECT_EQ(log.commAggFlushes, 0u);
  EXPECT_TRUE(log.commMatrix.empty());
  ASSERT_EQ(log.samples.size(), 2u);
  EXPECT_EQ(log.samples[0].accessKind, sampling::AccessKind::RemoteGet);
  EXPECT_EQ(log.samples[0].srcLocale, 0);  // v2 has no pair channel
  EXPECT_EQ(log.samples[0].dstLocale, 0);
  EXPECT_EQ(log.samples[1].accessKind, sampling::AccessKind::Local);
  // A version from the future is rejected, not misparsed.
  EXPECT_FALSE(sampling::deserializeRunLog("cblog 7 1 1 1 1 1 1 1 1 1 1 1 1 1\n", log));
}

TEST(LogIoCompat, Version3TextStillLoads) {
  // A frozen v3 fixture: aggregated counters and the comm matrix, but no
  // bandwidth-stall counters in the header.
  const std::string v3 =
      "cblog 3 101 2 5000 10 20 3 7 8 2\n"
      "S 0 0 150 0 2 0 1 1 3:7\n"
      "M 0 1 64\n";
  sampling::RunLog log;
  ASSERT_TRUE(sampling::deserializeRunLog(v3, log));
  EXPECT_EQ(log.commAggGets, 7u);
  EXPECT_EQ(log.commAggPuts, 8u);
  EXPECT_EQ(log.commAggFlushes, 2u);
  EXPECT_EQ(log.commMemStallCycles, 0u);
  EXPECT_EQ(log.commNetStallCycles, 0u);
  EXPECT_EQ(log.commContentionCycles, 0u);
  ASSERT_EQ(log.samples.size(), 1u);
  EXPECT_EQ(log.commMatrix.at(sampling::RunLog::pairKey(0, 1)), 64u);
}

// ---------------------------------------------------------------------------
// Text grammar (log_io.h): exactly what serializeRunLog writes is accepted.
// ---------------------------------------------------------------------------

constexpr const char* kV6Header = "cblog 6 101 2 5000 0 0 0 0 0 0 0 0 0 0\n";

TEST(LogIoText, OversizedCountsAreMalformed) {
  sampling::RunLog out;
  for (const char* record : {
           "S 0 0 150 0 0 0 0 18446744073709551615 0:1\n",  // frame count
           "S 0 0 150 0 0 0 0 99 0:1\n",                    // more than the line holds
           "W 1 0 0 0 4611686018427387904 0:1\n",           // spawn frame count
           "T 0 0 0 0 10 18446744073709551615 0:1:1:1:1\n",  // site count
           "T 0 0 0 0 10 99 0:1:1:1:1\n",
       })
    EXPECT_FALSE(sampling::deserializeRunLog(std::string(kV6Header) + record, out)) << record;
}

TEST(LogIoText, RejectsCorruptTokens) {
  sampling::RunLog out;
  // Each record is well-formed but for the named defect, which the seed's
  // stream-based parser let through (mostly as frame 0:0 or a wrapped value).
  for (const char* record : {
           "S 0 0 150 0 0 0 0 1 0:1 trailing junk\n",  // trailing tokens
           "S 0 0 150 0 0 0 0 1 x:y\n",                // non-numeric frame
           "S 0 0 150 0 0 0 0 1 0:1x\n",               // junk glued to a token
           "S 0 0 150 0 0 0 0 1 0\n",                  // frame without ':'
           "S 0 0 -150 0 0 0 0 0\n",                   // minus on an unsigned field
           "S 0 0 +150 0 0 0 0 0\n",                   // plus sign
           "S 0 0 150 -1 0 0 0 0\n",                   // negative runtime frame kind
           "S 0 0 150 0 4 0 0 0\n",                    // access kind out of range
           "S 0 0 150 256 0 0 0 0\n",                  // runtime frame kind out of range
           "S 4294967296 0 150 0 0 0 0 0\n",           // stream overflows 32 bits
           "S 0 0 150 0 0 0 0 1 4294967296:0\n",       // func overflows 32 bits
           "S  0 0 150 0 0 0 0 0\n",                   // doubled space
           "S\t0 0 150 0 0 0 0 0\n",                   // tab separator
           "S 0 0 150 0 0 0 0 0 \n",                   // trailing space
           "S 0 0 150 0 0 0 0 0\r\n",                  // CRLF line ending
           " S 0 0 150 0 0 0 0 0\n",                   // leading space
           "W 1 0 0 0 1 -3:7\n",                       // minus in a spawn frame
           "A 77 4096 1\n",                            // trailing alloc token
           "A -77 4096\n",                             // minus on an alloc key
           "M 0 1 64 0\n",                             // trailing matrix token
           "M 0 4294967296 64\n",                      // locale overflows 32 bits
           "T 0 0 0 0 10 1 0:1:1:1\n",                 // four-field site
           "T 0 0 0 0 10 1 0:1:1:1:1:1\n",             // six-field site
           "T 0 0 0 10 0 0\n",                         // end before start
           "\n",                                       // empty line
       })
    EXPECT_FALSE(sampling::deserializeRunLog(std::string(kV6Header) + record, out)) << record;
  EXPECT_FALSE(sampling::deserializeRunLog("cblog 6 101 2 5000 0 0 0 0 0 0 0 0 0 0 9\n", out));
  EXPECT_FALSE(sampling::deserializeRunLog("cblog 1 101 2 5000 7\n", out));
  EXPECT_FALSE(sampling::deserializeRunLog("cblogx 1 101 2 5000\n", out));
  // The forms serializeRunLog writes still load, including a signed locale.
  ASSERT_TRUE(sampling::deserializeRunLog(
      std::string(kV6Header) + "S 0 3 150 0 2 -1 1 2 0:1 4:9\nM -1 1 64\nT 0 0 0 0 10 1 " +
          "0:10:8:5:3",
      out));
  ASSERT_EQ(out.samples.size(), 1u);
  EXPECT_EQ(out.samples[0].srcLocale, -1);
  EXPECT_EQ(out.samples[0].stack.size(), 2u);
  EXPECT_EQ(out.commMatrix.at(sampling::RunLog::pairKey(-1, 1)), 64u);
  ASSERT_EQ(out.taskSpans.size(), 1u);
  EXPECT_EQ(out.taskSpans[0].sites[0].s4, 3u);
}

/// Minimal varint writer mirroring the on-disk encoding, for assembling
/// frozen old-version binary fixtures by hand.
void putV(std::string& s, uint64_t v) {
  while (v >= 0x80) {
    s.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  s.push_back(static_cast<char>(v));
}
uint64_t zz(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

TEST(LogIoCompat, Version1BinaryStillLoads) {
  std::string bin("\x89"
                  "CBL",
                  4);
  bin.push_back(1);  // version 1
  putV(bin, 101);    // threshold
  putV(bin, 2);      // streams
  putV(bin, 5000);   // cycles — v1 header ends here
  putV(bin, 1);      // one sample
  putV(bin, 0);      // stream
  putV(bin, 0);      // taskTag
  putV(bin, zz(150));  // cycle delta
  putV(bin, 0);      // runtime frame — v1 sample has no access kind
  putV(bin, 1);      // one frame
  putV(bin, zz(3));
  putV(bin, zz(7));
  putV(bin, 0);      // no spawns
  putV(bin, 1);      // one alloc site
  putV(bin, zz(77));
  putV(bin, 4096);   // v1 ends here: no comm matrix section
  sampling::RunLog log;
  ASSERT_TRUE(sampling::deserializeRunLog(bin, log));
  EXPECT_EQ(log.sampleThreshold, 101u);
  ASSERT_EQ(log.samples.size(), 1u);
  EXPECT_EQ(log.samples[0].atCycle, 150u);
  EXPECT_EQ(log.samples[0].accessKind, sampling::AccessKind::None);
  EXPECT_EQ(log.allocBytesBySite.at(77), 4096u);
  EXPECT_EQ(log.commGets, 0u);
  EXPECT_EQ(log.commAggGets, 0u);
  EXPECT_TRUE(log.commMatrix.empty());
}

TEST(LogIoCompat, Version2BinaryStillLoads) {
  std::string bin("\x89"
                  "CBL",
                  4);
  bin.push_back(2);  // version 2
  putV(bin, 101);
  putV(bin, 2);
  putV(bin, 5000);
  putV(bin, 10);     // commGets
  putV(bin, 20);     // commPuts
  putV(bin, 3);      // commOnForks — v2 header ends here
  putV(bin, 1);      // one sample
  putV(bin, 0);
  putV(bin, 0);
  putV(bin, zz(150));
  putV(bin, 0);      // runtime frame
  putV(bin, 2);      // access kind RemoteGet — v2 encodes NO pair after it
  putV(bin, 0);      // empty stack
  putV(bin, 0);      // no spawns
  putV(bin, 0);      // no alloc sites — v2 ends here: no matrix section
  sampling::RunLog log;
  ASSERT_TRUE(sampling::deserializeRunLog(bin, log));
  EXPECT_EQ(log.commGets, 10u);
  EXPECT_EQ(log.commPuts, 20u);
  EXPECT_EQ(log.commOnForks, 3u);
  EXPECT_EQ(log.commAggGets, 0u);
  ASSERT_EQ(log.samples.size(), 1u);
  EXPECT_EQ(log.samples[0].accessKind, sampling::AccessKind::RemoteGet);
  EXPECT_EQ(log.samples[0].srcLocale, 0);
  EXPECT_EQ(log.samples[0].dstLocale, 0);
  EXPECT_TRUE(log.commMatrix.empty());
}

/// The acceptance gate: on each paper benchmark, the binary log is lossless
/// against the text format and strictly smaller on disk.
class PropertyBinaryLogCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(PropertyBinaryLogCorpus, LosslessAndSmallerThanText) {
  Profiler p;
  p.options().run.sampleThreshold = 997;
  ASSERT_TRUE(p.compileFile(assetProgram(GetParam())) && p.analyze() && p.run())
      << p.lastError();
  const sampling::RunLog& log = p.runResult()->log;
  ASSERT_FALSE(log.samples.empty());

  std::string text = sampling::serializeRunLog(log);
  std::string bin = sampling::serializeRunLogBinary(log);
  sampling::RunLog fromText, fromBin;
  ASSERT_TRUE(sampling::deserializeRunLog(text, fromText));
  ASSERT_TRUE(sampling::deserializeRunLog(bin, fromBin));
  expectLogsEqual(fromText, fromBin);
  expectLogsEqual(log, fromBin);
  EXPECT_LT(bin.size(), text.size())
      << GetParam() << ": binary " << bin.size() << "B vs text " << text.size() << "B";
}

INSTANTIATE_TEST_SUITE_P(Programs, PropertyBinaryLogCorpus,
                         ::testing::Values("minimd", "clomp", "lulesh"));

TEST(SelectWhen, LowersAndRuns) {
  EXPECT_EQ(test::runOutput(R"(proc label(x: int): int {
  var out = 0;
  select x {
    when 1, 2 { out = 10; }
    when 3 { out = 30; }
    otherwise { out = 99; }
  }
  return out;
}
proc main() { writeln(label(1), label(2), label(3), label(7)); }
)"),
            "10 10 30 99\n");
}

TEST(SelectWhen, ImplicitBlameFromSelector) {
  // §IV.A: select-when creates implicit transfer like if: variables written
  // in when-arms take the select line into their blame sets.
  Profiler p = test::profileSource(R"(proc main() {
  var x = 2;
  var out = 0;
  select x {
    when 2 { out = 5; }
    otherwise { out = 1; }
  }
  writeln(out);
}
)");
  auto lines = test::blameLinesOf(p, "main", "out", 1, 9);
  EXPECT_TRUE(lines.count(4) || lines.count(5)) << "select/when control lines must blame out";
}

}  // namespace
}  // namespace cb
