// Multi-locale PGAS simulation tests: the comm split of variable blame
// (compute / local / remote GET / remote PUT), the distribution-mismatch
// acceptance scenario (remote blame collapses to local when a Cyclic array
// is redistributed Block), surfacing of ALL failing locales with partial
// reports kept, and golden fixtures for the comm / per-locale views at 4
// locales (regenerate with `cb_tests --update-golden`).
//
// Suite naming feeds the CTest labels (tests/CMakeLists.txt):
// MultiLocale*.* carries the `multilocale` label.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "cb_config.h"
#include "report/views.h"
#include "sampling/sample.h"
#include "test_util.h"

namespace cb {
namespace {

/// One 4-locale profile per program per binary invocation — the multi-locale
/// pipeline is deterministic, so every test can share the cached result.
const MultiLocaleResult& profiled4(const std::string& program) {
  static std::map<std::string, MultiLocaleResult> cache;
  auto it = cache.find(program);
  if (it == cache.end())
    it = cache.emplace(program, profileMultiLocale(assetProgram(program), 4)).first;
  return it->second;
}

// ---------------------------------------------------------------------------
// Comm split invariants.
// ---------------------------------------------------------------------------

TEST(MultiLocaleComm, SplitFieldsPartitionSampleCount) {
  const MultiLocaleResult& r = profiled4("minimd_badloc");
  ASSERT_TRUE(r.ok) << r.error;
  auto checkReport = [](const pm::BlameReport& rep, const std::string& what) {
    ASSERT_FALSE(rep.rows.empty()) << what;
    for (const pm::VariableBlame& row : rep.rows) {
      EXPECT_EQ(row.computeSamples + row.localSamples + row.remoteGetSamples +
                    row.remotePutSamples,
                row.sampleCount)
          << what << ": " << row.name;
    }
  };
  checkReport(r.aggregate, "aggregate");
  for (size_t l = 0; l < r.perLocale.size(); ++l)
    checkReport(r.perLocale[l], "locale " + std::to_string(l));
}

TEST(MultiLocaleComm, SingleLocaleRunsHaveNoRemoteBlame) {
  // With one locale every distributed index is owned locally: no GETs, no
  // PUTs, anywhere — in the exact comm counters or in the blame split.
  Profiler p;
  ASSERT_TRUE(p.profileFile(assetProgram("minimd_badloc"))) << p.lastError();
  EXPECT_EQ(p.runResult()->log.commGets, 0u);
  EXPECT_EQ(p.runResult()->log.commPuts, 0u);
  EXPECT_EQ(p.runResult()->log.commOnForks, 0u);
  for (const pm::VariableBlame& row : p.blameReport()->rows)
    EXPECT_EQ(row.remoteSamples(), 0u) << row.name;
}

TEST(MultiLocaleComm, MisdistributionShowsUpAsRemoteBlame) {
  // The acceptance scenario: the Cyclic-distributed variant iterated in
  // block chunks must show the position/force arrays dominated by remote
  // blame; the Block-distributed twin shifts most of it back to local.
  // The twin still pays for its window-edge halo (the i-2..i+2 neighbor
  // reads that cross locale borders), and remote latency dwarfs local
  // access costs, so its residual remote share is nonzero — the robust
  // signals are the wide share gap and the collapse of the remote sample
  // count itself.
  const MultiLocaleResult& bad = profiled4("minimd_badloc");
  const MultiLocaleResult& good = profiled4("minimd_blockloc");
  ASSERT_TRUE(bad.ok) << bad.error;
  ASSERT_TRUE(good.ok) << good.error;
  for (const char* name : {"Pos", "Force"}) {
    const pm::VariableBlame* b = bad.aggregate.find(name);
    const pm::VariableBlame* g = good.aggregate.find(name);
    ASSERT_NE(b, nullptr) << name;
    ASSERT_NE(g, nullptr) << name;
    double badRemote = 100.0 * static_cast<double>(b->remoteSamples()) / b->sampleCount;
    double goodRemote = 100.0 * static_cast<double>(g->remoteSamples()) / g->sampleCount;
    EXPECT_GT(badRemote, 85.0) << name << " should be remote-dominated under Cyclic";
    EXPECT_LT(goodRemote, badRemote - 30.0)
        << name << " should be far less remote under Block";
    EXPECT_GT(b->remoteSamples(), 4 * g->remoteSamples())
        << name << ": Block should collapse the remote sample count";
  }
}

TEST(MultiLocaleComm, OnForksAreCountedPerLocale) {
  // Every SPMD rank executes numSteps * numLocales `on` blocks, of which
  // numLocales - 1 per step target a different locale and fork.
  Profiler p;
  p.options().run.numLocales = 4;
  p.options().run.localeId = 1;
  ASSERT_TRUE(p.profileFile(assetProgram("minimd_badloc"))) << p.lastError();
  EXPECT_EQ(p.runResult()->log.commOnForks, 4u * 3u);  // numSteps=4, 3 remote targets
  EXPECT_GT(p.runResult()->log.commGets, 0u);
  EXPECT_GT(p.runResult()->log.commPuts, 0u);
}

// ---------------------------------------------------------------------------
// Failing locales: ALL of them surface, completed reports are kept.
// ---------------------------------------------------------------------------

TEST(MultiLocaleErrors, AllFailuresSurfacedAndPartialReportsKept) {
  // Locales 1 and 2 divide by zero; locales 0 and 3 complete. The result
  // must name both failures (not just the first) and still aggregate the
  // two completed locales.
  std::string path = ::testing::TempDir() + "cb_multilocale_partial.chpl";
  {
    std::ofstream out(path);
    out << "proc main() {\n"
           "  var s = 0;\n"
           "  for i in 0..#200 { s += i; }\n"
           "  if here.id == 1 { var z = s / (here.id - 1); writeln(z); }\n"
           "  if here.id == 2 { var z = s / (here.id - 2); writeln(z); }\n"
           "  writeln(s);\n"
           "}\n";
  }
  ProfileOptions o;
  o.run.sampleThreshold = 101;  // the program is tiny; make sure it samples
  MultiLocaleResult r = profileMultiLocale(path, 4, o);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.localeErrors.size(), 4u);
  EXPECT_TRUE(r.localeErrors[0].empty()) << r.localeErrors[0];
  EXPECT_FALSE(r.localeErrors[1].empty());
  EXPECT_FALSE(r.localeErrors[2].empty());
  EXPECT_TRUE(r.localeErrors[3].empty()) << r.localeErrors[3];
  EXPECT_NE(r.error.find("locale 1"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("locale 2"), std::string::npos) << r.error;
  // Completed locales keep their reports and drive the aggregate.
  ASSERT_EQ(r.perLocale.size(), 4u);
  EXPECT_FALSE(r.perLocale[0].rows.empty());
  EXPECT_TRUE(r.perLocale[1].rows.empty());
  EXPECT_TRUE(r.perLocale[2].rows.empty());
  EXPECT_FALSE(r.perLocale[3].rows.empty());
  pm::BlameReport expected = pm::aggregateAcrossLocales({&r.perLocale[0], &r.perLocale[3]});
  EXPECT_EQ(r.aggregate, expected);
}

TEST(MultiLocaleErrors, TotalFailureAggregatesToEmpty) {
  std::string path = ::testing::TempDir() + "cb_multilocale_allfail.chpl";
  {
    std::ofstream out(path);
    out << "proc main() { var z = 1 / (numLocales - numLocales); writeln(z); }\n";
  }
  MultiLocaleResult r = profileMultiLocale(path, 3);
  EXPECT_FALSE(r.ok);
  for (const std::string& e : r.localeErrors) EXPECT_FALSE(e.empty());
  EXPECT_TRUE(r.aggregate.rows.empty());
  EXPECT_EQ(r.aggregate.totalRawSamples, 0u);
}

TEST(MultiLocaleErrors, LocaleCountValidation) {
  // The shared validator behind profileMultiLocale and the profile_program
  // --locales flag: 1..kMaxSimulatedLocales pass, 0 and above-cap fail with
  // messages that name the offending value / the cap.
  EXPECT_TRUE(validateLocaleCount(1).empty());
  EXPECT_TRUE(validateLocaleCount(1024).empty());
  EXPECT_TRUE(validateLocaleCount(kMaxSimulatedLocales).empty());
  EXPECT_FALSE(validateLocaleCount(0).empty());
  std::string overCap = validateLocaleCount(kMaxSimulatedLocales + 1ull);
  ASSERT_FALSE(overCap.empty());
  EXPECT_NE(overCap.find(std::to_string(kMaxSimulatedLocales)), std::string::npos) << overCap;
  EXPECT_NE(overCap.find("4097"), std::string::npos) << overCap;
}

TEST(MultiLocaleErrors, InvalidLocaleCountFailsFast) {
  // Rejected before any pipeline spins up: ok=false, the validator's
  // message, and no per-locale slots at all.
  for (uint32_t bad : {0u, kMaxSimulatedLocales + 1u}) {
    MultiLocaleResult r = profileMultiLocale(assetProgram("clomp"), bad);
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_EQ(r.error, validateLocaleCount(bad)) << bad;
    EXPECT_TRUE(r.perLocale.empty()) << bad;
    EXPECT_TRUE(r.localeErrors.empty()) << bad;
    EXPECT_TRUE(r.aggregate.rows.empty()) << bad;
  }
}

TEST(MultiLocaleMemory, DroppedPerLocaleReportsStillAggregate) {
  // keepPerLocaleReports=false is the 1024-locale memory lever: every
  // perLocale slot stays empty, while the streamed aggregate is bit-identical
  // to the retained run's.
  ProfileOptions keep;
  MultiLocaleResult retained = profileMultiLocale(assetProgram("minimd_badloc"), 4, keep);
  ASSERT_TRUE(retained.ok) << retained.error;
  ProfileOptions drop;
  drop.keepPerLocaleReports = false;
  MultiLocaleResult dropped = profileMultiLocale(assetProgram("minimd_badloc"), 4, drop);
  ASSERT_TRUE(dropped.ok) << dropped.error;
  ASSERT_EQ(dropped.perLocale.size(), 4u);
  for (const pm::BlameReport& rep : dropped.perLocale) {
    EXPECT_TRUE(rep.rows.empty());
    EXPECT_EQ(rep.totalRawSamples, 0u);
  }
  EXPECT_EQ(dropped.aggregate, retained.aggregate);
  EXPECT_FALSE(dropped.aggregate.rows.empty());
}

// ---------------------------------------------------------------------------
// Golden fixtures: comm and per-locale views at 4 locales, byte-pinned.
// ---------------------------------------------------------------------------

std::string goldenPath(const std::string& program, const char* view) {
  return std::string(kGoldenDir) + "/" + program + "_" + view + "4.txt";
}

std::string renderComm(const MultiLocaleResult& r) {
  return rpt::commView(r.aggregate, {1000, 0.0});  // all rows, no floor
}

std::string renderLocale(const MultiLocaleResult& r) {
  return rpt::perLocaleView(r.perLocale, {1000, 0.0});
}

void checkGolden(const std::string& rendered, const std::string& path) {
  if (test::g_updateGolden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path << "; run `cb_tests --update-golden`";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "golden mismatch for " << path
      << "; if intentional, regenerate with `cb_tests --update-golden`";
}

class MultiLocaleGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(MultiLocaleGolden, CommViewMatchesFixture) {
  const MultiLocaleResult& r = profiled4(GetParam());
  ASSERT_TRUE(r.ok) << r.error;
  checkGolden(renderComm(r), goldenPath(GetParam(), "comm"));
}

TEST_P(MultiLocaleGolden, PerLocaleViewMatchesFixture) {
  const MultiLocaleResult& r = profiled4(GetParam());
  ASSERT_TRUE(r.ok) << r.error;
  checkGolden(renderLocale(r), goldenPath(GetParam(), "locale"));
}

TEST_P(MultiLocaleGolden, SequentialLocalesMatchFixture) {
  // The locale pool must land on the same golden bytes as a fully
  // sequential locale loop (the bit-identical acceptance bar, per program).
  ProfileOptions o;
  o.localeWorkers = 1;
  MultiLocaleResult r = profileMultiLocale(assetProgram(GetParam()), 4, o);
  ASSERT_TRUE(r.ok) << r.error;
  std::ifstream in(goldenPath(GetParam(), "comm"), std::ios::binary);
  if (test::g_updateGolden && !in) return;  // fixture being created by the twin test
  ASSERT_TRUE(in) << "missing fixture " << goldenPath(GetParam(), "comm");
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(renderComm(r), expected.str());
}

INSTANTIATE_TEST_SUITE_P(Programs, MultiLocaleGolden,
                         ::testing::Values("minimd_badloc", "minimd_blockloc", "clomp"));

// ---------------------------------------------------------------------------
// Locale×locale communication matrix. Suites named CommMatrix* carry the
// `commmatrix` CTest label (tests/CMakeLists.txt).
// ---------------------------------------------------------------------------

/// Structural invariants of a sparse comm matrix: sorted by (src, dst), no
/// zero cells, every pair in range and actually crossing locales.
void expectWellFormedCells(const std::vector<pm::CommCell>& cells, int32_t numLocales,
                           const std::string& what) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const pm::CommCell& c = cells[i];
    EXPECT_GT(c.samples, 0u) << what << ": zero cell " << c.src << "->" << c.dst;
    EXPECT_NE(c.src, c.dst) << what << ": remote access cannot stay on-locale";
    EXPECT_GE(c.src, 0) << what;
    EXPECT_LT(c.src, numLocales) << what;
    EXPECT_GE(c.dst, 0) << what;
    EXPECT_LT(c.dst, numLocales) << what;
    if (i > 0) {
      EXPECT_TRUE(std::make_pair(cells[i - 1].src, cells[i - 1].dst) <
                  std::make_pair(c.src, c.dst))
          << what << ": cells out of (src, dst) order at " << i;
    }
  }
}

uint64_t cellSum(const std::vector<pm::CommCell>& cells) {
  uint64_t n = 0;
  for (const pm::CommCell& c : cells) n += c.samples;
  return n;
}

class CommMatrixCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(CommMatrixCorpus, CellsSumToRemoteSampleTallies) {
  // Per variable, the matrix is exactly the remote samples redistributed
  // over locale pairs: cell sums equal the remote GET+PUT sample tallies.
  const MultiLocaleResult& r = profiled4(GetParam());
  ASSERT_TRUE(r.ok) << r.error;
  for (const pm::VariableBlame& row : r.aggregate.rows) {
    expectWellFormedCells(row.commMatrix, 4, std::string("aggregate ") + row.name);
    EXPECT_EQ(cellSum(row.commMatrix), row.remoteSamples()) << row.name;
  }
  expectWellFormedCells(r.aggregate.totalComm, 4, "aggregate totalComm");
  // The global matrix is the per-locale matrices summed: totals conserved.
  uint64_t perLocaleTotal = 0;
  for (const pm::BlameReport& rep : r.perLocale) {
    expectWellFormedCells(rep.totalComm, 4, "per-locale totalComm");
    for (const pm::VariableBlame& row : rep.rows) {
      expectWellFormedCells(row.commMatrix, 4, std::string("per-locale ") + row.name);
      EXPECT_EQ(cellSum(row.commMatrix), row.remoteSamples()) << row.name;
    }
    perLocaleTotal += cellSum(rep.totalComm);
  }
  EXPECT_EQ(cellSum(r.aggregate.totalComm), perLocaleTotal);
}

INSTANTIATE_TEST_SUITE_P(Programs, CommMatrixCorpus,
                         ::testing::Values("minimd_badloc", "minimd_blockloc", "clomp",
                                           "ig_naive", "ig_agg"));

/// One single-rank ig profile (locale 1 of 4, one worker stream so remote
/// latency is undiluted by parallel virtual streams).
rt::RunResult igRun(const char* program, bool fast) {
  Profiler p;
  if (fast) {
    p.options().compile.fast = true;
    p.options().run.fastCostProfile = true;
  }
  p.options().run.numLocales = 4;
  p.options().run.localeId = 1;
  p.options().run.numWorkers = 1;
  p.options().run.configOverrides["hereId"] = "1";
  EXPECT_TRUE(p.profileFile(assetProgram(program))) << p.lastError();
  return *p.runResult();
}

TEST(CommMatrixLog, ExactMatrixMatchesExactCounters) {
  // The run-log matrix counts every remote element transfer — naive and
  // aggregated alike — so its total equals the exact comm counters.
  for (const char* program : {"ig_naive", "ig_agg"}) {
    rt::RunResult r = igRun(program, false);
    const sampling::RunLog& log = r.log;
    uint64_t matrixSum = 0;
    for (const auto& [key, count] : log.commMatrix) {
      EXPECT_NE(sampling::RunLog::pairSrc(key), sampling::RunLog::pairDst(key)) << program;
      EXPECT_GT(count, 0u) << program;
      matrixSum += count;
    }
    EXPECT_EQ(matrixSum,
              log.commGets + log.commPuts + log.commAggGets + log.commAggPuts)
        << program;
    EXPECT_GT(matrixSum, 0u) << program;
  }
}

TEST(CommMatrixLog, AggregationMovesTheSameElements) {
  // Aggregators change the cost of the traffic, never the traffic itself:
  // the aggregated twin moves exactly the elements the naive one moves,
  // pair for pair, just through buffers instead of one-at-a-time.
  rt::RunResult naive = igRun("ig_naive", false);
  rt::RunResult agg = igRun("ig_agg", false);
  EXPECT_GT(naive.log.commGets, 0u);
  EXPECT_GT(naive.log.commPuts, 0u);
  EXPECT_EQ(naive.log.commAggGets, 0u);
  EXPECT_EQ(agg.log.commGets, 0u);
  EXPECT_EQ(agg.log.commPuts, 0u);
  EXPECT_EQ(agg.log.commAggGets, naive.log.commGets);
  EXPECT_EQ(agg.log.commAggPuts, naive.log.commPuts);
  EXPECT_GT(agg.log.commAggFlushes, 0u);
  // Far fewer flushes than elements — otherwise batching is not happening.
  EXPECT_LT(agg.log.commAggFlushes * 4, agg.log.commAggGets + agg.log.commAggPuts);
  EXPECT_EQ(agg.log.commMatrix, naive.log.commMatrix);
}

// One task copies 130 remote elements through one source aggregator: two
// buffers flush full at aggBufferCap (64) and the close drains the last 2.
TEST(CommMatrixAggregation, BuffersFlushAtCapacityAndDrainAtClose) {
  auto c = test::compile(R"(
    const D = {0..#260} dmapped Block;
    var A: [D] int;
    var got: [{0..#130}] int;
    proc main() {
      forall k in 0..#130 with (var ga = new SrcAggregator(int)) {
        ga.copy(got[k], A[130 + k]);
      }
    }
  )");
  for (bool reference : {false, true}) {
    rt::RunOptions o;
    o.numLocales = 2;
    o.numWorkers = 1;  // one task, one aggregator
    o.referenceInterp = reference;
    rt::RunResult r = rt::execute(c->module(), o);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.log.commAggGets, 130u);
    EXPECT_EQ(r.log.commAggFlushes, 3u);
  }
}

TEST(CommMatrixAggregation, AggregationBeatsNaiveThreefold) {
  // The conveyors/bale headline on the index-gather pair: batching the
  // fine-grained remote traffic wins >= 3x in total virtual time, under
  // both cost profiles. (Measured: 3.54x standard, 5.89x fast.)
  rt::RunResult naiveStd = igRun("ig_naive", false);
  rt::RunResult aggStd = igRun("ig_agg", false);
  ASSERT_GT(aggStd.totalCycles, 0u);
  EXPECT_GE(naiveStd.totalCycles, 3 * aggStd.totalCycles)
      << "standard: naive " << naiveStd.totalCycles << " vs agg " << aggStd.totalCycles;
  rt::RunResult naiveFast = igRun("ig_naive", true);
  rt::RunResult aggFast = igRun("ig_agg", true);
  ASSERT_GT(aggFast.totalCycles, 0u);
  EXPECT_GE(naiveFast.totalCycles, 3 * aggFast.totalCycles)
      << "fast: naive " << naiveFast.totalCycles << " vs agg " << aggFast.totalCycles;
  // Same program, same answer: aggregation must not change the final state.
  EXPECT_EQ(naiveStd.output, aggStd.output);
  EXPECT_EQ(naiveFast.output, aggFast.output);
  EXPECT_FALSE(naiveStd.output.empty());
}

TEST(CommMatrixAggregation, BlameGapCollapses) {
  // Under naive fine-grained access the Cyclic table dwarfs its Block twin
  // in the data-centric ranking (measured: 45.2% vs 6.1% of user samples);
  // routed through aggregators the gap collapses (35.2% vs 18.2%) because
  // the remote latency no longer multiplies into every access.
  const MultiLocaleResult& naive = profiled4("ig_naive");
  const MultiLocaleResult& agg = profiled4("ig_agg");
  ASSERT_TRUE(naive.ok) << naive.error;
  ASSERT_TRUE(agg.ok) << agg.error;
  const pm::VariableBlame* nCyc = naive.aggregate.find("ACyc");
  const pm::VariableBlame* nBlk = naive.aggregate.find("ABlk");
  const pm::VariableBlame* aCyc = agg.aggregate.find("ACyc");
  const pm::VariableBlame* aBlk = agg.aggregate.find("ABlk");
  ASSERT_TRUE(nCyc && nBlk && aCyc && aBlk);
  // The Block table is iterated in owner order: fully local in both twins.
  EXPECT_EQ(nBlk->remoteSamples(), 0u);
  EXPECT_EQ(aBlk->remoteSamples(), 0u);
  // The Cyclic table is remote-dominated under naive access.
  EXPECT_GT(100.0 * static_cast<double>(nCyc->remoteSamples()) / nCyc->sampleCount, 80.0);
  double naiveGap = nCyc->percent - nBlk->percent;
  double aggGap = aCyc->percent - aBlk->percent;
  EXPECT_GT(naiveGap, 30.0) << "naive Block-vs-Cyclic blame gap should be wide";
  EXPECT_LT(aggGap, 20.0) << "aggregation should collapse the gap";
  EXPECT_LT(aggGap, naiveGap / 2.0)
      << "gap " << naiveGap << " -> " << aggGap << " is not a collapse";
}

TEST(CommMatrixMerge, SixtyFourLocalesThreeSparsePairs) {
  // A 64-locale run where only three pairs ever communicate: the sparse
  // merge must keep exactly the touched cells — no dense L×L blow-up, no
  // zero cells — and stay order-independent.
  auto makeReport = [](std::vector<pm::CommCell> cells) {
    pm::BlameReport r;
    pm::VariableBlame row;
    row.name = "x";
    row.type = "int";
    row.context = "main";
    row.commMatrix = cells;
    row.remoteGetSamples = cellSum(cells);
    row.sampleCount = row.remoteGetSamples + 10;
    row.computeSamples = 10;
    r.totalUserSamples = r.totalRawSamples = row.sampleCount;
    r.totalComm = std::move(cells);
    r.rows.push_back(std::move(row));
    return r;
  };
  pm::BlameReport a = makeReport({{0, 63, 5}, {17, 42, 1}});
  pm::BlameReport b = makeReport({{17, 42, 3}, {63, 0, 7}});
  pm::BlameReport c = makeReport({{0, 63, 2}});
  pm::BlameReport merged = pm::aggregateAcrossLocales({&a, &b, &c});
  std::vector<pm::CommCell> expected = {{0, 63, 7}, {17, 42, 4}, {63, 0, 7}};
  EXPECT_EQ(merged.totalComm, expected);
  ASSERT_EQ(merged.rows.size(), 1u);
  EXPECT_EQ(merged.rows[0].commMatrix, expected);
  expectWellFormedCells(merged.totalComm, 64, "merged totalComm");
  // Every merge order lands on the same bytes.
  EXPECT_EQ(pm::aggregateAcrossLocales({&c, &b, &a}), merged);
  EXPECT_EQ(pm::aggregateAcrossLocales({&b, &a, &c}), merged);
  // Merging a report with itself doubles every cell, never duplicates one.
  pm::BlameReport doubled = pm::aggregateAcrossLocales({&a, &a});
  std::vector<pm::CommCell> expectedDoubled = {{0, 63, 10}, {17, 42, 2}};
  EXPECT_EQ(doubled.totalComm, expectedDoubled);
}

// ---------------------------------------------------------------------------
// Golden fixtures for --view commmatrix at 4 locales.
// ---------------------------------------------------------------------------

std::string renderCommMatrix(const MultiLocaleResult& r) {
  return rpt::commMatrixView(r.aggregate, {1000, 0.0});  // all rows, no floor
}

class CommMatrixGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(CommMatrixGolden, ViewMatchesFixture) {
  const MultiLocaleResult& r = profiled4(GetParam());
  ASSERT_TRUE(r.ok) << r.error;
  checkGolden(renderCommMatrix(r), goldenPath(GetParam(), "commmatrix"));
}

INSTANTIATE_TEST_SUITE_P(Programs, CommMatrixGolden,
                         ::testing::Values("minimd_badloc", "minimd_blockloc", "ig_naive",
                                           "ig_agg"));

/// Synthetic report with a ring of remote traffic over `n` locales — cells
/// already sorted by (src, dst), deterministic sample counts.
pm::BlameReport ringReport(int32_t n) {
  pm::BlameReport r;
  pm::VariableBlame row;
  row.name = "Ring";
  row.type = "[BlockDom] real(64)";
  row.context = "main";
  for (int32_t l = 0; l < n; ++l) {
    pm::CommCell c{l, (l + 1) % n, static_cast<uint64_t>((l * 7) % 13 + 1)};
    row.commMatrix.push_back(c);
    r.totalComm.push_back(c);
    row.remoteGetSamples += c.samples;
  }
  row.sampleCount = row.remoteGetSamples;
  row.percent = 100.0;
  r.totalUserSamples = r.totalRawSamples = row.sampleCount;
  r.rows.push_back(std::move(row));
  return r;
}

TEST(CommMatrixSparse, HeatGridGatesAtSixteenActiveLocales) {
  // The dense glyph grid is quadratic in active locales, so it renders only
  // up to 16 of them; wider runs print a notice and fall through to the
  // sparse hottest-cells tables, which stay O(maxRows) at any width.
  std::string dense = rpt::commMatrixView(ringReport(16), {1000, 0.0});
  EXPECT_NE(dense.find("(dst)"), std::string::npos) << dense;
  EXPECT_EQ(dense.find("heat grid suppressed"), std::string::npos) << dense;
  std::string sparse = rpt::commMatrixView(ringReport(17), {1000, 0.0});
  EXPECT_EQ(sparse.find("(dst)"), std::string::npos) << sparse;
  EXPECT_NE(sparse.find("heat grid suppressed"), std::string::npos) << sparse;
  EXPECT_NE(sparse.find("Hottest cells"), std::string::npos) << sparse;
  EXPECT_NE(sparse.find("Per-variable hot cells"), std::string::npos) << sparse;
}

TEST(CommMatrixSparseGolden, WideRunMatchesFixture) {
  // Byte-pins the sparse form on a 24-locale ring (> the 16-locale gate):
  // suppression notice + hottest-cells + per-variable tables, no heat grid.
  checkGolden(rpt::commMatrixView(ringReport(24), {1000, 0.0}),
              std::string(kGoldenDir) + "/synthetic_commmatrix_sparse24.txt");
}

}  // namespace
}  // namespace cb
