// Tests of the parallel sharded post-mortem pipeline: thread-pool basics,
// concurrency smoke tests, the deterministic-merge tie-break, and the
// property-based shard-invariance suite (random logs, random shard counts —
// sharded result must equal the sequential one row for row).
//
// Suite naming feeds the CTest labels (see tests/CMakeLists.txt):
// ThreadPool.* / Parallel*.* carry the `parallel` label, Property*.* the
// `property` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

#include "postmortem/parallel.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace cb {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();  // nothing submitted
  SUCCEED();
}

TEST(ThreadPool, JobsMaySubmitMoreJobs) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&pool, &count] {
      pool.submit([&count] { ++count; });
    });
  pool.wait();
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ZeroRequestClampsToOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

// Width flags resolve through boundedWidth, which never asks for more
// threads than the hardware has. Only the helper is exercised here: a huge
// width handed to a real run or pool would start the threads it names.
TEST(ThreadPool, BoundedWidthCapsAtHardwareConcurrency) {
  const uint32_t hw = ThreadPool::defaultConcurrency();
  EXPECT_EQ(ThreadPool::boundedWidth(0), hw);
  EXPECT_EQ(ThreadPool::boundedWidth(1), 1u);
  EXPECT_LE(ThreadPool::boundedWidth(4), hw);
  EXPECT_LE(ThreadPool::boundedWidth(4000000000u), hw);
  EXPECT_LE(ThreadPool::boundedWidth(UINT32_MAX), hw);
  EXPECT_GE(ThreadPool::boundedWidth(UINT32_MAX), 1u);
}

TEST(ThreadPool, ThrowingJobSurfacesFromWait) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("job failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsAndOthersAreSwallowed) {
  ThreadPool pool(1);  // single worker => deterministic job order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait();
    FAIL() << "wait() should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, PoolRemainsUsableAfterException) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // A failed batch must not poison the pool: later batches run normally and
  // wait() no longer throws (the stored exception was consumed).
  for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NonFailingJobsStillRunWhenOneThrows) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    if (i == 17)
      pool.submit([] { throw std::runtime_error("one bad job"); });
    else
      pool.submit([&count] { ++count; });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(count.load(), 99);
}

// ---------------------------------------------------------------------------
// Shard assignment
// ---------------------------------------------------------------------------

sampling::RunLog logOfAsset(const char* name, Profiler& p, uint64_t threshold = 9973) {
  p.options().run.sampleThreshold = threshold;
  p.options().postmortem.workers = 1;  // reference artifacts: sequential
  EXPECT_TRUE(p.profileFile(assetProgram(name))) << p.lastError();
  return p.runResult()->log;
}

TEST(ParallelSharding, PartitionsEverySampleExactlyOnce) {
  Profiler p;
  sampling::RunLog log = logOfAsset("clomp", p);
  for (uint32_t shards : {1u, 2u, 3u, 7u, 16u, 64u}) {
    auto plan = pm::shardSamples(log, shards);
    ASSERT_EQ(plan.size(), shards);
    std::vector<bool> seen(log.samples.size(), false);
    for (const auto& shard : plan) {
      for (size_t k = 0; k < shard.size(); ++k) {
        if (k > 0) {
          EXPECT_LT(shard[k - 1], shard[k]);  // ascending within a shard
        }
        ASSERT_LT(shard[k], log.samples.size());
        EXPECT_FALSE(seen[shard[k]]) << "sample in two shards";
        seen[shard[k]] = true;
      }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  }
}

TEST(ParallelSharding, SameTaskStaysInOneShard) {
  Profiler p;
  sampling::RunLog log = logOfAsset("minimd", p);
  auto plan = pm::shardSamples(log, 8);
  std::unordered_map<uint64_t, size_t> tagShard;
  for (size_t s = 0; s < plan.size(); ++s) {
    for (uint32_t idx : plan[s]) {
      uint64_t tag = log.samples[idx].taskTag;
      if (tag == 0) continue;
      auto [it, inserted] = tagShard.emplace(tag, s);
      EXPECT_EQ(it->second, s) << "tag " << tag << " split across shards";
    }
  }
}

TEST(ParallelSharding, DeterministicAcrossCalls) {
  Profiler p;
  sampling::RunLog log = logOfAsset("example", p, 7);  // example is tiny: ~49 cycles
  EXPECT_TRUE(log.samples.size() > 0);
  EXPECT_EQ(pm::shardSamples(log, 5), pm::shardSamples(log, 5));
}

// ---------------------------------------------------------------------------
// Concurrency smoke tests
// ---------------------------------------------------------------------------

TEST(ParallelPostmortem, EmptyLogYieldsEmptyArtifacts) {
  auto c = test::compile("proc main() { writeln(1); }");
  an::ModuleBlame mb = an::analyzeModule(c->module(), {});
  sampling::RunLog empty;
  pm::ParallelOptions popts;
  popts.workers = 4;
  pm::PostmortemResult r = pm::runPostmortem(c->module(), &mb, empty, {}, {}, popts);
  EXPECT_TRUE(r.instances.empty());
  EXPECT_TRUE(r.report.rows.empty());
  EXPECT_EQ(r.report.totalRawSamples, 0u);
  EXPECT_EQ(r.report.totalUserSamples, 0u);
}

TEST(ParallelPostmortem, WorkersExceedShardsAndSamples) {
  Profiler p;
  sampling::RunLog log = logOfAsset("example", p, 7);  // tiny program: few samples
  ASSERT_GT(log.samples.size(), 0u);
  pm::ParallelOptions popts;
  popts.workers = static_cast<uint32_t>(log.samples.size()) + 5;  // workers > samples
  popts.shards = 2;                                               // workers > shards too
  pm::PostmortemResult r = pm::runPostmortem(p.compilation()->module(), p.moduleBlame(), log,
                                             {}, {}, popts);
  EXPECT_EQ(r.report, *p.blameReport());
  EXPECT_EQ(r.instances, *p.instances());
}

TEST(ParallelPostmortem, SingleSampleShards) {
  Profiler p;
  sampling::RunLog log = logOfAsset("example", p, 7);
  ASSERT_GT(log.samples.size(), 0u);
  pm::ParallelOptions popts;
  popts.workers = 4;
  popts.shards = static_cast<uint32_t>(log.samples.size() * 2 + 1);  // most shards empty
  pm::PostmortemResult r = pm::runPostmortem(p.compilation()->module(), p.moduleBlame(), log,
                                             {}, {}, popts);
  EXPECT_EQ(r.report, *p.blameReport());
  EXPECT_EQ(r.instances, *p.instances());
}

TEST(ParallelPostmortem, FastModeSkipsAttributionButConsolidates) {
  Profiler p;
  p.options().compile.fast = true;
  p.options().run.fastCostProfile = true;
  p.options().run.sampleThreshold = 997;  // fast mode runs few cycles
  p.options().postmortem.workers = 4;
  ASSERT_TRUE(p.profileFile(assetProgram("clomp"))) << p.lastError();
  EXPECT_TRUE(p.blameReport()->rows.empty());
  EXPECT_EQ(p.blameReport()->totalRawSamples, p.instances()->size());
  EXPECT_FALSE(p.instances()->empty());
}

// ---------------------------------------------------------------------------
// The acceptance bar: workers in {2, 4, 8} bit-identical to workers=1 on
// every bundled asset program.
// ---------------------------------------------------------------------------

class ParallelCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelCorpus, ShardedMatchesSequentialBitForBit) {
  Profiler p;
  sampling::RunLog log = logOfAsset(GetParam(), p);
  for (uint32_t workers : {2u, 4u, 8u}) {
    pm::ParallelOptions popts;
    popts.workers = workers;
    pm::PostmortemResult r = pm::runPostmortem(p.compilation()->module(), p.moduleBlame(),
                                               log, {}, {}, popts);
    EXPECT_EQ(r.instances, *p.instances()) << "workers=" << workers;
    ASSERT_EQ(r.report, *p.blameReport()) << "workers=" << workers;
  }
}

TEST_P(ParallelCorpus, ProfilerFacadeMatchesSequential) {
  Profiler seq, par;
  seq.options().postmortem.workers = 1;
  par.options().postmortem.workers = 4;
  ASSERT_TRUE(seq.profileFile(assetProgram(GetParam()))) << seq.lastError();
  ASSERT_TRUE(par.profileFile(assetProgram(GetParam()))) << par.lastError();
  EXPECT_EQ(*par.blameReport(), *seq.blameReport());
  EXPECT_EQ(*par.instances(), *seq.instances());
  EXPECT_EQ(par.dataCentricText(), seq.dataCentricText());
  EXPECT_EQ(par.codeCentricText(), seq.codeCentricText());
}

// At the default threshold the corpus logs stay under kMinShardSamples,
// where an auto shard count runs the sequential path; an explicit count
// forces the sharded merge on every program, with and without attribution.
uint64_t shardedThreshold(const char* name, uint64_t threshold) {
  return std::string(name) == "example" ? 7 : threshold;  // example runs ~49 cycles
}

TEST_P(ParallelCorpus, ExplicitShardsMatchSequentialBitForBit) {
  Profiler p;
  sampling::RunLog log = logOfAsset(GetParam(), p, shardedThreshold(GetParam(), 9973));
  ASSERT_GT(log.samples.size(), 0u);
  for (uint32_t workers : {2u, 4u, 8u}) {
    pm::ParallelOptions popts;
    popts.workers = workers;
    popts.shards = workers * pm::kShardsPerWorker;
    pm::PostmortemResult r = pm::runPostmortem(p.compilation()->module(), p.moduleBlame(),
                                               log, {}, {}, popts);
    EXPECT_EQ(r.instances, *p.instances()) << "workers=" << workers;
    ASSERT_EQ(r.report, *p.blameReport()) << "workers=" << workers;
  }
}

TEST_P(ParallelCorpus, FastModeExplicitShardsMatchSequential) {
  Profiler p;
  p.options().compile.fast = true;
  p.options().run.fastCostProfile = true;
  sampling::RunLog log = logOfAsset(GetParam(), p, shardedThreshold(GetParam(), 997));
  ASSERT_GT(log.samples.size(), 0u);
  ASSERT_TRUE(p.compilation()->module().debugInfoStripped);
  for (uint32_t workers : {2u, 4u, 8u}) {
    pm::ParallelOptions popts;
    popts.workers = workers;
    popts.shards = workers * pm::kShardsPerWorker;
    pm::PostmortemResult r =
        pm::runPostmortem(p.compilation()->module(), nullptr, log, {}, {}, popts);
    EXPECT_EQ(r.instances, *p.instances()) << "workers=" << workers;
    EXPECT_TRUE(r.report.rows.empty()) << "workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, ParallelCorpus,
                         ::testing::Values("example", "clomp", "clomp_opt", "minimd",
                                           "minimd_opt", "lulesh"));

// ---------------------------------------------------------------------------
// Deterministic merge: total row order and order-independence.
// ---------------------------------------------------------------------------

pm::BlameReport reportOf(uint64_t userSamples, std::vector<pm::VariableBlame> rows) {
  pm::BlameReport r;
  r.totalUserSamples = userSamples;
  r.totalRawSamples = userSamples;
  for (auto& row : rows) {
    row.percent = userSamples ? 100.0 * static_cast<double>(row.sampleCount) / userSamples : 0.0;
    r.rows.push_back(row);
  }
  std::sort(r.rows.begin(), r.rows.end(), pm::blameRowLess);
  return r;
}

TEST(ParallelMerge, TieBreakByNameThenContextThenType) {
  pm::BlameReport r = reportOf(100, {{"zeta", "int", "main", 10, 0.0},
                                     {"alpha", "int", "work", 10, 0.0},
                                     {"alpha", "int", "main", 10, 0.0},
                                     {"alpha", "real", "work", 10, 0.0},
                                     {"big", "int", "main", 90, 0.0}});
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0].name, "big");  // highest count first
  EXPECT_EQ(r.rows[1].name, "alpha");
  EXPECT_EQ(r.rows[1].context, "main");
  EXPECT_EQ(r.rows[2].name, "alpha");
  EXPECT_EQ(r.rows[2].context, "work");
  EXPECT_EQ(r.rows[2].type, "int");
  EXPECT_EQ(r.rows[3].type, "real");
  EXPECT_EQ(r.rows[4].name, "zeta");
}

TEST(ParallelMerge, MergeIsOrderIndependent) {
  pm::BlameReport a = reportOf(50, {{"x", "int", "main", 25, 0.0},
                                    {"y", "int", "main", 25, 0.0}});
  pm::BlameReport b = reportOf(30, {{"y", "int", "main", 15, 0.0},
                                    {"z", "real", "work", 15, 0.0}});
  pm::BlameReport c = reportOf(20, {{"x", "int", "main", 20, 0.0}});
  pm::BlameReport abc = pm::aggregateAcrossLocales({&a, &b, &c});
  pm::BlameReport cba = pm::aggregateAcrossLocales({&c, &b, &a});
  pm::BlameReport bac = pm::aggregateAcrossLocales({&b, &a, &c});
  EXPECT_EQ(abc, cba);
  EXPECT_EQ(abc, bac);
  EXPECT_EQ(abc.totalUserSamples, 100u);
  const pm::VariableBlame* x = abc.find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->sampleCount, 45u);
  EXPECT_NEAR(x->percent, 45.0, 1e-12);
}

TEST(ParallelMerge, MergeOfOneIsIdentity) {
  Profiler p;
  logOfAsset("example", p, 7);
  ASSERT_FALSE(p.blameReport()->rows.empty());
  pm::BlameReport merged = pm::aggregateAcrossLocales({p.blameReport()});
  EXPECT_EQ(merged, *p.blameReport());
}

// ---------------------------------------------------------------------------
// Multi-locale: the locale fan-out must be bit-identical for every pool
// width and across repeated runs, and the aggregate must not depend on the
// order the per-locale reports are merged in.
// ---------------------------------------------------------------------------

TEST(ParallelMultiLocale, WorkerCountAndRepetitionBitIdentical) {
  auto runWith = [](uint32_t workers) {
    ProfileOptions o;
    o.localeWorkers = workers;
    return profileMultiLocale(assetProgram("minimd_badloc"), 4, o);
  };
  MultiLocaleResult seq = runWith(1);
  ASSERT_TRUE(seq.ok) << seq.error;
  ASSERT_FALSE(seq.aggregate.rows.empty());
  for (uint32_t workers : {2u, 4u}) {
    MultiLocaleResult par = runWith(workers);
    ASSERT_TRUE(par.ok) << par.error;
    EXPECT_EQ(par.aggregate, seq.aggregate) << "workers=" << workers;
    EXPECT_EQ(par.perLocale, seq.perLocale) << "workers=" << workers;
  }
  // Repetition: same pool width twice -> same bytes (no run-to-run jitter).
  MultiLocaleResult again = runWith(4);
  MultiLocaleResult again2 = runWith(4);
  EXPECT_EQ(again.aggregate, again2.aggregate);
  EXPECT_EQ(again.perLocale, again2.perLocale);
}

TEST(PropertyLocaleAggregate, PermutationInvariantWithCommSplit) {
  // Real per-locale reports (with live remote GET/PUT splits) merged in
  // every rotation and the full reversal: one aggregate, bit for bit —
  // including the comm-split fields, not just the sample counts.
  MultiLocaleResult r = profileMultiLocale(assetProgram("minimd_badloc"), 4);
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<const pm::BlameReport*> order = {&r.perLocale[0], &r.perLocale[1],
                                               &r.perLocale[2], &r.perLocale[3]};
  pm::BlameReport ref = pm::aggregateAcrossLocales(order);
  EXPECT_EQ(ref, r.aggregate);
  uint64_t remote = 0;
  for (const pm::VariableBlame& row : ref.rows) remote += row.remoteSamples();
  EXPECT_GT(remote, 0u) << "permutation test would be vacuous without remote blame";
  for (int rot = 1; rot < 4; ++rot) {
    std::rotate(order.begin(), order.begin() + 1, order.end());
    EXPECT_EQ(pm::aggregateAcrossLocales(order), ref) << "rotation " << rot;
  }
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(pm::aggregateAcrossLocales(order), ref) << "reversal";
}

TEST(ParallelMerge, MergeSumsCommSplitFields) {
  auto rowWith = [](uint64_t comp, uint64_t loc, uint64_t get, uint64_t put) {
    pm::VariableBlame row;
    row.name = "x";
    row.type = "int";
    row.context = "main";
    row.computeSamples = comp;
    row.localSamples = loc;
    row.remoteGetSamples = get;
    row.remotePutSamples = put;
    row.sampleCount = comp + loc + get + put;
    return row;
  };
  pm::BlameReport a, b;
  a.totalUserSamples = a.totalRawSamples = 10;
  a.rows = {rowWith(1, 2, 3, 4)};
  b.totalUserSamples = b.totalRawSamples = 30;
  b.rows = {rowWith(10, 20, 0, 0)};
  pm::BlameReport merged = pm::aggregateAcrossLocales({&a, &b});
  ASSERT_EQ(merged.rows.size(), 1u);
  EXPECT_EQ(merged.rows[0].computeSamples, 11u);
  EXPECT_EQ(merged.rows[0].localSamples, 22u);
  EXPECT_EQ(merged.rows[0].remoteGetSamples, 3u);
  EXPECT_EQ(merged.rows[0].remotePutSamples, 4u);
  EXPECT_EQ(merged.rows[0].sampleCount, 40u);
  EXPECT_EQ(merged.rows[0].remoteSamples(), 7u);
}

TEST(ParallelMerge, MergeSumsCommMatrixCells) {
  // Cell-level merge semantics: shared pairs sum, disjoint pairs interleave
  // in (src, dst) order, and no zero or duplicate cell survives.
  auto rowWithCells = [](std::vector<pm::CommCell> cells) {
    pm::VariableBlame row;
    row.name = "x";
    row.type = "int";
    row.context = "main";
    for (const pm::CommCell& c : cells) row.remoteGetSamples += c.samples;
    row.sampleCount = row.remoteGetSamples;
    row.commMatrix = std::move(cells);
    return row;
  };
  pm::BlameReport a, b;
  a.totalUserSamples = a.totalRawSamples = 10;
  a.rows = {rowWithCells({{0, 2, 4}, {3, 1, 6}})};
  a.totalComm = {{0, 2, 4}, {3, 1, 6}};
  b.totalUserSamples = b.totalRawSamples = 10;
  b.rows = {rowWithCells({{0, 2, 1}, {1, 0, 9}})};
  b.totalComm = {{0, 2, 1}, {1, 0, 9}};
  pm::BlameReport merged = pm::aggregateAcrossLocales({&a, &b});
  std::vector<pm::CommCell> expected = {{0, 2, 5}, {1, 0, 9}, {3, 1, 6}};
  ASSERT_EQ(merged.rows.size(), 1u);
  EXPECT_EQ(merged.rows[0].commMatrix, expected);
  EXPECT_EQ(merged.totalComm, expected);
  EXPECT_EQ(pm::aggregateAcrossLocales({&b, &a}).totalComm, expected);
}

TEST(ParallelPostmortem, CommMatrixSurvivesShardingAtAnyWidth) {
  // A live multi-locale rank with real remote traffic: the sharded pipeline
  // must reproduce the per-variable comm matrices and the global matrix bit
  // for bit at every worker/shard combination (matrix merging is part of
  // the deterministic reduction, not a sequential afterthought).
  Profiler p;
  p.options().run.sampleThreshold = 997;
  p.options().run.numLocales = 4;
  p.options().run.localeId = 1;
  p.options().run.configOverrides["hereId"] = "1";
  p.options().postmortem.workers = 1;
  ASSERT_TRUE(p.profileFile(assetProgram("ig_naive"))) << p.lastError();
  const pm::BlameReport& ref = *p.blameReport();
  ASSERT_FALSE(ref.totalComm.empty()) << "vacuous without remote samples";
  uint64_t cells = 0;
  for (const pm::VariableBlame& row : ref.rows) cells += row.commMatrix.size();
  ASSERT_GT(cells, 0u);
  const sampling::RunLog& log = p.runResult()->log;
  for (auto [workers, shards] : {std::pair<uint32_t, uint32_t>{2, 3},
                                 {4, 16},
                                 {8, 1},
                                 {3, 64}}) {
    pm::ParallelOptions popts;
    popts.workers = workers;
    popts.shards = shards;
    pm::PostmortemResult r = pm::runPostmortem(p.compilation()->module(), p.moduleBlame(),
                                               log, {}, {}, popts);
    ASSERT_EQ(r.report, ref) << "workers=" << workers << " shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Property suite: random sample logs -> shard -> merge == sequential.
// ---------------------------------------------------------------------------

/// Generates a random-but-valid RunLog against a module: frames reference
/// real functions/instructions, task tags form acyclic parent chains with
/// synthesized pre-spawn stacks.
sampling::RunLog randomLog(const ir::Module& m, Rng& rng) {
  sampling::RunLog log;
  log.sampleThreshold = 97;
  log.numStreams = 1 + static_cast<uint32_t>(rng.nextBounded(8));

  auto randomFrame = [&] {
    sampling::Frame f;
    f.func = static_cast<ir::FuncId>(rng.nextBounded(m.numFunctions()));
    uint32_t n = m.function(f.func).numInstrs();
    f.instr = static_cast<ir::InstrId>(n ? rng.nextBounded(n) : 0);
    return f;
  };
  auto randomStack = [&](size_t maxDepth) {
    std::vector<sampling::Frame> stack;
    size_t depth = rng.nextBounded(maxDepth + 1);
    for (size_t i = 0; i < depth; ++i) stack.push_back(randomFrame());
    return stack;
  };

  // Spawn records with parent chains: parents always have smaller tags, so
  // chains terminate; chain depth is unbounded in principle (tag k may pick
  // tag k-1 as parent, giving a chain of length k).
  uint64_t numTags = rng.nextBounded(20);
  for (uint64_t tag = 1; tag <= numTags; ++tag) {
    sampling::SpawnRecord rec;
    rec.tag = tag;
    rec.parentTag = tag > 1 ? rng.nextBounded(tag) : 0;  // 0 = main context
    rec.taskFn = static_cast<ir::FuncId>(rng.nextBounded(m.numFunctions()));
    rec.spawnInstr = 0;
    rec.preSpawnStack = randomStack(4);
    log.spawns.emplace(tag, rec);
  }

  uint64_t numSamples = rng.nextBounded(400);
  for (uint64_t i = 0; i < numSamples; ++i) {
    sampling::RawSample s;
    s.stream = static_cast<uint32_t>(rng.nextBounded(log.numStreams));
    s.atCycle = rng.next() >> 20;
    switch (rng.nextBounded(8)) {
      case 0:  // idle sample
        s.runtimeFrame = static_cast<sampling::RuntimeFrameKind>(1 + rng.nextBounded(3));
        break;
      case 1:  // user sample with an empty stack (degenerate but legal)
        s.taskTag = numTags ? rng.nextBounded(numTags + 1) : 0;
        break;
      default:
        s.taskTag = numTags ? rng.nextBounded(numTags + 1) : 0;
        s.stack = randomStack(6);
        // Random comm classification: some samples are local accesses, some
        // remote with a live locale pair — the sharded pipeline must carry
        // the pairs into per-variable matrices identically to sequential.
        s.accessKind = static_cast<sampling::AccessKind>(rng.nextBounded(4));
        if (s.accessKind == sampling::AccessKind::RemoteGet ||
            s.accessKind == sampling::AccessKind::RemotePut) {
          s.srcLocale = static_cast<int32_t>(rng.nextBounded(8));
          s.dstLocale = static_cast<int32_t>((s.srcLocale + 1 + rng.nextBounded(7)) % 8);
        }
        break;
    }
    log.samples.push_back(std::move(s));
  }
  return log;
}

class PropertyShardInvariance : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyShardInvariance, RandomLogsMergeToSequentialResult) {
  // One static corpus, many random logs against it.
  Profiler p;
  p.options().run.sampleThreshold = 0;
  ASSERT_TRUE(p.compileFile(assetProgram("example")) && p.analyze() && p.run() &&
              p.postProcess())
      << p.lastError();
  const ir::Module& m = p.compilation()->module();
  const an::ModuleBlame& mb = *p.moduleBlame();

  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    sampling::RunLog log = randomLog(m, rng);
    std::vector<pm::Instance> seqInstances = pm::consolidate(m, log);
    pm::BlameReport seqReport = pm::attribute(mb, seqInstances);

    pm::ParallelOptions popts;
    popts.workers = 2 + static_cast<uint32_t>(rng.nextBounded(7));   // 2..8
    popts.shards = 1 + static_cast<uint32_t>(rng.nextBounded(33));   // 1..33
    pm::PostmortemResult r = pm::runPostmortem(m, &mb, log, {}, {}, popts);
    ASSERT_EQ(r.instances, seqInstances)
        << "trial " << trial << " workers=" << popts.workers << " shards=" << popts.shards;
    ASSERT_EQ(r.report, seqReport)
        << "trial " << trial << " workers=" << popts.workers << " shards=" << popts.shards;
  }
}

TEST_P(PropertyShardInvariance, EveryShardCountMergesIdentically) {
  // Sweep shard counts exhaustively on one log: the merged report must not
  // depend on the partition granularity at all.
  Profiler p;
  p.options().run.sampleThreshold = 0;
  ASSERT_TRUE(p.compileFile(assetProgram("example")) && p.analyze() && p.run() &&
              p.postProcess())
      << p.lastError();
  const ir::Module& m = p.compilation()->module();
  Rng rng(GetParam() * 7919 + 1);
  sampling::RunLog log = randomLog(m, rng);
  pm::BlameReport seqReport = pm::attribute(*p.moduleBlame(), pm::consolidate(m, log));
  for (uint32_t shards = 1; shards <= 12; ++shards) {
    pm::ParallelOptions popts;
    popts.workers = 3;
    popts.shards = shards;
    pm::PostmortemResult r = pm::runPostmortem(m, p.moduleBlame(), log, {}, {}, popts);
    ASSERT_EQ(r.report, seqReport) << "shards=" << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyShardInvariance,
                         ::testing::Values(1ull, 42ull, 0xC0FFEEull, 20260806ull));

}  // namespace
}  // namespace cb
