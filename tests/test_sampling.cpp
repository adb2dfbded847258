// Tests of the virtual PMU overflow trigger (runtime/semantics.h) and the
// raw monitoring artefacts (samples, spawn records, idle accounting,
// allocation sites).
#include <gtest/gtest.h>

#include "runtime/semantics.h"
#include "sampling/sample.h"
#include "test_util.h"

namespace cb {
namespace {

TEST(Pmu, OverflowEveryThreshold) {
  rt::sem::Pmu pmu(100);
  EXPECT_EQ(pmu.advance(99), 0u);
  EXPECT_EQ(pmu.advance(1), 1u);   // exactly at threshold
  EXPECT_EQ(pmu.advance(199), 1u);
  EXPECT_EQ(pmu.advance(1), 1u);
}

TEST(Pmu, LargeCostTriggersMultipleOverflows) {
  rt::sem::Pmu pmu(10);
  EXPECT_EQ(pmu.advance(35), 3u);
}

TEST(Pmu, ZeroThresholdDisables) {
  rt::sem::Pmu pmu(0);
  EXPECT_EQ(pmu.advance(1000000), 0u);
}

TEST(Pmu, StreamsAreIndependent) {
  rt::sem::Stream main, worker;
  main.pmu = worker.pmu = rt::sem::Pmu(100);
  main.pmu.advance(250);
  EXPECT_EQ(main.pmu.clock, 250u);
  EXPECT_EQ(worker.pmu.clock, 0u);
  EXPECT_EQ(worker.pmu.advance(100), 1u);
}

TEST(Pmu, SetClockRealignsNextSample) {
  rt::sem::Pmu pmu(100);
  pmu.setClock(950);
  EXPECT_EQ(pmu.advance(49), 0u);
  EXPECT_EQ(pmu.advance(1), 1u);  // at 1000
}

// Direct access to the shared rule core, for rules the engine differential
// cannot check (both engines call them).
struct RuleProbe : rt::sem::Core {
  RuleProbe(const ir::Module& m, const rt::RunOptions& o) : Core(m, o) { bindMain(s); }
  using Core::arrayCopy;
  using Core::arrayFill;
  using Core::charge;
  using Core::closeSerialSpan;
  using Core::emitIdleSamples;
  using Core::flushSkid;
  using Core::makeArray;
  using Core::result_;
  using Core::tickSkid;
  rt::sem::Stream s;
  rt::sem::Pos leaf;
};

TEST(Sampling, SkidDelaysTheSampleByExactlyTheSkidDistance) {
  auto c = test::compile("proc main() { }");
  rt::RunOptions o;
  o.sampleThreshold = 100;
  o.skidInstructions = 3;
  RuleProbe p(c->module(), o);
  p.s.stack.push_back(&p.leaf);
  p.charge(p.s, 100);  // overflows: the sample waits three instructions
  for (uint32_t ir = 1; ir <= 3; ++ir) {
    EXPECT_TRUE(p.result_.log.samples.empty()) << ir;
    p.leaf.ir = ir;
    p.tickSkid(p.s);
  }
  ASSERT_EQ(p.result_.log.samples.size(), 1u);
  EXPECT_EQ(p.result_.log.samples[0].stack.back().instr, 3u);  // the overshot instruction
  // A context change (spawn, task end, run end) emits what is still pending.
  p.charge(p.s, 100);
  p.flushSkid(p.s);
  EXPECT_EQ(p.result_.log.samples.size(), 2u);
}

// Each sample reads the leaf's current instruction (parents come from the
// cached stack) and consumes the pending access classification.
TEST(Sampling, SampleTakesTheLeafAndConsumesThePendingAccess) {
  auto c = test::compile("proc main() { }");
  rt::RunOptions o;
  o.sampleThreshold = 10;
  RuleProbe p(c->module(), o);
  rt::sem::Pos parent;
  parent.ir = 7;
  p.s.stack = {&parent, &p.leaf};
  p.leaf.ir = 1;
  p.s.pending = sampling::AccessKind::RemoteGet;
  p.s.pendingDst = 1;
  p.charge(p.s, 10);
  p.leaf.ir = 2;
  p.charge(p.s, 10);
  const std::vector<sampling::RawSample>& ss = p.result_.log.samples;
  ASSERT_EQ(ss.size(), 2u);
  EXPECT_EQ(ss[0].accessKind, sampling::AccessKind::RemoteGet);
  EXPECT_EQ(ss[0].dstLocale, 1);
  EXPECT_EQ(ss[1].accessKind, sampling::AccessKind::None);
  EXPECT_EQ(ss[1].dstLocale, 0);
  EXPECT_EQ(ss[0].stack.back().instr, 1u);
  EXPECT_EQ(ss[1].stack.back().instr, 2u);
  EXPECT_EQ(ss[1].stack.front().instr, 7u);
}

// The main-stream serial segment closes at a fork or at the end of the run;
// a zero-length one (back-to-back closes, e.g. under an infinite what-if
// speedup) is elided.
TEST(Sampling, SerialSpansCloseAtTheClockAndElideZeroLength) {
  auto c = test::compile("proc main() { }");
  RuleProbe p(c->module(), rt::RunOptions{});
  p.s.stack.push_back(&p.leaf);
  p.charge(p.s, 5);
  p.closeSerialSpan(p.s);
  p.closeSerialSpan(p.s);
  const std::vector<sampling::TaskSpan>& spans = p.result_.log.taskSpans;
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].startCycle, 0u);
  EXPECT_EQ(spans[0].endCycle, 5u);
}

TEST(Sampling, IdleSamplesFollowTheFigure4FramePattern) {
  auto c = test::compile("proc main() { }");
  rt::RunOptions o;
  o.sampleThreshold = 10;
  RuleProbe p(c->module(), o);
  p.emitIdleSamples(1, 0, 400);  // 40 idle samples, two rounds of the pattern
  const std::vector<sampling::RawSample>& ss = p.result_.log.samples;
  ASSERT_EQ(ss.size(), 40u);
  for (size_t k = 0; k < ss.size(); ++k) {
    sampling::RuntimeFrameKind want = k % 20 == 19   ? sampling::RuntimeFrameKind::ChplTaskYield
                                      : k % 20 >= 17 ? sampling::RuntimeFrameKind::PthreadState
                                                     : sampling::RuntimeFrameKind::SchedYield;
    EXPECT_EQ(ss[k].runtimeFrame, want) << k;
    EXPECT_EQ(ss[k].atCycle, 10 * (k + 1)) << k;
  }
}

// Past cache residency an array streams 8 bytes per scalar slot of its
// element type through the memory roof.
TEST(ArrayRules, StreamingBytesScaleWithElementWidth) {
  auto c = test::compile("var t: 3*real;\nproc main() { }");
  const ir::TypeContext& types = c->module().types();
  ir::TypeId tup = ir::kNone;
  for (ir::TypeId t = 0; t < types.size(); ++t)
    if (types.kindOf(t) == ir::TypeKind::Tuple && types.get(t).elems.size() == 3) tup = t;
  ASSERT_NE(tup, ir::kNone);
  rt::RunOptions o;
  o.costProfileOverride = rt::CostProfile::bandwidthCeiling(false);
  RuleProbe p(c->module(), o);
  rt::DomainVal d;
  d.hi[0] = 39999;  // 40,000 elements: past the 256 KiB residency bound
  auto noThunk = [](ir::FuncId) { return rt::Value{}; };
  auto noHook = [](const rt::ArrayObj*, ir::FuncId, ir::InstrId) {};
  EXPECT_EQ(p.makeArray(p.s, d, tup, ir::kNone, 0, noThunk, noHook).arr->streamBytes, 24u);
  EXPECT_EQ(p.makeArray(p.s, d, types.realTy(), ir::kNone, 0, noThunk, noHook).arr->streamBytes,
            8u);
}

// An allocation site records the largest array it ever allocated.
TEST(ArrayRules, AllocSiteKeepsItsHighWaterMark) {
  auto c = test::compile("proc main() { }");
  RuleProbe p(c->module(), rt::RunOptions{});
  auto noThunk = [](ir::FuncId) { return rt::Value{}; };
  auto noHook = [](const rt::ArrayObj*, ir::FuncId, ir::InstrId) {};
  rt::DomainVal big, small;
  big.hi[0] = 999;
  small.hi[0] = 9;
  ir::TypeId real = c->module().types().realTy();
  uint64_t bigBytes = p.makeArray(p.s, big, real, 0, 5, noThunk, noHook).arr->approxBytes();
  p.makeArray(p.s, small, real, 0, 5, noThunk, noHook);
  EXPECT_EQ(p.result_.log.allocBytesBySite.at(sampling::RunLog::siteKey(0, 5)), bigBytes);
}

// Whole-array fill and copy charge per element on top of the builtin's
// static cost.
TEST(ArrayRules, FillAndCopyChargePerElement) {
  auto c = test::compile("proc main() { }");
  RuleProbe p(c->module(), rt::RunOptions{});
  p.s.stack.push_back(&p.leaf);
  auto noThunk = [](ir::FuncId) { return rt::Value{}; };
  auto noHook = [](const rt::ArrayObj*, ir::FuncId, ir::InstrId) {};
  rt::DomainVal d;
  d.hi[0] = 9;
  ir::TypeId intTy = c->module().types().intTy();
  rt::Value a = p.makeArray(p.s, d, intTy, ir::kNone, 0, noThunk, noHook);
  rt::Value b = p.makeArray(p.s, d, intTy, ir::kNone, 0, noThunk, noHook);
  const rt::CostProfile prof = rt::CostProfile::standard();
  uint64_t t0 = p.s.pmu.clock;
  p.arrayFill(p.s, a, rt::Value::makeInt(7), {});
  EXPECT_EQ(p.s.pmu.clock - t0, 10 * prof.arrayFillPerElem);
  p.arrayCopy(p.s, b, a, {});
  EXPECT_EQ(p.s.pmu.clock - t0, 10 * (prof.arrayFillPerElem + prof.arrayCopyPerElem));
  EXPECT_EQ(b.arr->atLinear(9)->i, 7);
}

// The forall/coforall chunk plan (runtime/semantics.h) over spawn offsets.
TEST(ChunkPlan, CountsTripsUnsignedAndSplitsBlocks) {
  using rt::Value;
  // forall over 0..9 on 4 workers: ceil(10/4) = 3 per block, last one short.
  rt::sem::ChunkPlan f(0, 9, {}, false, 4);
  EXPECT_EQ(f.trips, 10u);
  EXPECT_EQ(f.tasks, 4u);
  EXPECT_EQ(f.chunk(0), (std::pair<int64_t, int64_t>(0, 2)));
  EXPECT_EQ(f.chunk(3), (std::pair<int64_t, int64_t>(9, 9)));
  // coforall: one task per index.
  rt::sem::ChunkPlan c(1, 3, {}, true, 12);
  EXPECT_EQ(c.tasks, 3u);
  EXPECT_EQ(c.chunk(2), (std::pair<int64_t, int64_t>(3, 3)));
  // A range iterand spawns offsets [0, hi - base]: 5..3 is empty...
  rt::sem::ChunkPlan e(0, -2, {Value::makeInt(5)}, false, 12);
  EXPECT_EQ(e.trips, 0u);
  EXPECT_EQ(e.tasks, 0u);
  // ...while the full int range, whose difference wraps to -1, has 2^64
  // iterations (saturated) in 12 blocks ending at offset 2^64 - 1.
  rt::sem::ChunkPlan full(0, -1, {Value::makeInt(INT64_MIN)}, false, 12);
  EXPECT_EQ(full.trips, ~0ull);
  EXPECT_EQ(full.tasks, 12u);
  EXPECT_EQ(static_cast<uint64_t>(full.chunk(11).second), ~0ull);
}

TEST(Sampling, SamplesCarryStacksAndTags) {
  const char* src =
      "const D = {0..#64};\nvar A: [D] real;\n"
      "proc work() { forall i in D { var t = 0.0; for j in 0..#50 { t += i * j; } A[i] = t; } "
      "}\nproc main() { work(); }";
  auto c = fe::Compilation::fromString("t.chpl", src);
  ASSERT_TRUE(c->ok());
  rt::RunOptions o;
  o.sampleThreshold = 101;
  rt::RunResult r = rt::execute(c->module(), o);
  ASSERT_TRUE(r.ok);
  const sampling::RunLog& log = r.log;
  ASSERT_GT(log.samples.size(), 10u);
  ASSERT_EQ(log.spawns.size(), 1u);

  const sampling::SpawnRecord& rec = log.spawns.begin()->second;
  EXPECT_EQ(rec.parentTag, 0u);
  ASSERT_GE(rec.preSpawnStack.size(), 2u);  // main -> work (at the spawn)
  EXPECT_EQ(c->module().function(rec.preSpawnStack[0].func).displayName, "main");
  EXPECT_EQ(c->module().function(rec.preSpawnStack[1].func).displayName, "work");

  bool sawWorkerSample = false;
  for (const sampling::RawSample& s : log.samples) {
    if (s.taskTag == 0) continue;
    sawWorkerSample = true;
    EXPECT_EQ(s.taskTag, rec.tag);
    ASSERT_FALSE(s.stack.empty());
    // Post-spawn stacks are task-local: rooted at the task function.
    EXPECT_TRUE(c->module().function(s.stack[0].func).isTaskFn());
  }
  EXPECT_TRUE(sawWorkerSample);
}

TEST(Sampling, NestedSpawnsChainTags) {
  const char* src =
      "const D = {0..#4};\nvar A: [D] [D] real;\n"
      "proc main() { forall i in D { forall j in D { var t = 0.0; for k in 0..#80 { t += k; } "
      "A[i][j] = t; } } }";
  auto c = fe::Compilation::fromString("t.chpl", src);
  ASSERT_TRUE(c->ok());
  rt::RunOptions o;
  o.sampleThreshold = 53;
  rt::RunResult r = rt::execute(c->module(), o);
  ASSERT_TRUE(r.ok);
  // At least one spawn record must have a non-zero parent (nested).
  bool nested = false;
  for (const auto& [tag, rec] : r.log.spawns)
    if (rec.parentTag != 0) nested = true;
  EXPECT_TRUE(nested);
}

TEST(Sampling, IdleWorkersProduceRuntimeFrames) {
  // Serial main-thread work between parallel regions must surface as
  // __sched_yield-style samples on the workers.
  const char* src =
      "const D = {0..#24};\nvar A: [D] real;\n"
      "proc main() { forall i in D { A[i] = i; } var s = 0.0; for r in 0..#200 { for i in D { "
      "s += A[i]; } } forall i in D { A[i] = s; } }";
  auto c = fe::Compilation::fromString("t.chpl", src);
  ASSERT_TRUE(c->ok());
  rt::RunOptions o;
  o.sampleThreshold = 211;
  rt::RunResult r = rt::execute(c->module(), o);
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.log.numIdleSamples(), 0u);
  EXPECT_GT(r.log.numUserSamples(), 0u);
}

TEST(Sampling, NoIdleWhenDisabled) {
  const char* src = "const D = {0..#24};\nvar A: [D] real;\nproc main() { forall i in D { A[i] "
                    "= i; } var s = 0.0; for r in 0..#100 { s += r; } }";
  auto c = fe::Compilation::fromString("t.chpl", src);
  ASSERT_TRUE(c->ok());
  rt::RunOptions o;
  o.sampleThreshold = 101;
  o.sampleIdle = false;
  rt::RunResult r = rt::execute(c->module(), o);
  EXPECT_EQ(r.log.numIdleSamples(), 0u);
}

TEST(Sampling, AllocationSitesRecorded) {
  const char* src = "const D = {0..#2048};\nproc main() { var A: [D] real; A[5] = 1.0; }";
  auto c = fe::Compilation::fromString("t.chpl", src);
  ASSERT_TRUE(c->ok());
  rt::RunOptions o;
  o.sampleThreshold = 0;
  rt::RunResult r = rt::execute(c->module(), o);
  ASSERT_TRUE(r.ok);
  bool bigAlloc = false;
  for (const auto& [site, bytes] : r.log.allocBytesBySite)
    if (bytes >= 4096) bigAlloc = true;
  EXPECT_TRUE(bigAlloc);  // 2048 reals = 16 KB
}

TEST(Sampling, DeterministicAcrossRuns) {
  auto c = fe::Compilation::fromString(
      "t.chpl",
      "const D = {0..#32};\nvar A: [D] real;\nproc main() { forall i in D { A[i] = i * 2.0; } }");
  ASSERT_TRUE(c->ok());
  rt::RunOptions o;
  o.sampleThreshold = 101;
  rt::RunResult r1 = rt::execute(c->module(), o);
  rt::RunResult r2 = rt::execute(c->module(), o);
  ASSERT_EQ(r1.log.samples.size(), r2.log.samples.size());
  for (size_t i = 0; i < r1.log.samples.size(); ++i) {
    EXPECT_EQ(r1.log.samples[i].stream, r2.log.samples[i].stream);
    EXPECT_EQ(r1.log.samples[i].atCycle, r2.log.samples[i].atCycle);
    EXPECT_EQ(r1.log.samples[i].stack.size(), r2.log.samples[i].stack.size());
  }
  EXPECT_EQ(r1.totalCycles, r2.totalCycles);
}

TEST(Sampling, RuntimeFrameNames) {
  EXPECT_STREQ(sampling::runtimeFrameName(sampling::RuntimeFrameKind::SchedYield),
               "__sched_yield");
  EXPECT_STREQ(sampling::runtimeFrameName(sampling::RuntimeFrameKind::ChplTaskYield),
               "chpl_thread_yield");
}

}  // namespace
}  // namespace cb
