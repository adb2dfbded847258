// Differential tests for the bytecode execution engine (src/runtime/exec.cpp)
// against the tree-walking reference interpreter (RunOptions::referenceInterp).
//
// Every program — the bundled corpus plus seeded randomly generated modules —
// is executed three ways: reference, bytecode sequential (replayThreads = 1)
// and bytecode with parallel worker-stream replay (replayThreads = 4). All
// three must agree on EVERYTHING the runtime reports: a bit-identical RunLog
// (samples, spawn records, alloc sites, threshold, streams, total cycles),
// the writeln output, the executed-instruction count, per-function cycle
// totals, and the success flag / error message.
//
// Suite naming feeds the CTest labels (tests/CMakeLists.txt): Property*.*
// carries the `property` label.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sampling/sample.h"
#include "support/rng.h"
#include "support/scheduler.h"
#include "test_util.h"

namespace cb {
namespace {

struct ModeResult {
  const char* mode;
  rt::RunResult r;
};

/// Runs a compiled module under all three engine modes with shared options.
std::vector<ModeResult> runAllModes(const ir::Module& m, rt::RunOptions base) {
  std::vector<ModeResult> out;
  {
    rt::RunOptions o = base;
    o.referenceInterp = true;
    out.push_back({"reference", rt::execute(m, o)});
  }
  {
    rt::RunOptions o = base;
    o.referenceInterp = false;
    o.replayThreads = 1;  // bytecode engine, fully sequential
    out.push_back({"bytecode-seq", rt::execute(m, o)});
  }
  {
    rt::RunOptions o = base;
    o.referenceInterp = false;
    o.replayThreads = 4;  // parallel replay wherever regions are eligible
    out.push_back({"bytecode-par4", rt::execute(m, o)});
  }
  return out;
}

/// Returns the reference run, for callers that check what it produced.
rt::RunResult expectAllModesAgree(const ir::Module& m, rt::RunOptions base,
                                  const std::string& what) {
  std::vector<ModeResult> rs = runAllModes(m, base);
  const rt::RunResult& ref = rs[0].r;
  for (size_t i = 1; i < rs.size(); ++i) {
    const rt::RunResult& r = rs[i].r;
    SCOPED_TRACE(what + " [" + rs[i].mode + " vs reference]");
    EXPECT_EQ(r.ok, ref.ok);
    EXPECT_EQ(r.error, ref.error);
    EXPECT_TRUE(sampling::identical(ref.log, r.log))
        << sampling::firstDifference(ref.log, r.log);
    EXPECT_EQ(r.totalCycles, ref.totalCycles);
    EXPECT_EQ(r.instructionsExecuted, ref.instructionsExecuted);
    EXPECT_EQ(r.output, ref.output);
    EXPECT_EQ(r.cyclesPerFunction, ref.cyclesPerFunction);
  }
  return std::move(rs[0].r);
}

rt::RunResult expectSourceAgrees(const std::string& src, rt::RunOptions base,
                                 const std::string& what) {
  auto c = fe::Compilation::fromString("diff.chpl", src, {});
  EXPECT_TRUE(c->ok()) << what << "\n" << c->diags().renderAll() << src;
  if (!c->ok()) return {};
  return expectAllModesAgree(c->module(), base, what);
}

// ---------------------------------------------------------------------------
// Corpus equivalence: every bundled program, sampling on, plus a skidded
// variant (skid exercises the deferred-sample queue in both engines).
// ---------------------------------------------------------------------------

class PropertyExecDiffCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(PropertyExecDiffCorpus, AllEnginesBitIdentical) {
  auto c = fe::Compilation::fromFile(assetProgram(GetParam()), {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll();
  rt::RunOptions base;  // default threshold 9973, 12 workers, idle sampling
  expectAllModesAgree(c->module(), base, GetParam());
}

TEST_P(PropertyExecDiffCorpus, SkiddedSamplingBitIdentical) {
  auto c = fe::Compilation::fromFile(assetProgram(GetParam()), {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll();
  rt::RunOptions base;
  base.sampleThreshold = 997;
  base.skidInstructions = 3;
  expectAllModesAgree(c->module(), base, std::string(GetParam()) + " skid=3");
}

INSTANTIATE_TEST_SUITE_P(Programs, PropertyExecDiffCorpus,
                         ::testing::Values("example", "clomp", "clomp_opt", "minimd",
                                           "minimd_opt", "lulesh", "ig_naive", "ig_agg",
                                           "minimd_badloc", "minimd_blockloc",
                                           "weakscale"));

// ---------------------------------------------------------------------------
// The parallel path must actually engage on an eligible program; silently
// falling back everywhere would make the equivalence above vacuous.
// ---------------------------------------------------------------------------

TEST(PropertyExecParallel, EligibleRegionsReplayOnThreads) {
  // lulesh's plain foralls; clomp's update_part loops (a call writing a
  // record field's sub-array); minimd's force loops (arrays of arrays and
  // reads through views). Every region entry the prover clears replays on
  // threads: nothing in these programs trips the runtime alias checks.
  // Small shapes keep the test quick under ThreadSanitizer.
  const std::pair<const char*, std::unordered_map<std::string, std::string>> cases[] = {
      {"lulesh", {}},
      {"clomp", {{"CLOMP_numParts", "16"}, {"CLOMP_timeScale", "2"}}},
      {"minimd", {{"numSteps", "2"}}},
  };
  for (const auto& [name, config] : cases) {
    SCOPED_TRACE(name);
    auto c = fe::Compilation::fromFile(assetProgram(name), {});
    ASSERT_TRUE(c->ok());
    rt::RunOptions o;
    o.replayThreads = 4;
    o.configOverrides = config;
    rt::RunResult r = rt::execute(c->module(), o);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.parallelRegionsReplayed, 0u) << "foralls should be provably independent";
    // Each top-level region entry either replayed or was refused statically.
    uint64_t topLevel = 0;
    for (const auto& [tag, rec] : r.log.spawns) topLevel += rec.parentTag == 0;
    EXPECT_EQ(r.parallelRegionsReplayed + r.log.raceFallbackRegions, topLevel)
        << "some provable region fell back at run time";
  }
  // Sequential modes never touch the pool.
  auto c = fe::Compilation::fromFile(assetProgram("lulesh"), {});
  ASSERT_TRUE(c->ok());
  rt::RunOptions o;
  o.replayThreads = 1;
  EXPECT_EQ(rt::execute(c->module(), o).parallelRegionsReplayed, 0u);
  o.referenceInterp = true;
  o.replayThreads = 4;
  EXPECT_EQ(rt::execute(c->module(), o).parallelRegionsReplayed, 0u);
}

TEST(PropertyExecParallel, RacyScatterFallsBackAndMatches) {
  // fx[c] += ... with a gathered (data-dependent) index is NOT provably
  // independent: the engine must refuse to parallelize yet still match.
  const std::string src = R"(
    const D = {0..#64};
    var a: [D] real;
    var idx: [D] int;
    proc main() {
      forall i in D { idx[i] = (i * 7) % 64; }
      forall i in D { a[idx[i]] = a[idx[i]] + 1.0; }
      var s = 0.0;
      for i in D { s = s + a[i]; }
      writeln("sum:", s);
    }
  )";
  auto c = fe::Compilation::fromString("scatter.chpl", src, {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll();
  rt::RunOptions o;
  o.replayThreads = 4;
  rt::RunResult r = rt::execute(c->module(), o);
  ASSERT_TRUE(r.ok) << r.error;
  expectAllModesAgree(c->module(), o, "racy scatter");
}

// ---------------------------------------------------------------------------
// Runtime errors must carry the same message, the same partial RunLog and
// the same cycle/instruction totals in all modes — including errors raised
// inside a region that the parallel engine replays on threads.
// ---------------------------------------------------------------------------

TEST(PropertyExecErrors, OutOfBoundsInsideParallelRegion) {
  const std::string src = R"(
    const D = {0..#40};
    var a: [D] real;
    proc main() {
      forall i in D { a[i + 30] = 1.0; }
      writeln("unreachable");
    }
  )";
  rt::RunOptions base;
  expectSourceAgrees(src, base, "oob in forall");
}

TEST(PropertyExecErrors, DivisionByZeroInsideTask) {
  const std::string src = R"(
    const D = {0..#24};
    var a: [D] int;
    proc main() {
      forall i in D { a[i] = 100 / (i - 7); }
    }
  )";
  rt::RunOptions base;
  expectSourceAgrees(src, base, "div by zero in forall");
}

TEST(PropertyExecErrors, FailuresAndOutputInsideForkedRegions) {
  // The regions above are small, so they replay inline. These run their
  // first chunk inline, project it past the fork gate and fork the rest
  // (the coforall gives each stream several chunks): the merge must keep
  // the failure the sequential schedule hits first and the output order
  // across the inline chunk and the forked ones.
  const char* sources[] = {
      R"(
    const D = {0..#200000};
    var a: [D] real;
    proc main() {
      forall i in D { a[i + 150000] = 1.0; }
      writeln("unreachable");
    }
  )",
      R"(
    const D = {0..#200000};
    var a: [D] int;
    proc main() {
      forall i in D { a[i] = 100 / (i - 123457); }
    }
  )",
      R"(
    const D = {0..#200000};
    var a: [D] int;
    proc main() {
      forall i in D {
        a[i] = i * 3;
        if i % 40000 == 7 then writeln("at ", i);
      }
      writeln(a[199999]);
    }
  )",
      R"(
    const D = {0..#48};
    var a: [D] int;
    proc main() {
      coforall i in D {
        var s = 0;
        for k in 0..#5000 { s = s + k * i; }
        a[i] = s;
        if i % 7 == 0 then writeln("task ", i);
      }
      writeln(a[47]);
    }
  )",
  };
  for (const char* src : sources) {
    auto c = fe::Compilation::fromString("forked.chpl", src, {});
    ASSERT_TRUE(c->ok()) << c->diags().renderAll();
    rt::RunOptions o;
    o.replayThreads = 4;
    EXPECT_EQ(rt::execute(c->module(), o).parallelRegionsReplayed, 1u) << src;
    expectAllModesAgree(c->module(), rt::RunOptions{}, src);
  }
}

TEST(PropertyExecErrors, InstructionBudgetExhaustion) {
  const std::string src = R"(
    proc main() {
      var s = 0;
      for i in 0..#100000 { s = s + i; }
      writeln(s);
    }
  )";
  rt::RunOptions base;
  base.maxInstructions = 5000;  // trips mid-loop, outside any spawn
  expectSourceAgrees(src, base, "budget exhaustion");
}

// Spawn ranges at the edges of the int range. The chunk plan counts trips
// in unsigned arithmetic (the full range has 2^64 iterations) and a spawn
// with more iterations than the instruction budget has left fails before
// planning any task, so each form fails with the budget message on every
// engine: none runs zero iterations, and none allocates a chunk list
// without bound.
void runSpawnRange(const std::string& loop) {
  const std::string src = R"(
    const D = {0..#4};
    var A: [D] int;
    proc main() {
      )" + loop + R"( { A[1] = 1; }
      writeln(A[1]);
    }
  )";
  rt::RunOptions base;
  base.maxInstructions = 100000;
  rt::RunResult r = expectSourceAgrees(src, base, loop);
  EXPECT_FALSE(r.ok) << loop;
  EXPECT_NE(r.error.find("instruction budget exceeded"), std::string::npos) << r.error;
  EXPECT_LT(r.instructionsExecuted, 1000u) << loop;  // refused at the spawn itself
}

TEST(PropertyExecErrors, FullIntRangeForallDoesNotWrapToZeroTrips) {
  runSpawnRange("forall i in (0 - 9223372036854775807)..9223372036854775807");
}

TEST(PropertyExecErrors, NearMaxForallFailsInsteadOfAllocating) {
  runSpawnRange("forall i in 0..9223372036854775806");
}

TEST(PropertyExecErrors, CoforallBeyondBudgetFailsBeforePlanning) {
  runSpawnRange("coforall i in 1..100000000000");
}

// int arithmetic wraps at the edges of int on every engine instead of
// overflowing (undefined behaviour in the host) or trapping: min / -1 and
// min % -1 used to kill the process with SIGFPE.
TEST(PropertyExecErrors, IntEdgeArithmeticWrapsInsteadOfTrapping) {
  const std::string src = R"(
    proc main() {
      var mx = 9223372036854775807;
      var mn = 0 - mx - 1;
      var m1 = 0 - 1;
      writeln(mx + 1, mx * 2, mn / m1, mn % m1, 0 - mn, -mn, abs(mn));
    }
  )";
  rt::RunResult r = expectSourceAgrees(src, {}, "int edges");
  EXPECT_TRUE(r.ok) << r.error;
  const std::string mn = "-9223372036854775808";
  EXPECT_EQ(r.output, mn + " -2 " + mn + " 0 " + mn + " " + mn + " " + mn + "\n");
}

// --config values parse strictly as the config's type on every engine: a
// malformed one fails the run at the config, naming it and the text;
// unknown names are ignored.
TEST(PropertyExecErrors, MalformedConfigValueFailsAtTheConfig) {
  const std::string src = R"(
    config const n = 3;
    config const x = 1.5;
    config const b = false;
    proc main() { writeln(n, x, b); }
  )";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"n", "abc"}, {"n", "2x"},   {"n", ""},    {"n", "1.5"},  {"n", "+-2"},
      {"n", "99999999999999999999"}, {"x", "1.5.2"}, {"x", "e"}, {"b", "ture"},
      {"b", "TRUE"}, {"b", "2"},
  };
  for (const auto& [name, text] : bad) {
    rt::RunOptions o;
    o.configOverrides = {{name, text}};
    rt::RunResult r = expectSourceAgrees(src, o, name + "=" + text);
    EXPECT_FALSE(r.ok) << name << "=" << text;
    EXPECT_NE(r.error.find("config '" + name + "': expected "), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("got '" + text + "'"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("diff.chpl:"), std::string::npos) << r.error;
  }
  rt::RunOptions o;
  o.configOverrides = {{"n", "+7"}, {"x", "-2.5e1"}, {"b", "1"}, {"hereId", "3"}};
  rt::RunResult r = expectSourceAgrees(src, o, "well-formed configs");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.output, "7 -25 true\n");
}

// A run with no worker streams is refused up front by both engines (it used
// to reach a modulo by zero when distributing the first forall's chunks).
TEST(PropertyExecErrors, ZeroWorkersRejectedByBothEngines) {
  auto c = test::compile(R"(
    const D = {0..#8};
    var a: [D] int;
    proc main() { forall i in D { a[i] = i; } }
  )");
  for (bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference" : "bytecode");
    rt::RunOptions o;
    o.numWorkers = 0;
    o.referenceInterp = reference;
    rt::RunResult r = rt::execute(c->module(), o);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("numWorkers"), std::string::npos) << r.error;
    EXPECT_EQ(r.instructionsExecuted, 0u);
  }
}

// ---------------------------------------------------------------------------
// Seeded random modules. The generator composes independent feature blocks —
// disjoint-write foralls, gathers, reductions through captured scalars
// (ineligible), RNG calls (ineligible), records, 2D domains, coforalls,
// nested spawns, writeln in tasks — with seed-derived sizes and constants,
// then the whole program must agree across engines under several sampling
// configurations.
// ---------------------------------------------------------------------------

std::string randomProgram(uint64_t seed, uint32_t minExtent = 16) {
  Rng rng(seed);
  auto pick = [&](uint32_t n) { return rng.nextBounded(n); };
  uint32_t n = minExtent + pick(48);   // array extent
  uint32_t rows = 3 + pick(5), cols = 3 + pick(5);
  std::string s;
  s += "config const scale = " + std::to_string(1 + pick(7)) + ";\n";
  s += "const D = {0..#" + std::to_string(n) + "};\n";
  s += "const G = {0..#" + std::to_string(rows) + ", 0..#" + std::to_string(cols) + "};\n";
  s += "var a: [D] real;\nvar b: [D] real;\nvar c: [D] int;\nvar grid: [G] real;\n";
  s += "record Pt { var px: real; var py: real; }\n";
  s += "var pts: [D] Pt;\n";

  s += "proc initAll() {\n";
  s += "  forall i in D {\n";
  s += "    a[i] = i * 1.5 + " + std::to_string(pick(9)) + ".25;\n";
  s += "    b[i] = 0.0;\n";
  s += "    c[i] = (i * " + std::to_string(1 + pick(5)) + ") % " + std::to_string(n) + ";\n";
  s += "  }\n";
  s += "  forall (r, cc) in G { grid[r, cc] = r * 10.0 + cc; }\n";
  s += "}\n";

  // Eligible: disjoint writes, affine offsets, reads of other arrays.
  s += "proc stencil() {\n";
  s += "  forall i in D {\n";
  s += "    b[i] = a[i] * scale + " + std::to_string(pick(4)) + ".5;\n";
  s += "    pts[i].px = b[i];\n";
  s += "    pts[i].py = a[i] - b[i];\n";
  s += "  }\n";
  s += "}\n";

  // Ineligible: gather through a data-dependent index.
  s += "proc gather() {\n";
  s += "  forall i in D { b[i] = b[i] + a[c[i]]; }\n";
  s += "}\n";

  // Ineligible: reduction through a captured scalar (store via ref capture
  // forces the sequential fallback; the deterministic scheduler makes the
  // serial forall reduction well-defined in every engine).
  s += "proc reduceAll(): real {\n";
  s += "  var total = 0.0;\n";
  s += "  forall i in D { total = total + b[i] + pts[i].px; }\n";
  s += "  return total;\n";
  s += "}\n";

  // Coforall block, per-index tasks.
  uint32_t tasks = 2 + pick(5);
  s += "proc spray() {\n";
  s += "  coforall t in 0..#" + std::to_string(tasks) + " {\n";
  s += "    grid[t % " + std::to_string(rows) + ", t % " + std::to_string(cols) + "] = t * 2.0;\n";
  s += "  }\n";
  s += "}\n";

  // Possibly an RNG-using loop (always ineligible) and task-side writeln.
  bool useRng = pick(2) == 0;
  bool taskPrint = pick(2) == 0;
  s += "proc noise() {\n";
  if (useRng) s += "  forall i in D { a[i] = a[i] + random() * 0.001; }\n";
  if (taskPrint) s += "  forall i in 0..#3 { writeln(\"t\", i); }\n";
  s += "  a[0] = a[0] + 1.0;\n";
  s += "}\n";

  // Nested spawn: outer forall calls nothing, inner loops only (the outer
  // region has calls, so it must fall back; inner spawns run inline).
  s += "proc nested() {\n";
  s += "  forall i in 0..#4 {\n";
  s += "    forall j in D { b[j] = b[j] + 0.125; }\n";
  s += "  }\n";
  s += "}\n";

  uint32_t steps = 1 + pick(3);
  s += "proc main() {\n";
  s += "  initAll();\n";
  s += "  for step in 0..#" + std::to_string(steps) + " {\n";
  s += "    stencil();\n    gather();\n    spray();\n    noise();\n";
  s += "  }\n";
  s += "  nested();\n";
  s += "  var gsum = 0.0;\n";
  s += "  for (r, cc) in G { gsum = gsum + grid[r, cc]; }\n";
  s += "  writeln(\"sum:\", reduceAll(), \" grid:\", gsum);\n";
  s += "}\n";
  return s;
}

class PropertyExecDiffRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyExecDiffRandom, GeneratedModuleBitIdentical) {
  std::string src = randomProgram(GetParam());
  rt::RunOptions base;
  expectSourceAgrees(src, base, "seed " + std::to_string(GetParam()));
}

TEST_P(PropertyExecDiffRandom, GeneratedModuleLowThresholdFewWorkers) {
  std::string src = randomProgram(GetParam() ^ 0x9e3779b97f4a7c15ull);
  rt::RunOptions base;
  base.sampleThreshold = 211;
  base.numWorkers = 3;
  expectSourceAgrees(src, base, "seed' " + std::to_string(GetParam()));
}

TEST_P(PropertyExecDiffRandom, GeneratedModuleLargeRegionsFork) {
  // At this extent every eligible region executes well over
  // kMinForkInstructions (50,000), so the replay forks its streams onto the
  // scheduler and the canonical merge runs on generated programs too; the
  // small extents above replay inline.
  std::string src = randomProgram(GetParam() ^ 0x5bd1e995ull, 16000);
  rt::RunOptions base;
  base.sampleThreshold = 997;
  expectSourceAgrees(src, base, "large seed " + std::to_string(GetParam()));
  // Each test runs in its own process under ctest, so a started worker
  // means this test forked.
  if (Scheduler::instance().width() > 1) EXPECT_GT(Scheduler::instance().threadsStarted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyExecDiffRandom,
                         ::testing::Range<uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Aggregator differential wall: random PGAS gather/scatter programs emitted
// in twin naive/aggregated variants. Each variant runs under {reference
// interp, bytecode ×1/2/4 replay threads} × {1, 2, 4, 8 locales}: all four
// engine modes must produce bit-identical RunLogs, and the aggregated twin
// must land on exactly the final state (checksum) of the naive one — the
// optimization may rebatch the traffic, never change the answer.
// ---------------------------------------------------------------------------

/// Twin generator: same seed -> same tables, same rotated indices, same
/// rounds; `useAgg` only switches the copy statements between plain
/// assignments and Src/DstAggregator `with`-intent copies. Rotation shifts
/// are window permutations, so scatters write each index at most once and
/// the two variants are semantically identical.
std::string aggTwinProgram(uint64_t seed, bool useAgg) {
  Rng rng(seed);
  auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng.nextBounded(n)); };
  auto num = [](uint64_t v) { return std::to_string(v); };
  uint32_t n = 16 * (1 + pick(3));  // 16/32/48: divisible by every locale count
  uint32_t rounds = 1 + pick(3);
  const char* distA = pick(2) ? " dmapped Block" : " dmapped Cyclic";
  const char* distB = pick(2) ? " dmapped Block" : " dmapped Cyclic";
  uint32_t mulA = 1 + pick(6), mulB = 1 + pick(6);

  std::string s;
  s += "const DA = {0..#" + num(n) + "}" + distA + ";\n";
  s += "const DB = {0..#" + num(n) + "}" + distB + ";\n";
  s += "var A: [DA] int;\nvar B: [DB] int;\n";
  s += "var gA: [{0..#" + num(n) + "}] int;\nvar gB: [{0..#" + num(n) + "}] int;\n";

  // Owner-order init: every write stays on the owning locale.
  s += "proc init0() {\n";
  s += "  const chunk = " + num(n) + " / numLocales;\n";
  s += "  for l in 0..#numLocales {\n";
  s += "    on Locales[l] {\n";
  s += "      const lo = l * chunk;\n";
  s += "      for k in lo..#chunk { gA[k] = 0; gB[k] = 0; }\n";
  s += "      for k in lo..#chunk { A[k] = k * " + num(mulA) + " + 1; }\n";
  s += "      for m in 0..#chunk { B[m * numLocales + l] = m * " + num(mulB) + " + 2; }\n";
  s += "    }\n";
  s += "  }\n";
  s += "}\n";

  auto gatherStmt = [&](const char* dst, const char* src) {
    return useAgg ? std::string("      ga.copy(") + dst + ", " + src + ");\n"
                  : std::string("      ") + dst + " = " + src + ";\n";
  };
  auto scatterStmt = [&](const char* dst, const std::string& val) {
    return useAgg ? std::string("      da.copy(") + dst + ", " + val + ")" + ";\n"
                  : std::string("      ") + dst + " = " + val + ";\n";
  };
  const char* gaIntent = useAgg ? " with (var ga = new SrcAggregator(int))" : "";
  const char* daIntent = useAgg ? " with (var da = new DstAggregator(int))" : "";

  s += "proc gather(lo: int, hi: int, chunk: int, shift: int) {\n";
  s += std::string("  forall k in lo..hi") + gaIntent + " {\n";
  s += "      var t = k + shift;\n";
  s += "      if t > hi then t = t - chunk;\n";
  s += gatherStmt("gA[k]", "A[t]");
  s += "  }\n";
  s += std::string("  forall k in lo..hi") + gaIntent + " {\n";
  s += "      var t = k + shift;\n";
  s += "      if t > hi then t = t - chunk;\n";
  s += gatherStmt("gB[k]", "B[t]");
  s += "  }\n";
  s += "}\n";

  s += "proc scatter(lo: int, hi: int, chunk: int, shift: int, round: int) {\n";
  s += std::string("  forall k in lo..hi") + daIntent + " {\n";
  s += "      var t = k + shift;\n";
  s += "      if t > hi then t = t - chunk;\n";
  s += scatterStmt("A[t]", "gB[k] + round");
  s += "  }\n";
  s += std::string("  forall k in lo..hi") + daIntent + " {\n";
  s += "      var t = k + shift;\n";
  s += "      if t > hi then t = t - chunk;\n";
  s += scatterStmt("B[t]", "gA[k] + round");
  s += "  }\n";
  s += "}\n";

  uint32_t sh1 = 1 + pick(5), sh2 = 1 + pick(5);
  s += "proc main() {\n";
  s += "  init0();\n";
  s += "  const chunk = " + num(n) + " / numLocales;\n";
  s += "  for round in 0..#" + num(rounds) + " {\n";
  s += "    for l in 0..#numLocales {\n";
  s += "      on Locales[l] {\n";
  s += "        const lo = l * chunk;\n";
  s += "        const hi = lo + chunk - 1;\n";
  s += "        gather(lo, hi, chunk, (round * " + num(sh1) + " + 1) % chunk);\n";
  s += "        scatter(lo, hi, chunk, (round * " + num(sh2) + " + 2) % chunk, round);\n";
  s += "      }\n";
  s += "    }\n";
  s += "  }\n";
  s += "  var chk = 0;\n";
  s += "  for l in 0..#numLocales {\n";
  s += "    on Locales[l] {\n";
  s += "      const lo = l * chunk;\n";
  s += "      for k in lo..#chunk { chk = chk + A[k] + gA[k] + gB[k]; }\n";
  s += "      for m in 0..#chunk { chk = chk + B[m * numLocales + l]; }\n";
  s += "    }\n";
  s += "  }\n";
  s += "  writeln(\"chk:\", chk);\n";
  s += "}\n";
  return s;
}

/// Like runAllModes but with the full replay-thread ladder (1/2/4).
void expectAggModesAgree(const ir::Module& m, rt::RunOptions base, const std::string& what,
                         std::string* outChecksum) {
  rt::RunOptions ref = base;
  ref.referenceInterp = true;
  rt::RunResult rr = rt::execute(m, ref);
  ASSERT_TRUE(rr.ok) << what << ": " << rr.error;
  for (uint32_t threads : {1u, 2u, 4u}) {
    rt::RunOptions o = base;
    o.referenceInterp = false;
    o.replayThreads = threads;
    rt::RunResult rb = rt::execute(m, o);
    SCOPED_TRACE(what + " [bytecode x" + std::to_string(threads) + "]");
    ASSERT_EQ(rb.ok, rr.ok) << rb.error;
    EXPECT_TRUE(sampling::identical(rr.log, rb.log))
        << sampling::firstDifference(rr.log, rb.log);
    EXPECT_EQ(rb.output, rr.output);
    EXPECT_EQ(rb.totalCycles, rr.totalCycles);
    EXPECT_EQ(rb.instructionsExecuted, rr.instructionsExecuted);
  }
  if (outChecksum) *outChecksum = rr.output;
}

class PropertyAggDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyAggDiff, TwinsAgreeAcrossEnginesThreadsAndLocales) {
  bool anyAggregated = false;  // the shard must exercise real buffered traffic
  for (uint64_t k = 0; k < 3; ++k) {
    uint64_t seed = GetParam() * 3 + k;
    std::string naiveSrc = aggTwinProgram(seed, /*useAgg=*/false);
    std::string aggSrc = aggTwinProgram(seed, /*useAgg=*/true);
    auto cn = fe::Compilation::fromString("naive.chpl", naiveSrc, {});
    auto ca = fe::Compilation::fromString("agg.chpl", aggSrc, {});
    ASSERT_TRUE(cn->ok()) << cn->diags().renderAll() << naiveSrc;
    ASSERT_TRUE(ca->ok()) << ca->diags().renderAll() << aggSrc;
    for (uint32_t locales : {1u, 2u, 4u, 8u}) {
      rt::RunOptions base;
      base.sampleThreshold = 997;
      base.numLocales = locales;
      base.localeId = locales / 2;  // a non-zero rank wherever one exists
      std::string what = "seed " + std::to_string(seed) + " locales " +
                         std::to_string(locales);
      std::string naiveChk, aggChk;
      expectAggModesAgree(cn->module(), base, what + " naive", &naiveChk);
      expectAggModesAgree(ca->module(), base, what + " agg", &aggChk);
      // The aggregated twin computes the identical final state.
      EXPECT_EQ(aggChk, naiveChk) << what << "\n" << aggSrc;
      // And conserves the traffic: every kernel element the naive twin moves
      // with a bare GET/PUT moves through a buffer instead — never twice,
      // never not at all. (Init and checksum code is shared and un-
      // aggregated, so its remote accesses stay naive in both twins.)
      rt::RunOptions probe = base;
      rt::RunResult rn = rt::execute(cn->module(), probe);
      rt::RunResult ra = rt::execute(ca->module(), probe);
      ASSERT_TRUE(rn.ok && ra.ok) << what;
      EXPECT_EQ(ra.log.commAggGets + ra.log.commGets, rn.log.commGets) << what;
      EXPECT_EQ(ra.log.commAggPuts + ra.log.commPuts, rn.log.commPuts) << what;
      EXPECT_EQ(rn.log.commAggGets, 0u) << what;
      EXPECT_EQ(rn.log.commAggPuts, 0u) << what;
      EXPECT_EQ(ra.log.commMatrix, rn.log.commMatrix) << what;
      if (locales > 1) anyAggregated |= ra.log.commAggGets + ra.log.commAggPuts > 0;
    }
  }
  EXPECT_TRUE(anyAggregated) << "no generated program produced aggregated traffic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyAggDiff, ::testing::Range<uint64_t>(0, 6));

// ---------------------------------------------------------------------------
// Bandwidth-ceiling cost profile: the token-bucket and contention charges
// must be bit-identical across engines and replay widths (the stall
// counters are part of sampling::identical), and the new counters must
// actually fire where the model says they should.
// ---------------------------------------------------------------------------

class PropertyBandwidthDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(PropertyBandwidthDiff, CeilingProfileBitIdentical) {
  auto c = fe::Compilation::fromFile(assetProgram(GetParam()), {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll();
  for (bool fastProfile : {false, true}) {
    rt::RunOptions base;
    base.costProfileOverride = rt::CostProfile::bandwidthCeiling(fastProfile);
    base.numLocales = 4;
    base.localeId = 1;
    base.configOverrides["hereId"] = "1";
    expectAllModesAgree(c->module(), base,
                        std::string(GetParam()) + (fastProfile ? " [fast]" : " [std]"));
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, PropertyBandwidthDiff,
                         ::testing::Values("ig_naive", "ig_agg", "minimd_badloc",
                                           "weakscale", "clomp"));

rt::RunResult runCeiling(const char* program, bool ceiling, uint32_t workers,
                         std::map<std::string, std::string> configs = {}) {
  auto c = fe::Compilation::fromFile(assetProgram(program), {});
  EXPECT_TRUE(c->ok()) << c->diags().renderAll();
  rt::RunOptions o;
  if (ceiling) o.costProfileOverride = rt::CostProfile::bandwidthCeiling(false);
  o.numLocales = 4;
  o.localeId = 1;
  o.numWorkers = workers;
  o.configOverrides["hereId"] = "1";
  for (auto& [k, v] : configs) o.configOverrides[k] = v;
  rt::RunResult r = rt::execute(c->module(), o);
  EXPECT_TRUE(r.ok) << program << ": " << r.error;
  return r;
}

TEST(PropertyBandwidthCounters, DefaultProfileChargesNothing) {
  // Without the ceiling all three stall counters stay zero — the model is
  // strictly opt-in, so default profiles are bit-identical to the seed.
  for (const char* program : {"ig_naive", "ig_agg", "weakscale"}) {
    rt::RunResult r = runCeiling(program, /*ceiling=*/false, 1);
    EXPECT_EQ(r.log.commNetStallCycles, 0u) << program;
    EXPECT_EQ(r.log.commMemStallCycles, 0u) << program;
    EXPECT_EQ(r.log.commContentionCycles, 0u) << program;
  }
}

TEST(PropertyBandwidthCounters, BulkFlushesAreBandwidthBound) {
  // Aggregated traffic is where the injection ceiling bites: an ig_agg
  // flush injects up to 64 elements x 8 bytes in one burst, far past what
  // the bucket earns during the flush latency, so net-stall cycles land on
  // the clock — the "bandwidth-bound" half of the comm-counter split — and
  // total time grows past the latency-only run. Bare one-element GETs
  // (ig_naive) stay latency-bound: each 600-cycle round trip earns the
  // bucket more than the 8 bytes the element costs.
  rt::RunResult plain = runCeiling("ig_agg", /*ceiling=*/false, 1);
  rt::RunResult ceil = runCeiling("ig_agg", /*ceiling=*/true, 1);
  EXPECT_GT(ceil.log.commNetStallCycles, 0u);
  EXPECT_GT(ceil.totalCycles, plain.totalCycles);
  // Same traffic, different price: the exact comm counts cannot move.
  EXPECT_EQ(ceil.log.commAggGets, plain.log.commAggGets);
  EXPECT_EQ(ceil.log.commAggPuts, plain.log.commAggPuts);
  EXPECT_EQ(ceil.log.commMatrix, plain.log.commMatrix);
  EXPECT_EQ(ceil.output, plain.output);
  rt::RunResult naive = runCeiling("ig_naive", /*ceiling=*/true, 1);
  EXPECT_EQ(naive.log.commNetStallCycles, 0u);
}

TEST(PropertyBandwidthCounters, SameOwnerStreamTripsContention) {
  // weakscale's exchange loop issues its remote GETs back to back against
  // ONE home locale (~600-cycle spacing, ~12 per 8192-cycle window, free
  // allowance 8), so the hot-spot charge fires. ig_naive's cyclic table
  // rotates the owning locale every element and must never trip it.
  rt::RunResult ring = runCeiling("weakscale", /*ceiling=*/true, 1);
  EXPECT_GT(ring.log.commContentionCycles, 0u);
  rt::RunResult rotating = runCeiling("ig_naive", /*ceiling=*/true, 1);
  EXPECT_EQ(rotating.log.commContentionCycles, 0u);
}

TEST(PropertyBandwidthCounters, MemStallFiresOnlyPastCacheResidency) {
  // clomp_opt's flat zone array at 256 parts x 256 zones is 512KB — past
  // memCacheResidentBytes, so its streaming accesses pay memory-bandwidth
  // stalls once 12 worker streams share the socket rate. The nested
  // original keeps every per-part array cache-resident and must not be
  // charged a single stall cycle.
  std::map<std::string, std::string> cfg = {{"CLOMP_numParts", "256"},
                                            {"CLOMP_zonesPerPart", "256"},
                                            {"CLOMP_timeScale", "1"}};
  rt::RunResult flat = runCeiling("clomp_opt", /*ceiling=*/true, 12, cfg);
  rt::RunResult nested = runCeiling("clomp", /*ceiling=*/true, 12, cfg);
  EXPECT_GT(flat.log.commMemStallCycles, 0u);
  EXPECT_EQ(nested.log.commMemStallCycles, 0u);
  // Every counted stall cycle is also charged: busy cycles exceed the
  // latency-only run's by exactly the stall counters.
  rt::RunResult plain = runCeiling("clomp_opt", /*ceiling=*/false, 12, cfg);
  auto busy = [](const rt::RunResult& r) {
    uint64_t sum = 0;
    for (uint64_t c : r.cyclesPerFunction) sum += c;
    return sum;
  };
  EXPECT_EQ(busy(flat) - busy(plain), flat.log.commMemStallCycles +
                                          flat.log.commNetStallCycles +
                                          flat.log.commContentionCycles);
}

}  // namespace
}  // namespace cb
