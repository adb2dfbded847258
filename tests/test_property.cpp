// Property-style parameterized suites (TEST_P): invariants that must hold
// across programs, thresholds, worker counts and compile modes — plus the
// grammar-based fuzz harness for the PGAS frontend (on / dmapped).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "ir/verifier.h"
#include "sampling/sample.h"
#include "support/rng.h"
#include "test_util.h"

namespace cb {
namespace {

// ---------------------------------------------------------------------------
// Invariants over the whole program corpus.
// ---------------------------------------------------------------------------

class CorpusInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusInvariants, PipelineSucceeds) {
  Profiler p;
  ASSERT_TRUE(p.profileFile(assetProgram(GetParam()))) << p.lastError();
}

TEST_P(CorpusInvariants, BlamePercentagesWithinBounds) {
  Profiler p;
  ASSERT_TRUE(p.profileFile(assetProgram(GetParam()))) << p.lastError();
  const pm::BlameReport& r = *p.blameReport();
  for (const pm::VariableBlame& row : r.rows) {
    EXPECT_GE(row.percent, 0.0) << row.name;
    EXPECT_LE(row.percent, 100.0) << row.name;
    EXPECT_LE(row.sampleCount, r.totalUserSamples) << row.name;
    EXPECT_FALSE(row.name.empty());
    EXPECT_FALSE(row.context.empty());
  }
}

TEST_P(CorpusInvariants, NoCompilerTempsInReport) {
  Profiler p;
  ASSERT_TRUE(p.profileFile(assetProgram(GetParam()))) << p.lastError();
  for (const pm::VariableBlame& row : p.blameReport()->rows) {
    EXPECT_EQ(row.name.rfind("_tmp", 0), std::string::npos) << row.name;
    EXPECT_EQ(row.name.find("chunk_"), std::string::npos) << row.name;
    EXPECT_EQ(row.name.find("_iter"), std::string::npos) << row.name;
  }
}

TEST_P(CorpusInvariants, CodeCentricSelfPartitionsSamples) {
  Profiler p;
  ASSERT_TRUE(p.profileFile(assetProgram(GetParam()))) << p.lastError();
  uint64_t sum = 0;
  for (const auto& row : p.codeReport()->rows) sum += row.self;
  EXPECT_EQ(sum, p.codeReport()->totalSamples);
}

TEST_P(CorpusInvariants, DeterministicEndToEnd) {
  Profiler a, b;
  ASSERT_TRUE(a.profileFile(assetProgram(GetParam())));
  ASSERT_TRUE(b.profileFile(assetProgram(GetParam())));
  EXPECT_EQ(a.runResult()->totalCycles, b.runResult()->totalCycles);
  EXPECT_EQ(a.runResult()->output, b.runResult()->output);
  ASSERT_EQ(a.blameReport()->rows.size(), b.blameReport()->rows.size());
  for (size_t i = 0; i < a.blameReport()->rows.size(); ++i) {
    EXPECT_EQ(a.blameReport()->rows[i].name, b.blameReport()->rows[i].name);
    EXPECT_EQ(a.blameReport()->rows[i].sampleCount, b.blameReport()->rows[i].sampleCount);
  }
}

TEST_P(CorpusInvariants, StaticBlameSetsInvertConsistently) {
  Profiler p;
  ASSERT_TRUE(p.profileFile(assetProgram(GetParam())));
  const ir::Module& m = p.compilation()->module();
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    const an::FunctionBlame& fb = p.moduleBlame()->fn(f);
    ASSERT_EQ(fb.blameInstrs.size(), fb.entities.size());
    ASSERT_EQ(fb.regionInstrs.size(), fb.entities.size());
    for (an::EntityId e = 0; e < fb.entities.size(); ++e) {
      for (ir::InstrId i : fb.blameInstrs[e]) {
        ASSERT_LT(i, fb.instrEntities.size());
        const auto& ents = fb.instrEntities[i];
        EXPECT_NE(std::find(ents.begin(), ents.end(), e), ents.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, CorpusInvariants,
                         ::testing::Values("example", "clomp", "clomp_opt", "minimd",
                                           "minimd_opt", "lulesh"));

// ---------------------------------------------------------------------------
// Sampling-threshold sweep: sample counts scale inversely; attribution of
// the dominant variable stays stable.
// ---------------------------------------------------------------------------

class ThresholdSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThresholdSweep, SampleCountTracksThreshold) {
  Profiler p;
  p.options().run.sampleThreshold = GetParam();
  ASSERT_TRUE(p.profileFile(assetProgram("clomp"))) << p.lastError();
  uint64_t samples = p.runResult()->log.samples.size();
  // Total busy cycles across streams is roughly streams x wall; expect the
  // sample count within a factor of 4 of cycles/threshold (idle emission
  // and per-stream remainders make it inexact).
  uint64_t wall = p.runResult()->totalCycles;
  uint64_t lower = wall / GetParam() / 2;
  uint64_t upper = 16 * wall / GetParam() + 64;
  EXPECT_GE(samples, lower);
  EXPECT_LE(samples, upper);
}

TEST_P(ThresholdSweep, DominantVariableStable) {
  Profiler p;
  p.options().run.sampleThreshold = GetParam();
  ASSERT_TRUE(p.profileFile(assetProgram("clomp"))) << p.lastError();
  const pm::VariableBlame* row = p.blameReport()->find("partArray");
  ASSERT_NE(row, nullptr);
  EXPECT_GT(row->percent, 90.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(997, 9973, 49999, 99991));

// ---------------------------------------------------------------------------
// Worker-count sweep: semantics invariant, wall time non-increasing from 1
// worker to many.
// ---------------------------------------------------------------------------

class WorkerSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WorkerSweep, OutputInvariant) {
  Profiler p;
  p.options().run.numWorkers = GetParam();
  p.options().run.sampleThreshold = 0;
  ASSERT_TRUE(p.compileFile(assetProgram("minimd")) && p.run()) << p.lastError();
  Profiler ref;
  ref.options().run.sampleThreshold = 0;
  ASSERT_TRUE(ref.compileFile(assetProgram("minimd")) && ref.run());
  EXPECT_EQ(p.runResult()->output, ref.runResult()->output);
}

TEST_P(WorkerSweep, MoreWorkersNeverSlower) {
  uint32_t w = GetParam();
  if (w == 1) return;
  auto cyclesWith = [&](uint32_t workers) {
    Profiler p;
    p.options().run.numWorkers = workers;
    p.options().run.sampleThreshold = 0;
    EXPECT_TRUE(p.compileFile(assetProgram("minimd")) && p.run());
    return p.runResult()->totalCycles;
  };
  EXPECT_LE(cyclesWith(w), cyclesWith(1));
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerSweep, ::testing::Values(1u, 2u, 4u, 12u, 32u));

// ---------------------------------------------------------------------------
// Compile-mode matrix: every program produces identical output with and
// without --fast (the pipeline must be semantics-preserving). The int-edge
// inputs are expressions the --fast folder evaluates at compile time and
// the engines at run time: both must apply the one wrapping int rule.
// ---------------------------------------------------------------------------

const std::map<std::string, std::string>& intEdgeSources() {
  static const std::map<std::string, std::string> sources = {
      {"min_div_neg1",
       "proc main() { var x = (0 - 9223372036854775807 - 1) / (0 - 1); writeln(x); }"},
      {"max_plus_1", "proc main() { var x = 9223372036854775807 + 1; writeln(x); }"},
      {"sub_min", "proc main() { var x = 0 - (0 - 9223372036854775807 - 1); writeln(x); }"},
      {"abs_min", "proc main() { var x = abs(0 - 9223372036854775807 - 1); writeln(x); }"},
  };
  return sources;
}

/// Compiles a bundled program, or one of the int-edge sources by name.
bool compileInput(Profiler& p, const std::string& name) {
  auto it = intEdgeSources().find(name);
  if (it != intEdgeSources().end()) return p.compileString(name + ".chpl", it->second);
  return p.compileFile(assetProgram(name));
}

class FastModeMatrix : public ::testing::TestWithParam<const char*> {};

TEST_P(FastModeMatrix, OutputsMatch) {
  Profiler plain, fast;
  plain.options().run.sampleThreshold = 0;
  fast.options().run.sampleThreshold = 0;
  fast.options().compile.fast = true;
  ASSERT_TRUE(compileInput(plain, GetParam()) && plain.run()) << plain.lastError();
  ASSERT_TRUE(compileInput(fast, GetParam()) && fast.run()) << fast.lastError();
  EXPECT_EQ(plain.runResult()->output, fast.runResult()->output);
}

TEST_P(FastModeMatrix, FastRunsFewerInstructions) {
  Profiler plain, fast;
  plain.options().run.sampleThreshold = 0;
  fast.options().run.sampleThreshold = 0;
  fast.options().compile.fast = true;
  ASSERT_TRUE(compileInput(plain, GetParam()) && plain.run());
  ASSERT_TRUE(compileInput(fast, GetParam()) && fast.run());
  EXPECT_LE(fast.runResult()->instructionsExecuted, plain.runResult()->instructionsExecuted);
}

INSTANTIATE_TEST_SUITE_P(Programs, FastModeMatrix,
                         ::testing::Values("example", "clomp", "clomp_opt", "minimd",
                                           "minimd_opt", "lulesh"));
INSTANTIATE_TEST_SUITE_P(IntEdges, FastModeMatrix,
                         ::testing::Values("min_div_neg1", "max_plus_1", "sub_min", "abs_min"));

// ---------------------------------------------------------------------------
// CLOMP size sweep: the optimized variant must win at every problem shape,
// and outputs must agree pairwise.
// ---------------------------------------------------------------------------

struct ClompShape {
  int parts, zones;
};

class ClompShapeSweep : public ::testing::TestWithParam<ClompShape> {};

TEST_P(ClompShapeSweep, OptimizedMatchesAndWins) {
  auto run = [&](const char* prog) {
    Profiler p;
    p.options().run.sampleThreshold = 0;
    p.options().run.configOverrides["CLOMP_numParts"] = std::to_string(GetParam().parts);
    p.options().run.configOverrides["CLOMP_zonesPerPart"] = std::to_string(GetParam().zones);
    p.options().run.configOverrides["CLOMP_timeScale"] = "1";
    EXPECT_TRUE(p.compileFile(assetProgram(prog)) && p.run()) << p.lastError();
    return std::pair<std::string, uint64_t>(p.runResult()->output,
                                            p.runResult()->totalCycles);
  };
  auto [outO, cyclesO] = run("clomp");
  auto [outP, cyclesP] = run("clomp_opt");
  EXPECT_EQ(outO, outP);
  EXPECT_LT(cyclesP, cyclesO);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ClompShapeSweep,
                         ::testing::Values(ClompShape{4, 64}, ClompShape{64, 16},
                                           ClompShape{256, 4}, ClompShape{16, 256},
                                           ClompShape{1, 1024}));

// ---------------------------------------------------------------------------
// Grammar-based fuzzing of the PGAS frontend: a seeded generator over the
// mini-Chapel grammar — distributed (`dmapped Block`/`Cyclic`) and plain
// domains, `on Locales[e]` blocks (nested, `here.id`-relative, out-of-range
// targets that wrap), foralls, gathers, procedure calls, reductions, and
// Src/DstAggregator `with`-intent copies (buffered remote transfers).
// Every generated program must (a) get through parse + sema without
// crashing, (b) lower to a module the IR verifier accepts, and (c) execute
// bit-identically on the bytecode engine and the tree-walking reference
// oracle — RunLog (including the comm GET/PUT/fork counters), output and
// cycle totals. CI runs 10 shards x 50 programs = 500 programs.
// ---------------------------------------------------------------------------

std::string fuzzPgasProgram(uint64_t seed) {
  Rng rng(seed);
  auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng.nextBounded(n)); };
  auto num = [](uint64_t v) { return std::to_string(v); };
  uint32_t n = 8 + pick(40);  // array extent, kept small: 500 programs must be cheap
  const char* dists[] = {"", " dmapped Block", " dmapped Cyclic"};
  std::string s;
  s += "const D = {0..#" + num(n) + "}" + dists[pick(3)] + ";\n";
  s += "const E = {0..#" + num(n) + "}" + dists[pick(3)] + ";\n";
  s += "var a: [D] real;\nvar b: [E] real;\nvar c: [D] int;\n";
  s += "var g: [{0..#" + num(n) + "}] real;\n";  // plain staging array for aggregators

  s += "proc fill() {\n";
  s += "  forall i in D {\n";
  s += "    a[i] = i * " + num(1 + pick(5)) + ".5;\n";
  s += "    b[i] = i + 0.25;\n";
  s += "    c[i] = (i * " + num(1 + pick(7)) + ") % " + num(n) + ";\n";
  s += "  }\n";
  s += "}\n";

  // A callable kernel: calls inside `on` bodies exercise the locale
  // save/restore on function entry/exit in both engines.
  s += "proc sweep(lo: int, hi: int) {\n";
  s += "  for i in lo..hi {\n";
  s += "    b[i] = b[i] + a[i] * 0.5 + a[c[i]] * 0.125;\n";
  s += "  }\n";
  s += "}\n";

  // Random `on` targets: fixed locale, here-relative, or deliberately past
  // numLocales (the runtime wraps the target, so this must stay valid).
  const char* targets[] = {"0", "1", "2", "here.id", "here.id + 1", "numLocales - 1", "7"};
  uint32_t mid = n / 2;
  std::string body;
  uint32_t stmts = 1 + pick(3);
  for (uint32_t k = 0; k < stmts; ++k) {
    switch (pick(7)) {
      case 0:
        body += "    sweep(0, " + num(mid) + ");\n";
        break;
      case 1:
        body += "    sweep(" + num(mid) + ", " + num(n - 1) + ");\n";
        break;
      case 2:
        body += "    forall i in E { b[i] = b[i] + " + num(pick(3)) + ".5; }\n";
        break;
      case 3:
        body += "    for i in 0..#" + num(n) + " { a[i] = a[i] + b[i] * 0.25; }\n";
        break;
      case 4:
        // Aggregated gather: remote reads of a distributed table batched
        // into a plain staging array through a SrcAggregator task intent.
        body += "    forall i in D with (var ga = new SrcAggregator(real)) { "
                "ga.copy(g[i], a[i]); }\n";
        break;
      case 5:
        // Aggregated scatter: disjoint remote writes through a
        // DstAggregator (each index written once, so flush order is moot).
        body += "    forall i in E with (var da = new DstAggregator(real)) { "
                "da.copy(b[i], g[i] + " + num(pick(3)) + ".25); }\n";
        break;
      default:
        body += "    if here.id == " + num(pick(4)) + " { a[0] = a[0] + 1.0; }\n";
        break;
    }
  }
  s += "proc step() {\n";
  s += "  on Locales[" + std::string(targets[pick(7)]) + "] {\n" + body + "  }\n";
  if (pick(2) == 0) {
    // Nested `on`: re-targets from inside a remote block, then falls back.
    s += "  on Locales[" + std::string(targets[pick(7)]) + "] {\n";
    s += "    on Locales[here.id + " + num(1 + pick(2)) + "] { b[0] = b[0] + 0.5; }\n";
    s += "    a[" + num(n - 1) + "] = a[" + num(n - 1) + "] + 1.0;\n";
    s += "  }\n";
  }
  s += "}\n";

  s += "proc main() {\n";
  s += "  fill();\n";
  s += "  for t in 0..#" + num(1 + pick(3)) + " {\n";
  s += "    step();\n";
  if (pick(2) == 0) s += "    for l in 0..#numLocales { on Locales[l] { sweep(0, " + num(n - 1) + "); } }\n";
  s += "  }\n";
  s += "  var chk = 0.0;\n";
  s += "  for i in 0..#" + num(n) + " { chk = chk + a[i] + b[i] + c[i] + g[i]; }\n";
  s += "  writeln(\"chk:\", chk);\n";
  s += "}\n";
  return s;
}

class PropertyPgasFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyPgasFuzz, FiftyProgramsVerifyAndMatchOracle) {
  for (uint64_t k = 0; k < 50; ++k) {
    uint64_t seed = GetParam() * 50 + k;
    std::string src = fuzzPgasProgram(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto c = fe::Compilation::fromString("fuzz.chpl", src, {});
    ASSERT_TRUE(c->ok()) << c->diags().renderAll() << "\n" << src;
    ASSERT_TRUE(ir::verifyModule(c->module()).empty()) << src;

    Rng rng(seed ^ 0xABCDEF);
    rt::RunOptions o;
    o.sampleThreshold = 997;
    o.numWorkers = 4;
    o.numLocales = 1 + static_cast<uint32_t>(rng.nextBounded(4));
    o.localeId = static_cast<uint32_t>(rng.nextBounded(o.numLocales));
    rt::RunOptions ref = o;
    ref.referenceInterp = true;
    rt::RunResult rb = rt::execute(c->module(), o);
    rt::RunResult rr = rt::execute(c->module(), ref);
    ASSERT_EQ(rb.ok, rr.ok) << rb.error << " vs " << rr.error << "\n" << src;
    ASSERT_TRUE(rb.ok) << rb.error << "\n" << src;
    ASSERT_TRUE(sampling::identical(rr.log, rb.log))
        << sampling::firstDifference(rr.log, rb.log) << "\n" << src;
    ASSERT_EQ(rb.output, rr.output) << src;
    ASSERT_EQ(rb.totalCycles, rr.totalCycles) << src;
    ASSERT_EQ(rb.instructionsExecuted, rr.instructionsExecuted) << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PropertyPgasFuzz, ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace cb
