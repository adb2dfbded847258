// Locality & race lint (runtime/lint.h, `cb --lint`):
//
//  - Exact-parity properties: lint's predicted comm counters and locale-pair
//    matrix equal the reference interpreter's RunLog, bit-for-bit, on the
//    whole program corpus and on fuzz-generated PGAS programs. Lint runs on
//    the bytecode engine, so this checks it against code it does not share.
//  - Acceptance findings: minimd_badloc flags the Cyclic mis-distribution
//    with a `dmapped Block` suggestion, ig_naive gets missing-aggregator
//    findings, weakscale lints clean.
//  - Robustness: the linter never crashes — parser-recovered modules,
//    runtime-failing programs and instruction-budget exhaustion all produce
//    a partial report with `error`/`truncated` set.
//  - Race-fallback accounting: RunLog::raceFallbackRegions is pinned per
//    corpus program and invariant across replay widths.
//  - The static-vs-dynamic differential (rpt::lintView) stays quiet where
//    prediction matches measurement and flags attribution divergences.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/locality.h"
#include "cb_config.h"
#include "runtime/lint.h"
#include "ir/verifier.h"
#include "report/views.h"
#include "sampling/sample.h"
#include "support/rng.h"
#include "test_util.h"

namespace cb {
namespace {

/// Runs the reference interpreter and the lint over the same module with
/// the same locale view, and asserts every exact-parity invariant: naive
/// GET/PUT counts, aggregated transfer counts, on-fork counts, and the full
/// locale-pair communication matrix.
void expectExactParity(const ir::Module& m, uint32_t numLocales, uint32_t localeId,
                       uint64_t rngSeed = 0x5eedULL) {
  rt::RunOptions o;
  o.sampleThreshold = 0;
  o.numLocales = numLocales;
  o.localeId = localeId;
  o.rngSeed = rngSeed;
  o.referenceInterp = true;
  rt::RunResult r = rt::execute(m, o);
  ASSERT_TRUE(r.ok) << r.error;

  an::loc::LintReport lint = rt::lint(m, o);
  ASSERT_TRUE(lint.ok);
  EXPECT_TRUE(lint.error.empty()) << lint.error;
  EXPECT_FALSE(lint.truncated);

  EXPECT_EQ(lint.predictedGets, r.log.commGets);
  EXPECT_EQ(lint.predictedPuts, r.log.commPuts);
  EXPECT_EQ(lint.predictedAggGets, r.log.commAggGets);
  EXPECT_EQ(lint.predictedAggPuts, r.log.commAggPuts);
  EXPECT_EQ(lint.predictedOnForks, r.log.commOnForks);

  std::map<uint64_t, uint64_t> predictedMatrix;
  for (const an::loc::ArrayStats& a : lint.arrays)
    for (const auto& [key, count] : a.pairTransfers) predictedMatrix[key] += count;
  EXPECT_EQ(predictedMatrix, r.log.commMatrix);
}

const an::loc::Finding* findKind(const an::loc::LintReport& r, an::loc::FindingKind k,
                                 const std::string& variable = "") {
  for (const an::loc::Finding& f : r.findings)
    if (f.kind == k && (variable.empty() || f.variable == variable)) return &f;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Exact parity over the whole bundled corpus.
// ---------------------------------------------------------------------------

class LintCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(LintCorpus, PredictsCommCountersExactly) {
  Profiler p;
  ASSERT_TRUE(p.compileFile(assetProgram(GetParam()))) << p.lastError();
  expectExactParity(p.compilation()->module(), 4, 0);
}

TEST_P(LintCorpus, PredictsFromEveryHomeLocale) {
  Profiler p;
  ASSERT_TRUE(p.compileFile(assetProgram(GetParam()))) << p.lastError();
  expectExactParity(p.compilation()->module(), 4, 3);
  expectExactParity(p.compilation()->module(), 2, 1);
}

TEST_P(LintCorpus, SingleLocalePredictsNoComm) {
  Profiler p;
  ASSERT_TRUE(p.compileFile(assetProgram(GetParam()))) << p.lastError();
  rt::RunOptions o;
  o.numLocales = 1;
  an::loc::LintReport r = rt::lint(p.compilation()->module(), o);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.predictedGets, 0u);
  EXPECT_EQ(r.predictedPuts, 0u);
  EXPECT_EQ(r.predictedAggGets, 0u);
  EXPECT_EQ(r.predictedAggPuts, 0u);
}

TEST_P(LintCorpus, ViewRendersWithoutMeasuredProfile) {
  Profiler p;
  p.options().run.numLocales = 4;
  ASSERT_TRUE(p.compileFile(assetProgram(GetParam()))) << p.lastError();
  std::string v = p.lintText();
  EXPECT_NE(v.find("Lint — static locality & race analysis"), std::string::npos);
  EXPECT_NE(v.find("Predicted comm:"), std::string::npos);
  // Path independence: rendered locations are basenames, never absolute.
  EXPECT_EQ(v.find(std::string(kGoldenDir).substr(0, 5)), std::string::npos);
  EXPECT_EQ(v.find("/root"), std::string::npos);
  EXPECT_EQ(v.find("assets/"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Programs, LintCorpus,
                         ::testing::Values("example", "minimd", "minimd_opt",
                                           "minimd_blockloc", "minimd_badloc", "clomp",
                                           "clomp_opt", "lulesh", "weakscale", "ig_naive",
                                           "ig_agg"));

// ---------------------------------------------------------------------------
// Acceptance findings on the three showcase programs.
// ---------------------------------------------------------------------------

an::loc::LintReport lintAsset(const char* program, uint32_t numLocales = 4) {
  Profiler p;
  p.options().run.numLocales = numLocales;
  EXPECT_TRUE(p.compileFile(assetProgram(program))) << p.lastError();
  return p.lintReport();
}

TEST(Lint, BadlocFlagsCyclicMisdistribution) {
  an::loc::LintReport r = lintAsset("minimd_badloc");
  for (const char* var : {"Pos", "Force", "Vel"}) {
    const an::loc::Finding* f =
        findKind(r, an::loc::FindingKind::DistributionMismatch, var);
    ASSERT_NE(f, nullptr) << var << " has no mis-distribution finding";
    // >= 50% of accesses predicted remote, and the swap suggestion names Block.
    EXPECT_GE(f->predictedRemoteFraction, 0.5) << var;
    EXPECT_LT(f->counterfactualRemoteFraction, f->predictedRemoteFraction) << var;
    EXPECT_NE(f->message.find("dmapped Block"), std::string::npos) << f->message;
    EXPECT_NE(f->message.find("remote"), std::string::npos) << f->message;
  }
}

TEST(Lint, BlocklocTwinLintsWithoutMisdistribution) {
  // The well-distributed twin of minimd_badloc: same kernels, Block layout.
  an::loc::LintReport r = lintAsset("minimd_blockloc");
  EXPECT_EQ(findKind(r, an::loc::FindingKind::DistributionMismatch), nullptr);
}

TEST(Lint, IgNaiveSuggestsAggregators) {
  an::loc::LintReport r = lintAsset("ig_naive");
  const an::loc::Finding* put =
      findKind(r, an::loc::FindingKind::MissingAggregator, "ACyc");
  ASSERT_NE(put, nullptr);
  EXPECT_NE(put->message.find("DstAggregator"), std::string::npos) << put->message;
  bool src = false;
  for (const an::loc::Finding& f : r.findings)
    src |= f.message.find("SrcAggregator") != std::string::npos;
  EXPECT_TRUE(src) << "no SrcAggregator suggestion for the gather side";
}

TEST(Lint, IgAggTwinHasNoAggregatorFinding) {
  // Same kernels routed through Src/DstAggregator intents: the naive remote
  // traffic is gone, so the missing-aggregator finding must not fire.
  an::loc::LintReport r = lintAsset("ig_agg");
  EXPECT_EQ(findKind(r, an::loc::FindingKind::MissingAggregator), nullptr);
  uint64_t agg = 0;
  for (const an::loc::ArrayStats& a : r.arrays) agg += a.aggGets + a.aggPuts;
  EXPECT_GT(agg, 0u);
}

TEST(Lint, WeakscaleLintsClean) {
  an::loc::LintReport r = lintAsset("weakscale");
  EXPECT_TRUE(r.findings.empty());
}

TEST(Lint, IgNaiveScatterRegionsMayRace) {
  an::loc::LintReport r = lintAsset("ig_naive");
  size_t mayRace = 0, raceFree = 0;
  for (const an::loc::RegionReport& reg : r.regions) {
    EXPECT_TRUE(reg.executed);
    if (reg.verdict.raceFree) {
      ++raceFree;
    } else {
      ++mayRace;
      EXPECT_FALSE(reg.verdict.reason.empty());
    }
  }
  // Two gather foralls prove race-free, two rotated-scatter foralls do not.
  EXPECT_EQ(raceFree, 2u);
  EXPECT_EQ(mayRace, 2u);
  EXPECT_NE(findKind(r, an::loc::FindingKind::MayRaceRegion), nullptr);
}

// ---------------------------------------------------------------------------
// Robustness: the linter never crashes.
// ---------------------------------------------------------------------------

TEST(Lint, RuntimeFailureYieldsPartialReport) {
  // Division by zero aborts the run midway; the report keeps the
  // statistics accumulated up to that point and says why it stopped.
  auto c = test::compile(R"(var A: [{0..#8}] int;
proc main() {
  A[0] = 1;
  var z = 0;
  A[1] = A[0] / z;
  A[2] = 9;
}
)");
  an::loc::LintReport r = rt::lint(c->module());
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.error.empty());
  ASSERT_EQ(r.arrays.size(), 1u);
  EXPECT_GE(r.arrays[0].accesses, 2u);  // the accesses before the fault
}

TEST(Lint, StepBudgetTruncatesInsteadOfRunningAway) {
  Profiler p;
  ASSERT_TRUE(p.compileFile(assetProgram("clomp"))) << p.lastError();
  rt::RunOptions o;
  o.maxInstructions = 5000;
  an::loc::LintReport r = rt::lint(p.compilation()->module(), o);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.truncated);
  EXPECT_LE(r.steps, o.maxInstructions + 64);
  EXPECT_NE(findKind(r, an::loc::FindingKind::AnalysisTruncated), nullptr);
}

TEST(Lint, ErroneousModulesNeverCrash) {
  // Lex/parse failures stop before lowering: no IR exists (hasModule() is
  // false) and there is nothing to lint. Failures *during* lowering leave a
  // partial module behind — lint over it must not crash and must come back
  // with ok set (possibly with an abort note).
  const char* broken[] = {
      "proc main() { var x = ; }",                       // parse error, no module
      "var A: [{0..#4}] int;\nproc main() { A[ }",       // parse error, no module
      "proc main() { x = 1; }",                          // undeclared identifier
      "proc main() { var y = noSuchProc(); }",           // unknown call
      "proc f(a: int) { }\nproc main() { f(); }",        // arity mismatch
      "var A: [{0..#4}] int;\nproc main() { A[0] = nope; }",
  };
  size_t linted = 0;
  for (const char* src : broken) {
    SCOPED_TRACE(src);
    auto c = fe::Compilation::fromString("broken.chpl", src, {});
    EXPECT_FALSE(c->ok());
    if (!c->hasModule()) continue;
    an::loc::LintReport r = rt::lint(c->module());
    EXPECT_TRUE(r.ok);
    ++linted;
  }
  EXPECT_GE(linted, 3u);  // the lowering-failure cases really produced IR
}

TEST(Lint, OutOfBoundsProgramAbortsSoftly) {
  auto c = test::compile(R"(var A: [{0..#4}] int;
proc main() {
  for i in 0..#8 { A[i] = i; }
}
)");
  an::loc::LintReport r = rt::lint(c->module());
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

// ---------------------------------------------------------------------------
// Race-fallback accounting (RunLog::raceFallbackRegions).
// ---------------------------------------------------------------------------

TEST(Lint, RaceFallbackRegionsPinnedPerProgram) {
  // Executed region entries whose task function the shared prover
  // (analysis/race.h) could not clear. Pinned empirically: the corpus
  // programs do contain unprovable regions (reduction-shaped foralls,
  // rotated scatters), so — deviating from the original issue sketch, which
  // assumed zero — the assertion is that the counter is *stable*, and zero
  // exactly where the program really has no unprovable region. MiniMD's
  // remaining entry is initAtoms (it draws from the RNG); LULESH's six are
  // IntegrateStressForElems and CalcFBHourglassForceForElems, whose
  // `fx[c(k)] +=` scatters really do collide on shared nodes.
  const std::pair<const char*, uint64_t> expected[] = {
      {"example", 0},   {"minimd", 1},      {"minimd_opt", 1},
      {"minimd_blockloc", 0}, {"minimd_badloc", 0}, {"clomp", 0},
      {"clomp_opt", 0}, {"lulesh", 6},      {"weakscale", 0},
      {"ig_naive", 32},  {"ig_agg", 64},
  };
  for (const auto& [name, count] : expected) {
    SCOPED_TRACE(name);
    Profiler p;
    ASSERT_TRUE(p.compileFile(assetProgram(name)) && p.analyze() && p.run())
        << p.lastError();
    EXPECT_EQ(p.runResult()->log.raceFallbackRegions, count);
  }
}

TEST(Lint, RaceFallbackInvariantAcrossReplayWidths) {
  for (const char* name : {"minimd", "ig_naive"}) {
    SCOPED_TRACE(name);
    uint64_t counts[3];
    size_t k = 0;
    for (uint32_t threads : {1u, 2u, 4u}) {
      Profiler p;
      p.options().run.replayThreads = threads;
      ASSERT_TRUE(p.compileFile(assetProgram(name)) && p.analyze() && p.run());
      counts[k++] = p.runResult()->log.raceFallbackRegions;
    }
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_EQ(counts[0], counts[2]);
  }
}

// ---------------------------------------------------------------------------
// Fuzz harness: generated PGAS programs. Race-free regions replay
// bit-identically at any width, the lint never crashes, and its predictions
// stay exact.
// ---------------------------------------------------------------------------

std::string fuzzLintProgram(uint64_t seed) {
  Rng rng(seed);
  auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng.nextBounded(n)); };
  auto num = [](uint64_t v) { return std::to_string(v); };
  uint32_t n = 8 + pick(24);
  const char* dists[] = {"", " dmapped Block", " dmapped Cyclic"};
  std::string s;
  s += "const D = {0..#" + num(n) + "}" + dists[pick(3)] + ";\n";
  s += "const E = {0..#" + num(n) + "}" + dists[pick(3)] + ";\n";
  s += "var a: [D] real;\nvar b: [E] real;\nvar g: [{0..#" + num(n) + "}] real;\n";
  s += "proc fill() {\n  forall i in D { a[i] = i * 0.5; b[i] = i + 0.25; }\n}\n";
  std::string body;
  uint32_t stmts = 1 + pick(3);
  for (uint32_t k = 0; k < stmts; ++k) {
    switch (pick(5)) {
      case 0:
        body += "    forall i in E { b[i] = b[i] + " + num(pick(3)) + ".5; }\n";
        break;
      case 1:
        body += "    for i in 0..#" + num(n) + " { a[i] = a[i] + b[i] * 0.25; }\n";
        break;
      case 2:
        body += "    forall i in D with (var ga = new SrcAggregator(real)) { "
                "ga.copy(g[i], a[i]); }\n";
        break;
      case 3:
        body += "    forall i in E with (var da = new DstAggregator(real)) { "
                "da.copy(b[i], g[i] + 0.25); }\n";
        break;
      default:
        body += "    if here.id == " + num(pick(4)) + " { a[0] = a[0] + 1.0; }\n";
        break;
    }
  }
  const char* targets[] = {"0", "1", "here.id", "here.id + 1", "numLocales - 1"};
  s += "proc step() {\n  on Locales[" + std::string(targets[pick(5)]) + "] {\n" + body +
       "  }\n}\n";
  s += "proc main() {\n  fill();\n  for t in 0..#" + num(1 + pick(2)) + " { step(); }\n";
  s += "  var chk = 0.0;\n";
  s += "  for i in 0..#" + num(n) + " { chk = chk + a[i] + b[i] + g[i]; }\n";
  s += "  writeln(\"chk:\", chk);\n}\n";
  return s;
}

class LintFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LintFuzz, TwentyProgramsPredictExactlyAndReplayIdentically) {
  for (uint64_t k = 0; k < 20; ++k) {
    uint64_t seed = 7000 + GetParam() * 20 + k;
    std::string src = fuzzLintProgram(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto c = fe::Compilation::fromString("lintfuzz.chpl", src, {});
    ASSERT_TRUE(c->ok()) << c->diags().renderAll() << "\n" << src;
    ASSERT_TRUE(ir::verifyModule(c->module()).empty()) << src;

    Rng rng(seed ^ 0x11A7);
    uint32_t numLocales = 1 + static_cast<uint32_t>(rng.nextBounded(4));
    uint32_t localeId = static_cast<uint32_t>(rng.nextBounded(numLocales));
    expectExactParity(c->module(), numLocales, localeId);

    // Race-free ⇒ bit-identical replay at any width; regions the prover
    // could not clear serialize, so the log is width-invariant regardless.
    rt::RunOptions o;
    o.sampleThreshold = 997;
    o.numLocales = numLocales;
    o.localeId = localeId;
    rt::RunResult r1 = rt::execute(c->module(), o);
    o.replayThreads = 4;
    rt::RunResult r4 = rt::execute(c->module(), o);
    ASSERT_TRUE(r1.ok && r4.ok) << r1.error << r4.error << "\n" << src;
    ASSERT_TRUE(sampling::identical(r1.log, r4.log))
        << sampling::firstDifference(r1.log, r4.log) << "\n" << src;
    ASSERT_EQ(r1.output, r4.output) << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LintFuzz, ::testing::Range<uint64_t>(0, 3));

// ---------------------------------------------------------------------------
// Golden lint fixtures: the full `cb --lint` text of the three showcase
// programs, pinned byte-for-byte under tests/golden/ (locations render as
// basenames, so the fixtures are checkout-path independent). Regenerate
// with `cb_tests --update-golden`.
// ---------------------------------------------------------------------------

std::string lintGoldenPath(const std::string& program) {
  return std::string(kGoldenDir) + "/" + program + "_lint.txt";
}

class LintGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(LintGolden, LintTextMatchesFixture) {
  Profiler p;  // compile only — exactly what `cb --lint <prog>` prints
  p.options().run.numLocales = 4;
  ASSERT_TRUE(p.compileFile(assetProgram(GetParam()))) << p.lastError();
  std::string rendered = p.lintText();
  std::string path = lintGoldenPath(GetParam());
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
      << "golden lint mismatch for " << GetParam()
      << "; if intentional, regenerate with `cb_tests --update-golden`";
}

INSTANTIATE_TEST_SUITE_P(Programs, LintGolden,
                         ::testing::Values("minimd_badloc", "ig_naive", "weakscale"));

// Lint is a run that replays sequentially whatever the requested width, and
// always on the bytecode engine: its text cannot depend on either knob.
TEST(Lint, TextIdenticalAcrossReplayWidthsAndEngineFlag) {
  for (const char* program : {"ig_naive", "minimd_badloc", "lulesh"}) {
    SCOPED_TRACE(program);
    std::string texts[3];
    for (int k = 0; k < 3; ++k) {
      Profiler p;
      p.options().run.numLocales = 4;
      p.options().run.replayThreads = k == 0 ? 1 : 4;
      p.options().run.referenceInterp = k == 2;
      ASSERT_TRUE(p.compileFile(assetProgram(program))) << p.lastError();
      texts[k] = p.lintText();
    }
    EXPECT_EQ(texts[0], texts[1]);
    EXPECT_EQ(texts[0], texts[2]);
  }
}

// ---------------------------------------------------------------------------
// Static-vs-dynamic differential (rpt::lintView with a measured profile).
// ---------------------------------------------------------------------------

TEST(Lint, PredictionTracksMeasurementOnSelfDominatedArrays) {
  // For arrays whose samples come from their own traffic, the cycle-mass
  // model tracks the measured comm split closely (Pos/Vel within 2 points,
  // Force within 6 — its access sites also absorb neighbor-loop compute).
  Profiler p;
  p.options().run.numLocales = 4;
  p.options().run.sampleThreshold = 1009;
  ASSERT_TRUE(p.profileFile(assetProgram("minimd_badloc"))) << p.lastError();
  an::loc::LintReport r = p.lintReport();
  const std::pair<const char*, double> bounds[] = {
      {"Pos", 0.05}, {"Vel", 0.05}, {"Force", 0.07}};
  for (const auto& [name, tol] : bounds) {
    SCOPED_TRACE(name);
    const an::loc::ArrayStats* arr = nullptr;
    for (const an::loc::ArrayStats& a : r.arrays)
      if (a.name == name) arr = &a;
    ASSERT_NE(arr, nullptr);
    const pm::VariableBlame* row = p.blameReport()->find(name);
    ASSERT_NE(row, nullptr);
    uint64_t accessSamples = row->localSamples + row->remoteSamples();
    ASSERT_GE(accessSamples, 16u);
    double measured =
        static_cast<double>(row->remoteSamples()) / static_cast<double>(accessSamples);
    EXPECT_LE(std::fabs(arr->remoteFraction() - measured), tol)
        << "predicted " << arr->remoteFraction() << " measured " << measured;
  }
}

TEST(Lint, DifferentialFlagsAttributionDivergence) {
  // ig_naive's GotCyc is a local staging array, so the static model predicts
  // 0% remote — but blame attribution charges the remote ACyc gathers that
  // feed it to GotCyc, so its measured split is mostly remote. That gap is
  // exactly what the differential exists to surface.
  Profiler p;
  p.options().run.numLocales = 4;
  p.options().run.sampleThreshold = 1009;
  ASSERT_TRUE(p.profileFile(assetProgram("ig_naive"))) << p.lastError();
  std::string v = p.lintText();
  EXPECT_NE(v.find("[static-dynamic-divergence]"), std::string::npos) << v;
  EXPECT_NE(v.find("`GotCyc` predicted"), std::string::npos) << v;
}

TEST(Lint, DifferentialQuietWhenPredictionMatches) {
  Profiler p;
  p.options().run.numLocales = 4;
  p.options().run.sampleThreshold = 1009;
  ASSERT_TRUE(p.profileFile(assetProgram("minimd_badloc"))) << p.lastError();
  std::string v = p.lintText();
  // Pos/Vel/Force all track measurement within the 15-point threshold, so
  // the only findings are the three mis-distribution ones.
  EXPECT_EQ(v.find("[static-dynamic-divergence]"), std::string::npos) << v;
  EXPECT_NE(v.find("[mis-distribution]"), std::string::npos);
}

}  // namespace
}  // namespace cb
