// Tests of the race-freedom prover (src/analysis/race.h) and of the parallel
// replay it licenses.
//
//   RaceProver.*          one verdict per rule and per rejection, on snippets
//   PropertyRaceOwnership runtime half: elements sharing one sub-array must
//                         replay sequentially and still match bit for bit
//   PropertyRaceFuzz      seeded programs whose foralls call generated
//                         helpers over arrays of arrays and arrays of records
//                         of arrays, run by the reference interpreter and by
//                         the bytecode engine at 1, 2 and 4 replay threads
//
// Suite naming feeds the CTest labels (tests/CMakeLists.txt): Property*.*
// carries the `property` label, so the TSan job replays every region the
// fuzz proves race-free.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/locality.h"
#include "analysis/race.h"
#include "runtime/lint.h"
#include "sampling/sample.h"
#include "support/rng.h"
#include "support/scheduler.h"
#include "test_util.h"

namespace cb {
namespace {

struct Proved {
  an::race::Verdict verdict;
  std::string offenderFn;  // display name of the function offender 0 points into
};

/// Verdict of the first forall whose enclosing procedure is `parent`.
Proved proveIn(const std::string& src, const std::string& parent = "main") {
  auto c = fe::Compilation::fromString("race.chpl", src, {});
  EXPECT_TRUE(c->ok()) << c->diags().renderAll() << src;
  Proved out;
  if (!c->ok()) return out;
  const ir::Module& m = c->module();
  for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    const ir::Function& fn = m.function(f);
    if (!fn.isTaskFn() || m.function(fn.spawnParent).displayName != parent) continue;
    out.verdict = an::race::analyzeTaskFunction(m, f);
    if (!out.verdict.offenders.empty() && out.verdict.offenders[0].fn < m.numFunctions())
      out.offenderFn = m.function(out.verdict.offenders[0].fn).displayName;
    return out;
  }
  ADD_FAILURE() << "no forall in " << parent;
  return out;
}

const char* const kDecls = R"(
const D = {0..#32};
const E = {0..#6};
record Part {
  var residue: real;
  var zones: [E] real;
}
var A: [D] real;
var B: [D] real;
var AA: [D] [E] real;
var parts: [D] Part;
var g = 0.0;
)";

std::string withDecls(const std::string& body) { return std::string(kDecls) + body; }

// ---------------------------------------------------------------------------
// Rule 1: calls are inlined abstractly.
// ---------------------------------------------------------------------------

TEST(RaceProver, PureHelperIsRaceFree) {
  Proved p = proveIn(withDecls(R"(
    proc sq(x: real, k: real): real { return x * x + k; }
    proc main() { forall i in D { A[i] = sq(B[i], 0.5); } }
  )"));
  EXPECT_TRUE(p.verdict.raceFree) << p.verdict.reason;
}

TEST(RaceProver, HelperWritingTaskLocalTupleThroughRefIsRaceFree) {
  Proved p = proveIn(withDecls(R"(
    proc fill(ref t: 3*real, v: real) {
      t(1) = v;
      t(2) = v * 2.0;
      t = t + t;
    }
    proc main() {
      forall i in D {
        var t: 3*real;
        fill(t, B[i]);
        A[i] = t(1) + t(3);
      }
    }
  )"));
  EXPECT_TRUE(p.verdict.raceFree) << p.verdict.reason;
}

TEST(RaceProver, HelperWritingThroughElementRefIsRaceFree) {
  Proved p = proveIn(withDecls(R"(
    proc bump(ref x: real, d: real) { x = x * 0.5 + d; }
    proc main() { forall i in D { bump(A[i], B[i]); } }
  )"));
  EXPECT_TRUE(p.verdict.raceFree) << p.verdict.reason;
}

TEST(RaceProver, HelperWritingNeighbourElementMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc bump(ref x: real, d: real) { x = x * 0.5 + d; }
    proc main() { forall i in 0..#31 { bump(A[i + 1], A[i]); } }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_NE(p.verdict.reason.find("distinct index expressions"), std::string::npos)
      << p.verdict.reason;
}

TEST(RaceProver, RecursionMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc fact(n: int): int {
      if n <= 1 then return 1;
      return n * fact(n - 1);
    }
    proc main() { forall i in D { A[i] = fact(i % 5) * 1.0; } }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_EQ(p.verdict.reason, "the region calls a recursive procedure");
  EXPECT_EQ(p.offenderFn, "fact");
}

TEST(RaceProver, CallChainDeeperThanLimitMayRace) {
  std::string src = withDecls("proc f0(x: real): real { return x + 1.0; }\n");
  for (uint32_t k = 1; k <= an::race::kMaxCallDepth + 1; ++k)
    src += "proc f" + std::to_string(k) + "(x: real): real { return f" + std::to_string(k - 1) +
           "(x) * 0.5; }\n";
  src += "proc main() { forall i in D { A[i] = f" +
         std::to_string(an::race::kMaxCallDepth + 1) + "(B[i]); } }\n";
  Proved p = proveIn(src);
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_NE(p.verdict.reason.find("deeper than"), std::string::npos) << p.verdict.reason;
}

TEST(RaceProver, CalleeWritingGlobalMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc accum(x: real) { g = g + x; }
    proc main() { forall i in D { accum(A[i]); } }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_EQ(p.verdict.reason,
            "a store through an unresolved reference (capture or global write)");
  EXPECT_EQ(p.offenderFn, "accum");
}

TEST(RaceProver, CalleeDrawingRandomMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc jitter(ref x: real) { x = x + random() * 0.001; }
    proc main() { forall i in D { jitter(A[i]); } }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_EQ(p.verdict.reason, "the region draws from the shared random stream");
  EXPECT_EQ(p.offenderFn, "jitter");
}

TEST(RaceProver, CalleeWithOnBlockMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc there(ref x: real) {
      on Locales[0] { x = x + 1.0; }
    }
    proc main() { forall i in D { there(A[i]); } }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_EQ(p.verdict.reason, "the region switches locales (`on` block)");
  EXPECT_EQ(p.offenderFn, "there");
}

TEST(RaceProver, CalleeReturningArrayMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc rowOf(i: int): [E] real { return AA[i]; }
    proc main() { forall i in D { A[i] = rowOf(i)[0]; } }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_NE(p.verdict.reason.find("returns an array"), std::string::npos) << p.verdict.reason;
}

TEST(RaceProver, LintCitesTheCalleeLine) {
  const std::string src = withDecls(R"(
    proc jitter(ref x: real) {
      x = x + random() * 0.001;
    }
    proc main() { forall i in D { jitter(A[i]); } }
  )");
  auto c = fe::Compilation::fromString("race.chpl", src, {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll();
  an::loc::LintReport r = rt::lint(c->module());
  // `x = x + random()` sits on line 15 of the snippet (kDecls is 12 lines).
  bool cited = false;
  for (const an::loc::Finding& f : r.findings)
    if (f.kind == an::loc::FindingKind::MayRaceRegion &&
        f.message.find("race.chpl:15:") != std::string::npos)
      cited = true;
  EXPECT_TRUE(cited);
}

// ---------------------------------------------------------------------------
// Rule 2: sub-arrays owned by array elements.
// ---------------------------------------------------------------------------

TEST(RaceProver, SubArrayOfArrayOfArraysIsRaceFree) {
  Proved p = proveIn(withDecls(R"(
    proc main() {
      forall i in D {
        for j in E { AA[i][j] = AA[i][j] + i * 0.5 + j; }
      }
    }
  )"));
  ASSERT_TRUE(p.verdict.raceFree) << p.verdict.reason;
  bool flagged = false;
  for (const an::race::RootRef& r : p.verdict.roots) flagged |= r.written && r.subArrays;
  EXPECT_TRUE(flagged) << "the runtime ownership check must be requested";
}

TEST(RaceProver, RecordFieldSubArrayThroughHelperIsRaceFree) {
  Proved p = proveIn(withDecls(R"(
    proc update(ref p: Part, d: real) {
      var rem = d;
      for j in E {
        p.zones[j] = p.zones[j] + rem * 0.5;
        rem = rem * 0.5;
      }
      p.residue = rem;
    }
    proc main() { forall i in D { update(parts[i], A[i]); } }
  )"));
  EXPECT_TRUE(p.verdict.raceFree) << p.verdict.reason;
}

TEST(RaceProver, SubArrayWrittenAtTaskUniformOuterIndexMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc main() { forall i in D { AA[0][i % 6] = i * 1.0; } }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_NE(p.verdict.reason.find("same task-uniform indices"), std::string::npos)
      << p.verdict.reason;
}

TEST(RaceProver, SubArrayOfNeighbourElementMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc main() {
      forall i in 0..#31 { AA[i][0] = AA[i + 1][0] + 1.0; }
    }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
}

TEST(RaceProver, MultiDimensionalSlabWithFreeColumnIsRaceFree) {
  Proved p = proveIn(R"(
    const R = {0..#8};
    const G = {0..#8, 0..#5};
    var M: [G] real;
    proc main() {
      forall i in R {
        for j in 0..#5 { M[i, j] = M[i, j] * 0.5 + j; }
      }
    }
  )");
  EXPECT_TRUE(p.verdict.raceFree) << p.verdict.reason;
}

// ---------------------------------------------------------------------------
// Rule 3: reads through views made inside the loop.
// ---------------------------------------------------------------------------

TEST(RaceProver, ReadThroughViewIsRaceFree) {
  Proved p = proveIn(withDecls(R"(
    proc main() {
      forall i in D {
        var v => B[D];
        A[i] = v[(i + 1) % 32] * 0.5;
      }
    }
  )"));
  EXPECT_TRUE(p.verdict.raceFree) << p.verdict.reason;
}

TEST(RaceProver, ViewOfWrittenRootMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc main() {
      forall i in D {
        var v => A[D];
        A[i] = v[(i + 1) % 32] * 0.5;
      }
    }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
}

TEST(RaceProver, StoreThroughViewMayRace) {
  Proved p = proveIn(withDecls(R"(
    proc main() {
      forall i in D {
        var v => A[D];
        v[i] = 1.0;
      }
    }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
  EXPECT_NE(p.verdict.reason.find("non-affine"), std::string::npos) << p.verdict.reason;
}

// A store into one field of a task-local tuple leaves the whole tuple's
// value unknown: it must not keep the task-uniform value of its initializer.
TEST(RaceProver, PartialStoreMakesLocalTaskVarying) {
  Proved p = proveIn(withDecls(R"(
    proc main() {
      forall i in D {
        var t: 2*int;
        t(1) = 0 - i;
        A[t(1) + i] = A[t(1) + i] + 1.0;
      }
    }
  )"));
  EXPECT_FALSE(p.verdict.raceFree);
}

// ---------------------------------------------------------------------------
// Runtime half: parallel replay and the ownership check.
// ---------------------------------------------------------------------------

struct ModeRun {
  std::string mode;
  rt::RunResult r;
};

std::vector<ModeRun> runModes(const ir::Module& m, rt::RunOptions base) {
  std::vector<ModeRun> out;
  rt::RunOptions o = base;
  o.referenceInterp = true;
  out.push_back({"reference", rt::execute(m, o)});
  o.referenceInterp = false;
  for (uint32_t t : {1u, 2u, 4u}) {
    o.replayThreads = t;
    out.push_back({"bytecode-t" + std::to_string(t), rt::execute(m, o)});
  }
  return out;
}

void expectModesAgree(const std::vector<ModeRun>& rs, const std::string& what) {
  const rt::RunResult& ref = rs[0].r;
  EXPECT_TRUE(ref.ok) << what << ": " << ref.error;
  for (size_t i = 1; i < rs.size(); ++i) {
    const rt::RunResult& r = rs[i].r;
    SCOPED_TRACE(what + " [" + rs[i].mode + " vs reference]");
    EXPECT_EQ(r.ok, ref.ok);
    EXPECT_EQ(r.error, ref.error);
    EXPECT_TRUE(sampling::identical(ref.log, r.log)) << sampling::firstDifference(ref.log, r.log);
    EXPECT_EQ(r.totalCycles, ref.totalCycles);
    EXPECT_EQ(r.instructionsExecuted, ref.instructionsExecuted);
    EXPECT_EQ(r.output, ref.output);
    EXPECT_EQ(r.cyclesPerFunction, ref.cyclesPerFunction);
  }
}

const char* const kPartsProgram = R"(
const P = {0..#8};
const Z = {0..#16};
record Part {
  var residue: real;
  var zones: [Z] real;
}
var parts: [P] Part;
proc update(ref p: Part, d: real) {
  for j in Z {
    p.zones[j] = p.zones[j] * 0.5 + d;
  }
  p.residue = p.zones[0] + p.zones[15];
}
proc main() {
  SHARE
  for t in 0..#4 {
    forall i in P { update(parts[i], i * 1.0 + t); }
  }
  var s = 0.0;
  for i in P { s = s + parts[i].residue; }
  writeln("sum: ", s);
}
)";

std::string partsProgram(bool share) {
  std::string src = kPartsProgram;
  src.replace(src.find("SHARE"), 5,
              share ? "var shared: Part;\n  parts[2] = shared;\n  parts[5] = shared;" : "");
  return src;
}

TEST(PropertyRaceOwnership, DistinctSubArraysReplayOnThreads) {
  auto c = fe::Compilation::fromString("parts.chpl", partsProgram(false), {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll();
  std::vector<ModeRun> rs = runModes(c->module(), rt::RunOptions{});
  expectModesAgree(rs, "distinct parts");
  EXPECT_GT(rs[3].r.parallelRegionsReplayed, 0u);
  EXPECT_EQ(rs[3].r.log.raceFallbackRegions, 0u);
}

TEST(PropertyRaceOwnership, SharedSubArrayFallsBackAndMatches) {
  // Copying one record into two elements makes both own the same `zones`
  // storage: the prover cannot see that, so the runtime check must.
  auto c = fe::Compilation::fromString("parts.chpl", partsProgram(true), {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll();
  std::vector<ModeRun> rs = runModes(c->module(), rt::RunOptions{});
  expectModesAgree(rs, "shared parts");
  for (const ModeRun& r : rs) EXPECT_EQ(r.r.parallelRegionsReplayed, 0u) << r.mode;
  // The static verdict is unchanged: the fallback is a runtime decision.
  EXPECT_EQ(rs[3].r.log.raceFallbackRegions, 0u);
}

// ---------------------------------------------------------------------------
// Seeded fuzz: foralls over generated helpers.
// ---------------------------------------------------------------------------

/// One generated program: declarations, helper procedures, a region per
/// chosen shape, and a checksum over every array. Shapes 0-6 are provable;
/// 7-9 are not (global store, RNG, uniform sub-array write).
std::string fuzzProgram(uint64_t seed, uint32_t minExtent = 12) {
  Rng rng(seed);
  auto pick = [&](uint32_t n) { return rng.nextBounded(n); };
  auto num = [&] { return std::to_string(1 + pick(9)) + "." + std::to_string(pick(10)) + "5"; };
  uint32_t n = minExtent + pick(28), m = 2 + pick(6);
  std::string s;
  s += "const D = {0..#" + std::to_string(n) + "};\n";
  s += "const E = {0..#" + std::to_string(m) + "};\n";
  s += "record Part { var residue: real; var ratio: real; var zones: [E] real; }\n";
  s += "var a: [D] real;\nvar b: [D] real;\nvar g = 0.0;\n";
  s += "var AA: [D] [E] real;\nvar parts: [D] Part;\n";

  s += "proc pure(x: real, y: real): real { return x * " + num() + " - y * " + num() + "; }\n";
  s += "proc pure2(x: real): real { return pure(x, x * 0.5) + " + num() + "; }\n";
  s += "proc bump(ref x: real, v: real) { x = x * 0.5 + v; }\n";
  s += "proc fill(ref t: 3*real, v: real) { t(1) = v; t(2) = v * " + num() +
       "; t(3) = t(1) + t(2); }\n";
  s += "proc rowUpdate(ref row: [E] real, d: real) {\n"
       "  for j in E { row[j] = row[j] * 0.5 + d + j; }\n}\n";
  s += "proc partUpdate(ref p: Part, d: real) {\n"
       "  var rem = d;\n"
       "  for j in E { var dep = rem * p.ratio; p.zones[j] = p.zones[j] + dep; rem = rem - dep; }\n"
       "  p.residue = rem;\n}\n";
  s += "proc accum(x: real) { g = g + x; }\n";
  s += "proc jitter(ref x: real) { x = x + random() * 0.001; }\n";

  s += "proc initAll() {\n";
  s += "  forall i in D {\n";
  s += "    a[i] = i * " + num() + ";\n    b[i] = 0.0;\n";
  s += "    parts[i].ratio = 0." + std::to_string(1 + pick(8)) + ";\n";
  s += "    for j in E { AA[i][j] = i + j * 0.5; parts[i].zones[j] = j * 0.25; }\n";
  s += "  }\n";
  if (pick(3) == 0) {
    // Two elements sharing one sub-array: provable statically, refused at
    // run time by the ownership check.
    s += "  var shared: Part;\n  shared.ratio = 0.5;\n";
    s += "  parts[1] = shared;\n  parts[" + std::to_string(n - 1) + "] = shared;\n";
  }
  s += "}\n";

  const uint32_t regions = 4 + pick(3);
  std::vector<std::string> calls;
  for (uint32_t r = 0; r < regions; ++r) {
    std::string name = "region" + std::to_string(r);
    uint32_t shape = pick(10) < 8 ? pick(7) : 7 + pick(3);
    std::string body;
    switch (shape) {
      case 0: body = "b[i] = pure(a[i], " + num() + ");"; break;
      case 1: body = "bump(b[i], a[i]);"; break;
      case 2: body = "var t: 3*real; fill(t, a[i]); b[i] = t(3) + pure2(t(1));"; break;
      case 3: body = "rowUpdate(AA[i], a[i]);"; break;
      case 4: body = "partUpdate(parts[i], a[i] * 0.01);"; break;
      case 5:
        body = "var v => a[D]; b[i] = v[(i + " + std::to_string(1 + pick(5)) + ") % " +
               std::to_string(n) + "] * 0.5 + AA[i][0];";
        break;
      case 6: body = "for j in E { AA[i][j] = AA[i][j] + parts[i].zones[j] * " + num() + "; }"; break;
      case 7: body = "accum(a[i]);"; break;
      case 8: body = "jitter(a[i]);"; break;
      default: body = "AA[0][i % " + std::to_string(m) + "] = i * 1.0;"; break;
    }
    s += "proc " + name + "() {\n  forall i in D { " + body + " }\n}\n";
    calls.push_back(name);
  }

  s += "proc main() {\n  initAll();\n";
  s += "  for step in 0..#" + std::to_string(1 + pick(3)) + " {\n";
  for (const std::string& c : calls) s += "    " + c + "();\n";
  s += "  }\n";
  s += "  var chk = g;\n";
  s += "  for i in D {\n    chk = chk + a[i] + b[i] + parts[i].residue;\n";
  s += "    for j in E { chk = chk + AA[i][j] + parts[i].zones[j]; }\n  }\n";
  s += "  writeln(\"checksum:\", chk);\n}\n";
  return s;
}

class PropertyRaceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyRaceFuzz, HelpersAndNestedArraysReplayBitIdentically) {
  const uint64_t base = GetParam() * 8;
  size_t raceFree = 0, regions = 0;
  uint64_t replayed = 0;
  for (uint64_t seed = base; seed < base + 8; ++seed) {
    std::string src = fuzzProgram(seed);
    auto c = fe::Compilation::fromString("fuzz.chpl", src, {});
    ASSERT_TRUE(c->ok()) << c->diags().renderAll() << src;
    const ir::Module& m = c->module();
    for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
      if (!m.function(f).isTaskFn()) continue;
      ++regions;
      if (an::race::analyzeTaskFunction(m, f).raceFree) ++raceFree;
    }
    rt::RunOptions o;
    o.sampleThreshold = 997;
    std::vector<ModeRun> rs = runModes(m, o);
    expectModesAgree(rs, "seed " + std::to_string(seed) + "\n" + src);
    replayed += rs[3].r.parallelRegionsReplayed;
  }
  // Not vacuous: most generated regions are provable and some replay on
  // threads.
  EXPECT_GE(raceFree * 2, regions) << raceFree << " of " << regions << " regions race-free";
  EXPECT_GT(replayed, 0u);
}

TEST_P(PropertyRaceFuzz, LargeRegionsForkAndReplayBitIdentically) {
  // Extents of 6,000 and up put the provable regions past
  // kMinForkInstructions (50,000): they fork onto the scheduler instead of
  // replaying inline, so the canonical merge meets the generated shapes.
  std::string src = fuzzProgram(GetParam() ^ 0x2545f4914f6cdd1dull, 6000);
  auto c = fe::Compilation::fromString("fuzz.chpl", src, {});
  ASSERT_TRUE(c->ok()) << c->diags().renderAll() << src;
  rt::RunOptions o;
  o.sampleThreshold = 997;
  std::vector<ModeRun> rs = runModes(c->module(), o);
  expectModesAgree(rs, "large seed " + std::to_string(GetParam()));
  // Each test runs in its own process under ctest, so a started worker
  // means this test forked.
  if (Scheduler::instance().width() > 1 && rs[3].r.parallelRegionsReplayed > 0)
    EXPECT_GT(Scheduler::instance().threadsStarted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyRaceFuzz, ::testing::Range<uint64_t>(0, 4));

}  // namespace
}  // namespace cb
