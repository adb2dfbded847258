// Causal what-if profiler (analysis/causal.h) + --diagnose rule engine
// (analysis/diagnose.h):
//
//  - Differential oracle wall: for every corpus program and k in {2, 4},
//    the schedule-replay prediction for the top blamed variable equals the
//    ground-truth re-run with rt::RunOptions::causalScale dividing that
//    variable's charges by k — cycle-for-cycle, on both engines and every
//    replay width.
//  - Span audit: recorded task spans tile [0, totalCycles], per-span site
//    splits sum to the span duration, and the reconstructed timeline is
//    invariant under engine choice, replay width and sample order.
//  - Critical-path properties: CP <= total (== total for serial programs),
//    predictions monotone in k, bounded below by T/k and by the integer
//    Amdahl bound T'*num >= T*num - A*(num - den).
//  - Fuzzed PGAS programs flow through the causal layer without crashing
//    and still satisfy the oracle equality.
//  - Golden --diagnose fixtures for the showcase programs, plus baseline
//    regression detection (the `--diagnose-baseline FILE` exit-4 path).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analysis/causal.h"
#include "analysis/diagnose.h"
#include "cb_config.h"
#include "support/rng.h"
#include "test_util.h"

namespace cb {
namespace {

const char* kCorpus[] = {"clomp",  "clomp_opt",     "example",        "ig_agg",
                         "ig_naive", "lulesh",      "minimd",         "minimd_badloc",
                         "minimd_blockloc", "minimd_opt", "weakscale"};

/// Full pipeline on a corpus program with per-site tracking on, asserting
/// success. The returned Profiler owns every artefact the causal layer
/// needs. A dense sample threshold keeps attribution populated even for the
/// smallest corpus programs; `sampleThreshold = 0` keeps the CLI default
/// (the golden fixtures must match `cb --diagnose` byte-for-byte).
Profiler profileCorpus(const std::string& program, uint32_t numLocales = 1,
                       uint64_t sampleThreshold = 997) {
  Profiler p;
  p.options().run.trackCausalSites = true;
  p.options().run.numLocales = numLocales;
  if (sampleThreshold != 0) p.options().run.sampleThreshold = sampleThreshold;
  EXPECT_TRUE(p.profileFile(assetProgram(program))) << p.lastError();
  return p;
}

/// Blame-ranked variable -> site-set rows for a finished profile.
std::vector<pm::VariableSiteSet> siteRows(const Profiler& p) {
  return pm::attributionSites(*p.moduleBlame(), *p.instances(), p.options().attribution);
}

/// Ground-truth re-run: the same module under the same options with the
/// given site set's charges scaled by kFactors[factorIdx].
uint64_t rerunScaled(const Profiler& p, const std::vector<uint64_t>& sites, size_t factorIdx,
                     bool referenceInterp, uint32_t replayThreads) {
  rt::RunOptions o = p.options().run;
  o.referenceInterp = referenceInterp;
  o.replayThreads = replayThreads;
  o.causalScale.sites = sites;
  o.causalScale.num = an::causal::kFactors[factorIdx].num;
  o.causalScale.den = an::causal::kFactors[factorIdx].den;
  rt::RunResult r = rt::execute(p.compilation()->module(), o);
  EXPECT_TRUE(r.ok) << r.error;
  return r.totalCycles;
}

// ---------------------------------------------------------------------------
// Differential oracle wall: predicted == re-measured on the whole corpus.
// The prediction replays the recorded schedule arithmetically; the re-run
// actually executes with the scaled cost model. Corpus control flow never
// reads clock(), so the two must agree exactly — any drift is a bug in the
// span emission, the per-charge rounding, or the replay itself.
// ---------------------------------------------------------------------------

class CausalOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(CausalOracle, PredictionMatchesGroundTruthRerun) {
  Profiler p = profileCorpus(GetParam());
  const sampling::RunLog& log = p.runResult()->log;
  an::causal::Timeline tl = an::causal::buildTimeline(log);
  ASSERT_TRUE(tl.ok) << tl.error;
  ASSERT_TRUE(tl.hasSites);

  std::vector<pm::VariableSiteSet> rows = siteRows(p);
  std::vector<uint64_t> sites;
  for (const pm::VariableSiteSet& r : rows)
    if (!r.sites.empty()) {
      sites = r.sites;
      break;
    }
  if (sites.empty()) {
    // Runs shorter than the sample threshold (the paper's Fig. 1 example)
    // attribute nothing; scale the hottest recorded site instead so the
    // differential still runs on every corpus program.
    uint64_t hot = 0;
    for (const sampling::TaskSpan& sp : log.taskSpans)
      for (const sampling::SiteCycles& sc : sp.sites)
        if (sc.raw > hot) hot = sc.raw, sites.assign(1, sc.site);
  }
  ASSERT_FALSE(sites.empty()) << "no charged sites for " << GetParam();

  for (size_t factorIdx : {size_t{1}, size_t{2}}) {  // k = 2, k = 4
    SCOPED_TRACE("factor " + an::causal::factorName(an::causal::kFactors[factorIdx]));
    uint64_t predicted = an::causal::predictTotal(log, tl, sites, factorIdx);
    EXPECT_LE(predicted, log.totalCycles);
    EXPECT_EQ(predicted, rerunScaled(p, sites, factorIdx, /*ref=*/true, 0));
    for (uint32_t w : {1u, 2u, 4u})
      EXPECT_EQ(predicted, rerunScaled(p, sites, factorIdx, /*ref=*/false, w))
          << "replay width " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CausalOracle, ::testing::ValuesIn(kCorpus));

TEST(CausalOracle, MultiLocaleRemoteChargesScaleExactly) {
  // Under 4 simulated locales the top variable's charges include remote
  // GET/PUT costs; those scale through the oracle identically to compute.
  Profiler p = profileCorpus("minimd_badloc", /*numLocales=*/4);
  const sampling::RunLog& log = p.runResult()->log;
  an::causal::Timeline tl = an::causal::buildTimeline(log);
  ASSERT_TRUE(tl.ok) << tl.error;
  std::vector<pm::VariableSiteSet> rows = siteRows(p);
  ASSERT_FALSE(rows.empty());
  ASSERT_FALSE(rows[0].sites.empty());
  for (size_t factorIdx : {size_t{1}, size_t{2}}) {
    uint64_t predicted = an::causal::predictTotal(log, tl, rows[0].sites, factorIdx);
    EXPECT_EQ(predicted, rerunScaled(p, rows[0].sites, factorIdx, true, 0));
    EXPECT_EQ(predicted, rerunScaled(p, rows[0].sites, factorIdx, false, 2));
  }
}

// ---------------------------------------------------------------------------
// Span audit (the per-stream clock / preSpawnStack gluing regression wall):
// spans tile the run exactly, and where per-site splits exist they account
// for every cycle of their span.
// ---------------------------------------------------------------------------

class CausalSpans : public ::testing::TestWithParam<const char*> {};

TEST_P(CausalSpans, SpansTileRunAndSiteSplitsSumToDurations) {
  Profiler p = profileCorpus(GetParam());
  const sampling::RunLog& log = p.runResult()->log;
  an::causal::Timeline tl = an::causal::buildTimeline(log);
  ASSERT_TRUE(tl.ok) << tl.error;

  // Tiling: serial segments + region spans cover [0, totalCycles].
  uint64_t covered = tl.serialCycles;
  for (const an::causal::Region& r : tl.regions) covered += r.duration();
  EXPECT_EQ(covered, log.totalCycles);

  // Every span with a site split accounts for exactly its duration; spans
  // without one are either nested (cycles accrue to the enclosing chunk) or
  // zero-length.
  for (const sampling::TaskSpan& sp : log.taskSpans) {
    if (sp.sites.empty()) continue;
    uint64_t raw = 0;
    for (const sampling::SiteCycles& sc : sp.sites) {
      raw += sc.raw;
      // Per-charge ceil scaling can only shrink, never below a quarter/etc.
      EXPECT_LE(sc.s125, sc.raw);
      EXPECT_LE(sc.s2, sc.s125);
      EXPECT_LE(sc.s4, sc.s2);
    }
    EXPECT_EQ(raw, sp.duration())
        << "span tag " << sp.tag << " chunk " << sp.chunk << " leaks cycles";
  }

  // workCycles is the busy-cycle integral: serial + per-region chunk sums.
  uint64_t work = tl.serialCycles;
  for (const an::causal::Region& r : tl.regions) work += r.workCycles;
  EXPECT_EQ(work, tl.workCycles);
}

TEST_P(CausalSpans, TimelineInvariantAcrossEnginesAndReplayWidths) {
  Profiler p = profileCorpus(GetParam());
  const sampling::RunLog& base = p.runResult()->log;

  for (bool ref : {true, false}) {
    for (uint32_t w : {1u, 4u}) {
      if (ref && w != 1) continue;
      rt::RunOptions o = p.options().run;
      o.referenceInterp = ref;
      o.replayThreads = w;
      rt::RunResult r = rt::execute(p.compilation()->module(), o);
      ASSERT_TRUE(r.ok) << r.error;
      ASSERT_TRUE(sampling::identical(base, r.log))
          << sampling::firstDifference(base, r.log);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CausalSpans, ::testing::ValuesIn(kCorpus));

// A nested forall's spans carry no site split: their cycles accrue to the
// enclosing top-level chunk, whose split still covers its whole duration.
TEST(CausalNestedSpans, NestedSpansKeepNoSitesAndChunksCoverThem) {
  auto c = test::compile(R"(
    const D = {0..#8};
    var A: [D] int;
    proc main() {
      coforall t in 0..#2 {
        forall i in 0..#4 { A[t * 4 + i] = t + i; }
      }
    }
  )");
  for (bool reference : {false, true}) {
    rt::RunOptions o;
    o.trackCausalSites = true;
    o.referenceInterp = reference;
    rt::RunResult r = rt::execute(c->module(), o);
    ASSERT_TRUE(r.ok) << r.error;
    size_t nested = 0;
    for (const sampling::TaskSpan& sp : r.log.taskSpans) {
      if (sp.tag != 0 && r.log.spawns.at(sp.tag).parentTag != 0) {
        ++nested;
        EXPECT_TRUE(sp.sites.empty()) << "nested span " << sp.tag << "/" << sp.chunk;
        continue;
      }
      uint64_t raw = 0;
      for (const sampling::SiteCycles& sc : sp.sites) raw += sc.raw;
      EXPECT_EQ(raw, sp.duration()) << "span " << sp.tag << "/" << sp.chunk;
    }
    EXPECT_EQ(nested, 8u);  // 2 coforall tasks x 4 one-iteration chunks
  }
}

// ---------------------------------------------------------------------------
// Critical-path and prediction properties.
// ---------------------------------------------------------------------------

class CausalProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(CausalProperty, CriticalPathBoundsAndFactorMonotonicity) {
  Profiler p = profileCorpus(GetParam());
  const sampling::RunLog& log = p.runResult()->log;

  std::vector<pm::VariableSiteSet> rows = siteRows(p);
  std::vector<an::causal::VariableSites> vars;
  for (const pm::VariableSiteSet& r : rows)
    vars.push_back({r.context, r.name, r.type, r.sampleCount, r.sites});
  an::causal::CausalReport rep = an::causal::analyze(log, vars);
  ASSERT_TRUE(rep.ok) << rep.error;

  // Work/span shape: CP <= total <= work, parallelism >= 1.
  EXPECT_LE(rep.criticalPath, rep.totalCycles);
  EXPECT_GE(rep.workCycles, rep.criticalPath);
  EXPECT_GE(rep.parallelism, 1.0 - 1e-12);
  if (rep.regions.empty()) {
    EXPECT_EQ(rep.criticalPath, rep.totalCycles);
    EXPECT_EQ(rep.workCycles, rep.totalCycles);
  }

  uint64_t total = rep.totalCycles;
  for (const an::causal::VariablePrediction& vp : rep.predictions) {
    SCOPED_TRACE(vp.name);
    ASSERT_EQ(vp.factors.size(), an::causal::kNumFactors);
    // Monotone: a bigger speedup factor can only shorten the run further.
    EXPECT_LE(vp.factors[3].predictedCycles, vp.factors[2].predictedCycles);
    EXPECT_LE(vp.factors[2].predictedCycles, vp.factors[1].predictedCycles);
    EXPECT_LE(vp.factors[1].predictedCycles, vp.factors[0].predictedCycles);
    EXPECT_LE(vp.factors[0].predictedCycles, total);
    for (size_t i = 0; i < an::causal::kNumFactors; ++i) {
      const an::causal::Factor f = an::causal::kFactors[i];
      uint64_t predicted = vp.factors[i].predictedCycles;
      if (!f.infinite()) {
        // Whole-program speedup never exceeds the per-site factor k:
        // T' >= T/k, in exact integers T'*num >= T*den.
        EXPECT_GE(predicted * f.num, total * f.den);
        // Integer Amdahl bound with A = the variable's attributed cycles
        // (the f = A/T serial-fraction form, cleared of divisions):
        // T'*num >= T*num - A*(num - den).
        EXPECT_GE(predicted * f.num + vp.attributedCycles * (f.num - f.den),
                  total * f.num);
      }
      // Even at k = inf the run cannot drop below its unattributed cycles.
      EXPECT_GE(predicted + vp.attributedCycles, total);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, CausalProperty, ::testing::ValuesIn(kCorpus));

TEST(CausalProperty, SerialProgramCriticalPathEqualsTotal) {
  Profiler p;
  p.options().run.trackCausalSites = true;
  ASSERT_TRUE(p.profileString("serial.chpl",
                              "var a: [{0..#64}] real;\n"
                              "proc main() {\n"
                              "  for i in 0..#64 { a[i] = i * 1.5; }\n"
                              "  var s = 0.0;\n"
                              "  for i in 0..#64 { s = s + a[i]; }\n"
                              "  writeln(s);\n"
                              "}\n"))
      << p.lastError();
  an::causal::Timeline tl = an::causal::buildTimeline(p.runResult()->log);
  ASSERT_TRUE(tl.ok) << tl.error;
  EXPECT_TRUE(tl.regions.empty());
  EXPECT_EQ(tl.criticalPath, tl.totalCycles);
  EXPECT_EQ(tl.workCycles, tl.totalCycles);
  EXPECT_DOUBLE_EQ(tl.parallelism(), 1.0);
}

TEST(CausalProperty, TimelineInvariantUnderSamplePermutation) {
  // The timeline is a pure function of the task spans; the sample stream
  // (however ordered) must not influence it.
  Profiler p = profileCorpus("minimd");
  sampling::RunLog shuffled = p.runResult()->log;
  Rng rng(0xC0FFEE);
  for (size_t i = shuffled.samples.size(); i > 1; --i)
    std::swap(shuffled.samples[i - 1], shuffled.samples[rng.nextBounded(i)]);

  an::causal::Timeline a = an::causal::buildTimeline(p.runResult()->log);
  an::causal::Timeline b = an::causal::buildTimeline(shuffled);
  ASSERT_TRUE(a.ok && b.ok) << a.error << b.error;
  EXPECT_EQ(a.criticalPath, b.criticalPath);
  EXPECT_EQ(a.workCycles, b.workCycles);
  EXPECT_EQ(a.serialCycles, b.serialCycles);
  EXPECT_EQ(a.regions.size(), b.regions.size());

  std::vector<pm::VariableSiteSet> rows = siteRows(p);
  ASSERT_FALSE(rows.empty());
  for (size_t f = 0; f < an::causal::kNumFactors; ++f)
    EXPECT_EQ(an::causal::predictTotal(p.runResult()->log, a, rows[0].sites, f),
              an::causal::predictTotal(shuffled, b, rows[0].sites, f));
}

TEST(CausalProperty, PredictionsInvariantUnderPostmortemWorkerCount) {
  an::causal::CausalReport reports[2];
  uint32_t workers[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Profiler p;
    p.options().run.trackCausalSites = true;
    p.options().postmortem.workers = workers[i];
    ASSERT_TRUE(p.profileFile(assetProgram("minimd_badloc"))) << p.lastError();
    reports[i] = p.causalReport();
    ASSERT_TRUE(reports[i].ok) << reports[i].error;
  }
  ASSERT_EQ(reports[0].predictions.size(), reports[1].predictions.size());
  EXPECT_FALSE(reports[0].predictions.empty());
  for (size_t v = 0; v < reports[0].predictions.size(); ++v) {
    EXPECT_EQ(reports[0].predictions[v].name, reports[1].predictions[v].name);
    EXPECT_EQ(reports[0].predictions[v].attributedCycles,
              reports[1].predictions[v].attributedCycles);
    for (size_t f = 0; f < an::causal::kNumFactors; ++f)
      EXPECT_EQ(reports[0].predictions[v].factors[f].predictedCycles,
                reports[1].predictions[v].factors[f].predictedCycles);
  }
}

// The variable→site bridge has two implementations: a fresh site-collection
// pass over every sample, and the memo-derived fast path served from an
// AttributionCache primed by attribute(). They must be row-for-row
// identical — same keys, same counts, same sorted site sets — or the
// what-if table silently drifts depending on which path the profiler took.
TEST(CausalProperty, CachedSiteBridgeMatchesFreshCollection) {
  for (const char* program : {"lulesh", "minimd_badloc", "clomp"}) {
    Profiler p = profileCorpus(program);
    pm::AttributionCache cache;
    pm::BlameReport cached =
        pm::attribute(*p.moduleBlame(), *p.instances(), p.options().attribution, &cache);
    pm::BlameReport fresh =
        pm::attribute(*p.moduleBlame(), *p.instances(), p.options().attribution);
    EXPECT_EQ(cached, fresh) << program << ": priming the cache changed the report";
    std::vector<pm::VariableSiteSet> viaMemo = pm::attributionSites(
        *p.moduleBlame(), *p.instances(), p.options().attribution, &cache);
    std::vector<pm::VariableSiteSet> viaRun =
        pm::attributionSites(*p.moduleBlame(), *p.instances(), p.options().attribution);
    EXPECT_EQ(viaMemo, viaRun) << program << ": memo-derived sites diverge from fresh pass";
    EXPECT_FALSE(viaMemo.empty()) << program;
    // A cleared cache must fall back to the fresh pass, not serve stale state.
    cache.clear();
    EXPECT_EQ(pm::attributionSites(*p.moduleBlame(), *p.instances(), p.options().attribution,
                                   &cache),
              viaRun)
        << program << ": cleared cache did not fall back";
  }
}

TEST(CausalProperty, MalformedSpanStreamsAreRejectedNotCrashed) {
  Profiler p = profileCorpus("minimd");
  const sampling::RunLog& good = p.runResult()->log;
  ASSERT_FALSE(good.taskSpans.empty());

  {  // Truncated: last span missing.
    sampling::RunLog bad = good;
    bad.taskSpans.pop_back();
    an::causal::Timeline tl = an::causal::buildTimeline(bad);
    EXPECT_FALSE(tl.ok);
    EXPECT_FALSE(tl.error.empty());
  }
  {  // A span pointing at a spawn tag the registry never recorded.
    sampling::RunLog bad = good;
    for (sampling::TaskSpan& sp : bad.taskSpans)
      if (sp.tag != 0) {
        sp.tag = 0xDEAD0000DEAD;
        break;
      }
    EXPECT_FALSE(an::causal::buildTimeline(bad).ok);
  }
  {  // A torn per-stream chain: a chunk span shifted off its clock.
    sampling::RunLog bad = good;
    for (sampling::TaskSpan& sp : bad.taskSpans)
      if (sp.tag != 0) {
        sp.startCycle += 1;
        break;
      }
    EXPECT_FALSE(an::causal::buildTimeline(bad).ok);
  }
}

// ---------------------------------------------------------------------------
// Fuzzed PGAS programs through the causal layer: reconstruction always
// succeeds, bounds hold, and the oracle equality survives aggregators,
// `on` blocks and nested parallelism.
// ---------------------------------------------------------------------------

std::string fuzzCausalProgram(uint64_t seed) {
  Rng rng(seed);
  auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng.nextBounded(n)); };
  auto num = [](uint64_t v) { return std::to_string(v); };
  uint32_t n = 8 + pick(24);
  const char* dists[] = {"", " dmapped Block", " dmapped Cyclic"};
  std::string s;
  s += "const D = {0..#" + num(n) + "}" + dists[pick(3)] + ";\n";
  s += "var a: [D] real;\nvar b: [D] real;\n";
  s += "var g: [{0..#" + num(n) + "}] real;\n";
  s += "proc main() {\n";
  s += "  forall i in D { a[i] = i * 1.5; b[i] = i + 0.25; }\n";
  uint32_t stmts = 1 + pick(3);
  for (uint32_t k = 0; k < stmts; ++k) {
    switch (pick(5)) {
      case 0:
        s += "  forall i in D { b[i] = b[i] + a[i] * 0.5; }\n";
        break;
      case 1:
        s += "  coforall t in 0..#" + num(1 + pick(4)) +
             " { for i in 0..#" + num(n / 2) + " { a[i] = a[i] + 0.25; } }\n";
        break;
      case 2:
        s += "  on Locales[" + num(pick(3)) + "] { for i in 0..#" + num(n) +
             " { b[i] = b[i] + a[i]; } }\n";
        break;
      case 3:
        s += "  forall i in D with (var ga = new SrcAggregator(real)) { "
             "ga.copy(g[i], a[i]); }\n";
        break;
      default:
        s += "  for i in 0..#" + num(n) + " { g[i] = g[i] + b[i] * 0.125; }\n";
        break;
    }
  }
  s += "  var chk = 0.0;\n";
  s += "  for i in 0..#" + num(n) + " { chk = chk + a[i] + b[i] + g[i]; }\n";
  s += "  writeln(\"chk:\", chk);\n";
  s += "}\n";
  return s;
}

class CausalFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CausalFuzz, FifteenProgramsReconstructAndSatisfyOracle) {
  for (uint64_t k = 0; k < 15; ++k) {
    uint64_t seed = GetParam() * 15 + k;
    std::string src = fuzzCausalProgram(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto c = fe::Compilation::fromString("fuzz.chpl", src, {});
    ASSERT_TRUE(c->ok()) << c->diags().renderAll() << "\n" << src;

    Rng rng(seed ^ 0xFACADE);
    rt::RunOptions o;
    o.sampleThreshold = 997;
    o.numWorkers = 1 + static_cast<uint32_t>(rng.nextBounded(4));
    o.numLocales = 1 + static_cast<uint32_t>(rng.nextBounded(4));
    o.localeId = static_cast<uint32_t>(rng.nextBounded(o.numLocales));
    o.trackCausalSites = true;
    rt::RunResult r = rt::execute(c->module(), o);
    ASSERT_TRUE(r.ok) << r.error << "\n" << src;

    an::causal::Timeline tl = an::causal::buildTimeline(r.log);
    ASSERT_TRUE(tl.ok) << tl.error << "\n" << src;
    EXPECT_LE(tl.criticalPath, tl.totalCycles);
    EXPECT_GE(tl.workCycles, tl.criticalPath);
    EXPECT_NO_FATAL_FAILURE(an::causal::analyze(r.log, {}));

    // Mini-oracle: speed up the single hottest recorded site 2x and check
    // the replay against a real scaled re-run.
    uint64_t hotSite = 0, hotCycles = 0;
    for (const sampling::TaskSpan& sp : r.log.taskSpans)
      for (const sampling::SiteCycles& sc : sp.sites)
        if (sc.raw > hotCycles) hotCycles = sc.raw, hotSite = sc.site;
    if (hotCycles == 0) continue;
    std::vector<uint64_t> sites = {hotSite};
    uint64_t predicted = an::causal::predictTotal(r.log, tl, sites, /*k=2*/ 1);
    rt::RunOptions scaled = o;
    scaled.causalScale.sites = sites;
    scaled.causalScale.num = 2;
    scaled.causalScale.den = 1;
    rt::RunResult rs = rt::execute(c->module(), scaled);
    ASSERT_TRUE(rs.ok) << rs.error << "\n" << src;
    EXPECT_EQ(predicted, rs.totalCycles) << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CausalFuzz, ::testing::Range<uint64_t>(0, 3));

// ---------------------------------------------------------------------------
// Diagnose rule engine.
// ---------------------------------------------------------------------------

TEST(CausalDiagnose, SingleTaskRegionFlagsSerializedCriticalPath) {
  Profiler p;
  p.options().run.trackCausalSites = true;
  p.options().run.numWorkers = 4;
  ASSERT_TRUE(p.profileString("serialized.chpl",
                              "var a: [{0..#400}] real;\n"
                              "proc main() {\n"
                              "  coforall t in 0..#1 {\n"
                              "    for i in 0..#400 { a[i] = a[i] + i * 0.5; }\n"
                              "  }\n"
                              "  writeln(a[5]);\n"
                              "}\n"))
      << p.lastError();
  std::string text = p.diagnoseText();
  EXPECT_NE(text.find("serialized-region"), std::string::npos) << text;
  EXPECT_NE(text.find("critical path 1 task wide"), std::string::npos) << text;
}

TEST(CausalDiagnose, BadLocalityProgramSuggestsBlockRedistribution) {
  // The acceptance criterion: `cb --diagnose minimd_badloc.chpl` names the
  // Cyclic mis-distribution and suggests `dmapped Block`.
  Profiler p = profileCorpus("minimd_badloc", /*numLocales=*/4);
  std::string text = p.diagnoseText();
  EXPECT_NE(text.find("distribution-mismatch"), std::string::npos) << text;
  EXPECT_NE(text.find("dmapped Block"), std::string::npos) << text;
  EXPECT_NE(text.find("metric total_cycles "), std::string::npos) << text;
}

TEST(CausalDiagnose, BaselineComparatorFlagsInjectedSlowdowns) {
  std::string base =
      "metric total_cycles 1000000\n"
      "metric critical_path_cycles 800000\n"
      "metric parallelism 3.5\n"
      "metric naive_remote_ops 200\n";

  // Unchanged metrics: clean.
  EXPECT_TRUE(an::diag::compareBaselineText(base, base).empty());

  // 20% more cycles and halved parallelism: both flagged, nothing else.
  std::string slow =
      "metric total_cycles 1200000\n"
      "metric critical_path_cycles 820000\n"  // +2.5%, inside the 10% band
      "metric parallelism 1.75\n"
      "metric naive_remote_ops 200\n";
  std::vector<an::diag::Regression> regs = an::diag::compareBaselineText(base, slow);
  ASSERT_EQ(regs.size(), 2u);
  EXPECT_EQ(regs[0].metric, "total_cycles");
  EXPECT_NEAR(regs[0].worsened, 0.20, 1e-9);
  EXPECT_EQ(regs[1].metric, "parallelism");  // lower is worse for parallelism
  EXPECT_NEAR(regs[1].worsened, 0.50, 1e-9);

  // Improvements never flag; metrics on only one side are ignored.
  std::string fast =
      "metric total_cycles 500000\n"
      "metric parallelism 7.0\n"
      "metric findings 3\n";
  EXPECT_TRUE(an::diag::compareBaselineText(base, fast).empty());
}

TEST(CausalDiagnose, RegressionFixtureDetectsCurrentRunAsSlower) {
  // The injected-slowdown fixture: a baseline recorded on an impossibly
  // fast machine. Any real profile must flag total_cycles against it —
  // the CLI then exits 4 (see src/service/job.cpp --diagnose-baseline).
  std::ifstream in(std::string(kGoldenDir) + "/diagnose_regression_baseline.txt");
  ASSERT_TRUE(in) << "missing fixture diagnose_regression_baseline.txt";
  std::stringstream base;
  base << in.rdbuf();

  Profiler p = profileCorpus("minimd_badloc", /*numLocales=*/4);
  std::vector<an::diag::Regression> regs =
      an::diag::compareBaselineText(base.str(), p.diagnoseText());
  ASSERT_FALSE(regs.empty());
  EXPECT_EQ(regs[0].metric, "total_cycles");
  EXPECT_GT(regs[0].worsened, 0.10);
}

// ---------------------------------------------------------------------------
// Golden --diagnose fixtures: the full report text of the showcase
// programs, pinned byte-for-byte under tests/golden/ with the same
// options `cb --diagnose <prog>` uses (4 modeled locales, per-site
// tracking). Regenerate with `cb_tests --update-golden`.
// ---------------------------------------------------------------------------

std::string diagnoseGoldenPath(const std::string& program) {
  return std::string(kGoldenDir) + "/" + program + "_diagnose.txt";
}

class DiagnoseGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(DiagnoseGolden, DiagnoseTextMatchesFixture) {
  Profiler p = profileCorpus(GetParam(), /*numLocales=*/4, /*sampleThreshold=*/0);
  std::string rendered = p.diagnoseText();
  std::string path = diagnoseGoldenPath(GetParam());
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
      << "golden diagnose mismatch for " << GetParam()
      << "; if intentional, regenerate with `cb_tests --update-golden`";
}

INSTANTIATE_TEST_SUITE_P(Programs, DiagnoseGolden,
                         ::testing::Values("minimd_badloc", "ig_naive", "lulesh"));

}  // namespace
}  // namespace cb
