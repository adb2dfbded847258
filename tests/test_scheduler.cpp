// Tests of the process scheduler (support/scheduler.h): nested task groups
// three levels deep (locale → replay → post-mortem), exception isolation
// between groups, concurrent groups from several threads, lazy worker
// start-up, and the property that every fork width of a multi-locale job
// yields the same bytes.
//
// Suite naming feeds the CTest labels: ParallelScheduler.* carries the
// `parallel` label and PropertySchedulerWidths.* the `property` label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "report/views.h"
#include "service/job.h"
#include "support/scheduler.h"
#include "test_util.h"

namespace cb {
namespace {

/// Three nested levels of `fanout` tasks each, every level capped at `cap`;
/// returns how many leaf tasks ran.
int nestedLeaves(uint32_t cap, int fanout) {
  std::atomic<int> leaves{0};
  TaskGroup outer(cap);
  for (int a = 0; a < fanout; ++a)
    outer.run([&] {
      TaskGroup mid(cap);
      for (int b = 0; b < fanout; ++b)
        mid.run([&] {
          TaskGroup inner(cap);
          for (int c = 0; c < fanout; ++c) inner.run([&] { leaves.fetch_add(1); });
          inner.wait();
        });
      mid.wait();
    });
  outer.wait();
  return leaves.load();
}

TEST(ParallelScheduler, NestedWaitsFinishThreeLevelsDeep) {
  for (uint32_t cap : {1u, 2u}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    EXPECT_EQ(nestedLeaves(cap, 3), 27);
    // More tasks than workers at every level: waits must help, not block.
    EXPECT_EQ(nestedLeaves(cap, 9), 729);
  }
}

TEST(ParallelScheduler, ExceptionStaysInItsOwnGroup) {
  for (uint32_t cap : {1u, 2u, 4u}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    std::atomic<int> caught{0}, ran{0};
    TaskGroup outer(cap);
    for (int t = 0; t < 4; ++t)
      outer.run([&, t] {
        TaskGroup inner(cap);
        inner.run([t] {
          if (t % 2 == 0) throw std::runtime_error("inner " + std::to_string(t));
        });
        inner.run([&] { ran.fetch_add(1); });  // a sibling of the thrower still runs
        try {
          inner.wait();
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), "inner " + std::to_string(t));
          caught.fetch_add(1);
        }
      });
    EXPECT_NO_THROW(outer.wait());
    EXPECT_EQ(caught.load(), 2);
    EXPECT_EQ(ran.load(), 4);
    // The group is reusable after its error surfaced.
    TaskGroup g(cap);
    g.run([] { throw std::logic_error("once"); });
    EXPECT_THROW(g.wait(), std::logic_error);
    g.run([] {});
    EXPECT_NO_THROW(g.wait());
  }
}

TEST(ParallelScheduler, GroupsOfTwoThreadsInterleaveWithoutLosingTasks) {
  constexpr int kTasks = 2000;
  std::vector<std::atomic<int>> hits(2 * kTasks);
  auto submitter = [&](int base) {
    for (int round = 0; round < 4; ++round) {
      TaskGroup g(round % 2 == 0 ? 0 : 2);
      for (int i = 0; i < kTasks / 4; ++i) {
        int slot = base + round * (kTasks / 4) + i;
        g.run([&hits, slot] { hits[slot].fetch_add(1); });
      }
      g.wait();
    }
  };
  std::thread a(submitter, 0), b(submitter, kTasks);
  a.join();
  b.join();
  for (int i = 0; i < 2 * kTasks; ++i) ASSERT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ParallelScheduler, JobsThatNeverForkStartNoThread) {
  // A fresh process: earlier tests of this binary may have started the
  // workers already.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Scheduler& s = Scheduler::instance();
        if (svc::runJob({"ig_naive", "--lint"}).exitCode != 0) std::exit(10);
        if (s.threadsStarted() != 0) std::exit(1);
        if (svc::runJob({"lulesh", "--replay-threads", "1", "--pm-workers", "1"}).exitCode != 0)
          std::exit(20);
        if (s.threadsStarted() != 0) std::exit(2);
        // Not vacuous: a real fork does start the workers.
        TaskGroup g(2);
        g.run([] {});
        g.wait();
        std::exit(s.threadsStarted() == s.width() ? 0 : 3);
      },
      ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Every width yields the same bytes: locale pipelines × replay streams ×
// post-mortem shards, and the reference interpreter.
// ---------------------------------------------------------------------------

struct LocaleJob {
  const char* program;
  uint32_t locales;
  const char* view;
};

void PrintTo(const LocaleJob& job, std::ostream* os) {
  *os << job.program << " --locales " << job.locales << " --view " << job.view;
}

std::string localeOutput(const LocaleJob& job, const ProfileOptions& opts) {
  MultiLocaleResult r = profileMultiLocale(assetProgram(job.program), job.locales, opts);
  EXPECT_TRUE(r.ok) << r.error;
  std::string view = job.view;
  if (view == "commmatrix") return rpt::commMatrixView(r.aggregate, opts.view);
  if (view == "comm") return rpt::commView(r.aggregate, opts.view);
  return rpt::dataCentricView(r.aggregate, opts.view) + rpt::perLocaleView(r.perLocale, opts.view);
}

class PropertySchedulerWidths : public ::testing::TestWithParam<LocaleJob> {};

TEST_P(PropertySchedulerWidths, LocaleOutputIdenticalAtEveryWidth) {
  ProfileOptions base;
  base.localeWorkers = 1;
  base.run.replayThreads = 1;
  base.postmortem.workers = 1;
  const std::string want = localeOutput(GetParam(), base);
  ASSERT_FALSE(want.empty());
  for (uint32_t locale : {1u, 2u, 4u})
    for (uint32_t replay : {1u, 4u})
      for (uint32_t pm : {1u, 4u}) {
        ProfileOptions o;
        o.localeWorkers = locale;
        o.run.replayThreads = replay;
        o.postmortem.workers = pm;
        EXPECT_EQ(localeOutput(GetParam(), o), want)
            << "localeWorkers " << locale << " replayThreads " << replay << " pm workers " << pm;
      }
  ProfileOptions ref;
  ref.run.referenceInterp = true;
  EXPECT_EQ(localeOutput(GetParam(), ref), want) << "reference interpreter";
}

INSTANTIATE_TEST_SUITE_P(Jobs, PropertySchedulerWidths,
                         ::testing::Values(LocaleJob{"ig_naive", 16, "commmatrix"},
                                           LocaleJob{"weakscale", 64, "data"},
                                           LocaleJob{"minimd_badloc", 8, "comm"}));

}  // namespace
}  // namespace cb
