// Tests of the cb-serve layer: wire-protocol round-trips and defensive
// decoding, the shared job runner (the thing that makes served == local a
// construction property rather than a hope), daemon lifecycle, per-job
// isolation, and the concurrent bit-identity soak at 1/2/4/8 in-flight jobs.
//
// Suite naming feeds the CTest labels: Service*.* carries the `service`
// label (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "service/client.h"
#include "service/job.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/rng.h"
#include "test_util.h"

namespace cb {
namespace {

std::string freshSocket(const std::string& tag) {
  std::string path = ::testing::TempDir() + "/cb_svc_" + tag + ".sock";
  std::filesystem::remove(path);
  return path;
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, RequestRoundTrip) {
  std::vector<std::string> argv = {"clomp", "--view", "data", "", "--config",
                                   "CLOMP_numParts=64"};
  std::vector<std::string> back;
  ASSERT_TRUE(svc::decodeRequest(svc::encodeRequest(argv), back));
  EXPECT_EQ(back, argv);
  ASSERT_TRUE(svc::decodeRequest(svc::encodeRequest({}), back));
  EXPECT_TRUE(back.empty());
}

TEST(ServiceProtocol, ResponseRoundTrip) {
  svc::JobResult r;
  r.exitCode = -7;
  r.out = std::string("stdout with \0 embedded", 22);
  r.err = "error text\n";
  svc::JobResult back;
  ASSERT_TRUE(svc::decodeResponse(svc::encodeResponse(r), back));
  EXPECT_EQ(back.exitCode, r.exitCode);
  EXPECT_EQ(back.out, r.out);
  EXPECT_EQ(back.err, r.err);
}

TEST(ServiceProtocol, DecodeRejectsMalformedPayloads) {
  std::vector<std::string> args;
  svc::JobResult job;
  EXPECT_FALSE(svc::decodeRequest("", args));
  EXPECT_FALSE(svc::decodeResponse("", job));
  // Trailing garbage after a valid encoding must be rejected.
  EXPECT_FALSE(svc::decodeRequest(svc::encodeRequest({"a"}) + "x", args));
  EXPECT_FALSE(svc::decodeResponse(svc::encodeResponse({}) + "x", job));
  // Length prefix pointing past the end of the payload.
  std::string lie;
  lie.push_back(1);     // argc = 1
  lie.push_back(100);   // arg length = 100, but no bytes follow
  EXPECT_FALSE(svc::decodeRequest(lie, args));
}

TEST(ServiceProtocol, FuzzedPayloadsNeverCrash) {
  Rng rng(0xFEED);
  std::string valid = svc::encodeRequest({"clomp", "--view", "data"});
  for (int trial = 0; trial < 300; ++trial) {
    std::string payload;
    if (trial % 3 == 0) {
      payload = valid.substr(0, rng.next() % (valid.size() + 1));
    } else {
      payload.resize(rng.next() % 64);
      for (auto& c : payload) c = static_cast<char>(rng.next());
    }
    std::vector<std::string> args;
    svc::JobResult job;
    svc::decodeRequest(payload, args);   // must not crash or overallocate
    svc::decodeResponse(payload, job);
  }
}

TEST(ServiceProtocol, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string payload = "hello frames";
  std::thread writer([&] { EXPECT_TRUE(svc::writeFrame(fds[0], payload)); });
  std::string got;
  EXPECT_TRUE(svc::readFrame(fds[1], got));
  writer.join();
  EXPECT_EQ(got, payload);
  // Over-cap length prefix is refused without allocating the announced size.
  uint32_t huge = 0xFFFFFFFFu;
  ASSERT_EQ(::write(fds[0], &huge, 4), 4);
  EXPECT_FALSE(svc::readFrame(fds[1], got));
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Shared job runner
// ---------------------------------------------------------------------------

TEST(ServiceJob, UnknownFlagExitsTwoWithUsage) {
  svc::JobResult r = svc::runJob({"--definitely-not-a-flag"});
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.err.find("usage"), std::string::npos);
}

// Numeric flags parse strictly: non-numeric text, trailing garbage, signs,
// values that do not fit and `--workers 0` all exit 2 naming the flag,
// before anything is compiled or run (`--workers 0` used to reach a modulo
// by zero in both engines and kill the process, the daemon included).
TEST(ServiceJob, MalformedNumericFlagsExitTwoNamingTheFlag) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--workers", "0"},          {"--workers", "abc"},
      {"--workers", "4294967296"}, {"--workers", "4x"},
      {"--workers", "-1"},         {"--workers", ""},
      {"--workers", " 4"},         {"--threshold", "9973abc"},
      {"--threshold", "18446744073709551616"},
      {"--skid", "4294967296"},    {"--stream-chunk", "x"},
      {"--locales", "2abc"},       {"--replay-threads", "abc"},
      {"--replay-threads", "-1"},  {"--pm-workers", "4x"},
      {"--pm-workers", "+2"},
  };
  for (const auto& [flag, value] : bad) {
    for (const char* mode : {"", "--lint"}) {
      std::vector<std::string> argv = {"lulesh", flag, value};
      if (*mode) argv.push_back(mode);
      svc::JobResult r = svc::runJob(argv);
      EXPECT_EQ(r.exitCode, 2) << flag << " '" << value << "' " << mode << ": " << r.err;
      EXPECT_NE(r.err.find("error: " + flag + ":"), std::string::npos) << r.err;
      EXPECT_TRUE(r.out.empty()) << flag << " " << value;
    }
  }
}

// A --config value that does not parse as its config's type fails the job
// (exit 1) naming the config — locally on both engines, in lint and in
// multi-locale mode — while a well-formed value still runs.
TEST(ServiceJob, MalformedConfigValueExitsOneNamingTheConfig) {
  for (const char* mode : {"", "--reference-interp", "--lint", "--locales=2"}) {
    std::vector<std::string> argv = {"minimd", "--config", "numSteps=abc"};
    if (std::string(mode) == "--locales=2") {
      argv.insert(argv.end(), {"--locales", "2"});
    } else if (*mode) {
      argv.push_back(mode);
    }
    svc::JobResult r = svc::runJob(argv);
    EXPECT_EQ(r.exitCode, 1) << mode << ": " << r.err;
    EXPECT_NE(r.err.find("config 'numSteps': expected an int, got 'abc'"), std::string::npos)
        << mode << ": " << r.err;
  }
  svc::JobResult ok = svc::runJob({"minimd", "--config", "numSteps=2", "--lint"});
  EXPECT_EQ(ok.exitCode, 0) << ok.err;
}

TEST(ServiceJob, MissingProgramFails) {
  svc::JobResult r = svc::runJob({"/no/such/program.chpl"});
  EXPECT_NE(r.exitCode, 0);
}

TEST(ServiceJob, ProfilesAssetAndPrintsDataView) {
  svc::JobResult r = svc::runJob({"minimd", "--view", "data"});
  EXPECT_EQ(r.exitCode, 0) << r.err;
  EXPECT_NE(r.out.find("Data-centric"), std::string::npos);
}

TEST(ServiceJob, FromLogStreamingMatchesDirectRun) {
  std::string logPath = ::testing::TempDir() + "/cb_svc_fromlog.cblog";
  svc::JobResult direct = svc::runJob({"minimd", "--view", "data", "--save-log", logPath});
  ASSERT_EQ(direct.exitCode, 0) << direct.err;
  // Re-analyzing the saved log through the streaming post-mortem must
  // reproduce the direct run's report byte for byte, at any chunk size.
  for (const char* chunk : {"1", "4096"}) {
    svc::JobResult replay = svc::runJob(
        {"minimd", "--view", "data", "--from-log", logPath, "--stream-chunk", chunk});
    EXPECT_EQ(replay.exitCode, 0) << replay.err;
    EXPECT_EQ(replay.out, direct.out) << "chunk=" << chunk;
  }
  std::filesystem::remove(logPath);
}

TEST(ServiceJob, FromLogRejectsViewsNeedingLiveState) {
  std::string logPath = ::testing::TempDir() + "/cb_svc_fromlog2.cblog";
  svc::JobResult direct = svc::runJob({"minimd", "--save-log", logPath});
  ASSERT_EQ(direct.exitCode, 0) << direct.err;
  svc::JobResult r = svc::runJob({"minimd", "--from-log", logPath, "--view", "pprof"});
  EXPECT_EQ(r.exitCode, 2);
  std::filesystem::remove(logPath);
}

// A frame or site count far beyond the line must fail as a malformed log
// (exit 1), not reach an allocation and surface as an internal error.
TEST(ServiceJob, FromLogOversizedCountIsMalformedNotInternalError) {
  const std::string header = "cblog 6 101 2 5000 0 0 0 0 0 0 0 0 0 0\n";
  for (const std::string& record :
       {std::string("S 0 0 150 0 0 0 0 18446744073709551615 0:1\n"),
        std::string("W 1 0 0 0 4611686018427387904 0:1\n"),
        std::string("T 0 0 0 0 10 18446744073709551615 0:1:1:1:1\n")}) {
    std::string logPath = ::testing::TempDir() + "/cb_svc_hugecount.cblog";
    {
      std::ofstream f(logPath, std::ios::binary | std::ios::trunc);
      f << header << record;
    }
    svc::JobResult r = svc::runJob({"example", "--from-log", logPath});
    EXPECT_EQ(r.exitCode, 1) << record << r.err;
    EXPECT_NE(r.err.find("cannot stream run log"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("(missing or malformed)"), std::string::npos) << r.err;
    std::filesystem::remove(logPath);
  }
}

// A log recorded from another program names functions or instructions the
// module lacks. The streaming path and the batch path (--diagnose) apply the
// same frame rule: each bad form exits 1 as malformed on both, never with an
// internal error and never silently.
TEST(ServiceJob, FromLogForeignFrameIsMalformedOnBothPaths) {
  const std::string header = "cblog 6 101 2 5000 0 0 0 0 0 0 0 0 0 0\n";
  const std::string logPath = ::testing::TempDir() + "/cb_svc_foreign.cblog";
  auto runWith = [&](const std::string& record, bool diagnose) {
    {
      std::ofstream f(logPath, std::ios::binary | std::ios::trunc);
      f << header << record;
    }
    std::vector<std::string> argv = {"example", "--from-log", logPath};
    if (diagnose) argv.push_back("--diagnose");
    return svc::runJob(argv);
  };
  for (bool diagnose : {false, true}) {
    SCOPED_TRACE(diagnose ? "batch (--diagnose)" : "streaming");
    svc::JobResult good = runWith("S 0 0 150 0 0 0 0 1 1:2\n", diagnose);
    EXPECT_EQ(good.exitCode, 0) << good.err;
    for (const std::string& record :
         {std::string("S 0 0 150 0 0 0 0 1 999:1\n"),        // unknown function
          std::string("S 0 0 150 0 0 0 0 1 1:999999\n"),     // instruction out of range
          std::string("W 1 0 0 0 1 999:0\n"),                // foreign pre-spawn stack
          std::string("W 1 0 0 0 1 1:999999\n")}) {
      svc::JobResult r = runWith(record, diagnose);
      EXPECT_EQ(r.exitCode, 1) << record << r.err;
      EXPECT_NE(r.err.find("(missing or malformed)"), std::string::npos) << record << r.err;
      EXPECT_EQ(r.err.find("internal error"), std::string::npos) << record << r.err;
    }
  }
  std::filesystem::remove(logPath);
}

TEST(ServiceJob, ResidentCacheHitSkipsRecompileAndMatches) {
  cache::ResidentProgramCache resident(8);
  svc::JobContext ctx;
  ctx.resident = &resident;
  svc::JobResult cold = svc::runJob({"minimd", "--view", "data"}, ctx);
  ASSERT_EQ(cold.exitCode, 0) << cold.err;
  EXPECT_EQ(resident.hits(), 0u);
  EXPECT_EQ(resident.size(), 1u);
  svc::JobResult warm = svc::runJob({"minimd", "--view", "data"}, ctx);
  ASSERT_EQ(warm.exitCode, 0) << warm.err;
  EXPECT_GE(resident.hits(), 1u);
  EXPECT_EQ(warm.out, cold.out);
  EXPECT_EQ(warm.err, cold.err);
}

// ---------------------------------------------------------------------------
// Daemon lifecycle + served bit-identity
// ---------------------------------------------------------------------------

TEST(ServiceDaemon, ServedJobBitIdenticalToLocal) {
  svc::ServerOptions sopts;
  sopts.socketPath = freshSocket("one");
  sopts.workers = 2;
  svc::Server server(sopts);
  ASSERT_TRUE(server.start()) << server.lastError();

  // Profiles, lint runs, and rejected argv (which must fail the job, not
  // the daemon) all answer byte for byte as they do locally. The int-edge
  // program once killed the daemon under --fast: its constant folder
  // trapped on min / -1.
  const std::string repro = ::testing::TempDir() + "/cb_svc_int_min_div.chpl";
  std::ofstream(repro) << "proc main() { var x = (0 - 9223372036854775807 - 1) / (0 - 1); "
                          "writeln(x); }\n";
  const std::vector<std::vector<std::string>> jobs = {
      {"minimd", "--view", "data"},       {"ig_naive", "--lint"},
      {"minimd_badloc", "--lint"},        {"lulesh", "--workers", "0"},
      {"lulesh", "--workers", "abc"},     {"lulesh", "--workers", "4294967296"},
      {"minimd", "--config", "numSteps=abc"},
      {repro, "--fast"},
  };
  for (const std::vector<std::string>& argv : jobs) {
    SCOPED_TRACE(argv[0] + " " + argv[1]);
    svc::JobResult local = svc::runJob(argv);
    svc::ClientResult served = svc::runRemote(sopts.socketPath, argv);
    ASSERT_TRUE(served.ok) << served.error;
    EXPECT_EQ(served.job.exitCode, local.exitCode);
    EXPECT_EQ(served.job.out, local.out);
    EXPECT_EQ(served.job.err, local.err);
  }
  server.stop();
  EXPECT_EQ(server.requestsServed(), jobs.size());
  EXPECT_FALSE(std::filesystem::exists(sopts.socketPath));  // socket removed
}

TEST(ServiceDaemon, StartFailsOnUnbindablePath) {
  svc::ServerOptions sopts;
  sopts.socketPath = "/no/such/dir/cb.sock";
  svc::Server server(sopts);
  EXPECT_FALSE(server.start());
  EXPECT_FALSE(server.lastError().empty());
}

TEST(ServiceDaemon, MalformedFrameFailsConnectionNotDaemon) {
  svc::ServerOptions sopts;
  sopts.socketPath = freshSocket("mal");
  svc::Server server(sopts);
  ASSERT_TRUE(server.start()) << server.lastError();

  // Hand-roll a connection that sends a garbage payload in a valid frame:
  // the daemon must answer exit code 2, then serve the next client normally.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sopts.socketPath.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_TRUE(svc::writeFrame(fd, "\xff\xff\xff garbage"));
  std::string payload;
  ASSERT_TRUE(svc::readFrame(fd, payload));
  svc::JobResult r;
  ASSERT_TRUE(svc::decodeResponse(payload, r));
  EXPECT_EQ(r.exitCode, 2);
  EXPECT_NE(r.err.find("malformed"), std::string::npos);
  ::close(fd);

  svc::ClientResult ok = svc::runRemote(sopts.socketPath, {"--help"});
  ASSERT_TRUE(ok.ok) << ok.error;
  server.stop();
}

TEST(ServiceDaemon, FailingJobDoesNotPoisonFollowingJobs) {
  svc::ServerOptions sopts;
  sopts.socketPath = freshSocket("poison");
  svc::Server server(sopts);
  ASSERT_TRUE(server.start()) << server.lastError();
  svc::ClientResult bad = svc::runRemote(sopts.socketPath, {"/no/such/prog.chpl"});
  ASSERT_TRUE(bad.ok) << bad.error;
  EXPECT_NE(bad.job.exitCode, 0);
  svc::ClientResult good = svc::runRemote(sopts.socketPath, {"minimd", "--view", "data"});
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.job.exitCode, 0) << good.job.err;
  server.stop();
  EXPECT_EQ(server.requestsServed(), 2u);
}

// The acceptance soak: at 1, 2, 4 and 8 concurrent in-flight jobs, every
// served response must be bit-identical to the local runJob answer for the
// same argv — the daemon's resident cache and thread pool must never leak
// one job's state into another.
TEST(ServiceSoak, ConcurrentJobsBitIdenticalAtEveryWidth) {
  const std::vector<std::vector<std::string>> jobs = {
      {"minimd", "--view", "data"},
      {"minimd", "--view", "code"},
      {"ig_naive", "--view", "data"},
      {"minimd", "--view", "data", "--threshold", "20011"},
  };
  std::vector<svc::JobResult> expected;
  for (const auto& argv : jobs) expected.push_back(svc::runJob(argv));

  for (uint32_t width : {1u, 2u, 4u, 8u}) {
    svc::ServerOptions sopts;
    sopts.socketPath = freshSocket("soak" + std::to_string(width));
    sopts.workers = width;
    svc::Server server(sopts);
    ASSERT_TRUE(server.start()) << server.lastError();

    const uint32_t requests = 2 * width;
    std::vector<std::thread> clients;
    std::vector<std::string> failures(requests);
    for (uint32_t i = 0; i < requests; ++i)
      clients.emplace_back([&, i] {
        const auto& argv = jobs[i % jobs.size()];
        const svc::JobResult& want = expected[i % jobs.size()];
        svc::ClientResult got = svc::runRemote(sopts.socketPath, argv);
        if (!got.ok) {
          failures[i] = got.error;
        } else if (got.job.exitCode != want.exitCode || got.job.out != want.out ||
                   got.job.err != want.err) {
          failures[i] = "served response diverged from local for " + argv[0];
        }
      });
    for (auto& t : clients) t.join();
    for (uint32_t i = 0; i < requests; ++i)
      EXPECT_TRUE(failures[i].empty()) << "width " << width << " job " << i << ": "
                                       << failures[i];
    server.stop();
    EXPECT_EQ(server.requestsServed(), requests);
    // The resident tier actually engaged: repeats of the same program hit.
    EXPECT_GT(server.residentCache().hits() + server.residentCache().misses(), 0u);
  }
}

TEST(ServiceDaemon, MaxRequestsStopsAcceptLoop) {
  svc::ServerOptions sopts;
  sopts.socketPath = freshSocket("maxreq");
  sopts.maxRequests = 2;
  svc::Server server(sopts);
  ASSERT_TRUE(server.start()) << server.lastError();
  for (int i = 0; i < 2; ++i) {
    svc::ClientResult r = svc::runRemote(sopts.socketPath, {"--help"});
    ASSERT_TRUE(r.ok) << r.error;
  }
  EXPECT_EQ(server.wait(), 2u);
  server.stop();
}

}  // namespace
}  // namespace cb
