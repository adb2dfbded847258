// cb-serve: the resident profiling daemon. Listens on a local (AF_UNIX)
// stream socket; each connection carries one framed request (a cb argv,
// see service/protocol.h), which is dispatched to the shared job runner on
// a cb::ThreadPool and answered with one framed response.
//
// Why resident: the daemon keeps a ResidentProgramCache across jobs, so the
// N-th profile of an unchanged program skips parse, lowering, CFG/dominators
// and the blame fixpoint — only execution and post-mortem remain. Job
// isolation is strict: a malformed frame fails its connection, a throwing
// job answers exit code 3, and neither ever poisons the daemon, its pool,
// or the cache (entries are immutable shared_ptr<const> snapshots).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "cache/analysis_cache.h"
#include "service/job.h"

namespace cb {
class ThreadPool;
}

namespace cb::svc {

struct ServerOptions {
  std::string socketPath;
  /// Concurrent jobs; 0 = hardware concurrency.
  uint32_t workers = 0;
  /// Resident program-cache capacity (entries).
  size_t residentCapacity = 32;
  /// Disk-tier cache directory applied to every job ("" = disabled;
  /// a job's own --cache-dir still overrides).
  std::string cacheDir;
  /// Stop accepting after this many requests (0 = serve until stop()).
  /// Used by tests and the soak harness for deterministic shutdown.
  uint64_t maxRequests = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept loop. False (with lastError set)
  /// when the socket cannot be created/bound.
  bool start();

  /// Stops accepting, drains in-flight jobs, joins the accept thread and
  /// removes the socket file. Idempotent.
  void stop();

  /// Blocks until the accept loop exits (stop() or maxRequests reached),
  /// then drains. Returns the number of requests served.
  uint64_t wait();

  bool running() const { return running_.load(); }
  uint64_t requestsServed() const { return served_.load(); }
  const std::string& lastError() const { return error_; }
  const std::string& socketPath() const { return opts_.socketPath; }

  /// The daemon's resident tier (exposed for tests and stats).
  cache::ResidentProgramCache& residentCache() { return resident_; }

 private:
  void acceptLoop(int listenFd);
  void handleConnection(int fd);

  ServerOptions opts_;
  cache::ResidentProgramCache resident_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> served_{0};
  int listenFd_ = -1;
  std::string error_;
};

}  // namespace cb::svc
