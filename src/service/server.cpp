#include "service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "support/thread_pool.h"

namespace cb::svc {

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), resident_(opts_.residentCapacity) {}

Server::~Server() { stop(); }

bool Server::start() {
  if (running_.load()) return true;
  if (opts_.socketPath.empty()) {
    error_ = "no socket path";
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + opts_.socketPath;
    return false;
  }
  std::strncpy(addr.sun_path, opts_.socketPath.c_str(), sizeof(addr.sun_path) - 1);

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A stale socket file from a dead daemon would fail the bind; remove it.
  // A LIVE daemon on the same path is not detected here — callers pick
  // per-instance socket paths (tests use the test's temp dir).
  ::unlink(opts_.socketPath.c_str());
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listenFd_, 64) < 0) {
    error_ = std::string("bind/listen ") + opts_.socketPath + ": " + std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    return false;
  }

  uint32_t workers = opts_.workers ? opts_.workers : ThreadPool::defaultConcurrency();
  pool_ = std::make_unique<ThreadPool>(workers);
  stopping_.store(false);
  running_.store(true);
  // The descriptor goes in by value: thread creation orders this read before
  // anything stop() does to the member.
  acceptor_ = std::thread([this, fd = listenFd_] { acceptLoop(fd); });
  return true;
}

void Server::acceptLoop(int listenFd) {
  uint64_t accepted = 0;
  while (!stopping_.load()) {
    int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket closed by stop()
    }
    ++accepted;
    pool_->submit([this, fd] { handleConnection(fd); });
    if (opts_.maxRequests && accepted >= opts_.maxRequests) break;
  }
  running_.store(false);
}

void Server::handleConnection(int fd) {
  // One request per connection. Every failure path just closes the fd: the
  // client observes a dropped connection, the daemon carries on.
  std::string payload;
  if (readFrame(fd, payload)) {
    std::vector<std::string> args;
    JobResult result;
    if (!decodeRequest(payload, args)) {
      result.exitCode = 2;
      result.err = "cb-serve: malformed request frame\n";
    } else {
      JobContext ctx;
      ctx.resident = &resident_;
      ctx.cacheDir = opts_.cacheDir;
      result = runJob(args, ctx);  // runJob never throws
    }
    writeFrame(fd, encodeResponse(result));
    served_.fetch_add(1);
  }
  ::close(fd);
}

uint64_t Server::wait() {
  if (acceptor_.joinable()) acceptor_.join();
  if (pool_) pool_->wait();
  return served_.load();
}

void Server::stop() {
  if (listenFd_ < 0 && !acceptor_.joinable()) return;
  stopping_.store(true);
  // Unblock accept() with shutdown(), and close only after the join, so
  // the acceptor never calls accept() on a descriptor number an unrelated
  // open() has reused.
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (pool_) pool_->wait();
  running_.store(false);
  ::unlink(opts_.socketPath.c_str());
}

}  // namespace cb::svc
