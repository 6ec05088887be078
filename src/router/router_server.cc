#include "router/router_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace dangoron {

namespace {

Status Errno(const char* what) {
  return Status::IoError("router server: ", what, "(): ",
                         std::string(std::strerror(errno)));
}

}  // namespace

RouterServer::RouterServer(ShardRouter* router,
                           const RouterServerOptions& options)
    : router_(router), options_(options) {}

RouterServer::~RouterServer() { Stop(); }

void RouterServer::RegisterDataset(const std::string& name,
                                   int64_t num_series, uint64_t fingerprint) {
  MutexLock lock(mutex_);
  datasets_[name] =
      DatasetInfo{num_series * (num_series - 1) / 2, fingerprint};
}

Status RouterServer::Start() {
  if (running_.exchange(true)) {
    return Status::FailedPrecondition("router server: already started");
  }
  if (options_.port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      running_ = false;
      return Errno("socket");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      running_ = false;
      return Status::InvalidArgument("router server: bad bind address '",
                                     options_.bind_address, "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status status = Errno("bind");
      ::close(listen_fd_);
      listen_fd_ = -1;
      running_ = false;
      return status;
    }
    if (::listen(listen_fd_, 128) != 0) {
      Status status = Errno("listen");
      ::close(listen_fd_);
      listen_fd_ = -1;
      running_ = false;
      return status;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }
  return Status::Ok();
}

Status RouterServer::AddConnection(int fd) {
  if (!running_.load()) {
    ::close(fd);
    return Status::FailedPrecondition("router server: not running");
  }
  MutexLock lock(mutex_);
  ++stats_.connections_adopted;
  ++stats_.connections_active;
  open_fds_.push_back(fd);
  connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  return Status::Ok();
}

void RouterServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Connection threads blocked in poll/recv wake on shutdown and exit on
    // the dead socket; they close their own fd.
    MutexLock lock(mutex_);
    for (int fd : open_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> threads;
  {
    MutexLock lock(mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) {
      t.join();
    }
  }
}

RouterServerStats RouterServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void RouterServer::AcceptLoop() {
  while (running_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) {
      continue;  // timeout (re-check running_) or EINTR
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    MutexLock lock(mutex_);
    ++stats_.connections_accepted;
    if (stats_.connections_active >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ++stats_.connections_active;
    open_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

bool RouterServer::WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool RouterServer::SendStatus(int fd, const Status& status,
                              const WireSummary& summary) {
  std::string frame;
  EncodeStatusFrame(status, summary, &frame);
  return WriteAll(fd, frame);
}

void RouterServer::HandleConnection(int fd) {
  FrameReader reader(/*expect_preamble=*/true);
  uint8_t chunk[64 * 1024];
  // Wakes the request watcher when a relay finishes (see ServeRequest).
  const int wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  bool alive = wake_fd >= 0;
  while (alive && running_.load()) {
    Frame frame;
    bool have = false;
    if (Status decoded = reader.Next(&frame, &have); !decoded.ok()) {
      MutexLock lock(mutex_);
      ++stats_.protocol_errors;
      break;
    }
    if (have) {
      switch (frame.type) {
        case FrameType::kRequest: {
          WireRequest request;
          if (Status decoded = DecodeRequestPayload(frame.payload, &request);
              !decoded.ok()) {
            MutexLock lock(mutex_);
            ++stats_.protocol_errors;
            alive = false;
            break;
          }
          {
            MutexLock lock(mutex_);
            ++stats_.requests;
          }
          alive = ServeRequest(fd, wake_fd, &reader, request);
          break;
        }
        case FrameType::kCancel:
          // A cancel racing the terminal status of the request it aimed
          // at; nothing in flight anymore, so it is a no-op.
          {
            MutexLock lock(mutex_);
            ++stats_.cancel_frames;
          }
          break;
        default: {
          MutexLock lock(mutex_);
          ++stats_.protocol_errors;
          alive = false;
          break;
        }
      }
      continue;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 200);
    if (rc == 0 || (rc < 0 && errno == EINTR)) {
      continue;  // timeout: re-check running_
    }
    if (rc < 0) {
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;  // peer closed between requests — a clean goodbye
    }
    reader.Feed(chunk, static_cast<size_t>(n));
  }
  if (wake_fd >= 0) {
    ::close(wake_fd);
  }
  ::close(fd);
  MutexLock lock(mutex_);
  --stats_.connections_active;
  open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                  open_fds_.end());
}

bool RouterServer::ServeRequest(int fd, int wake_fd, FrameReader* reader,
                                const WireRequest& request) {
  DatasetInfo info;
  bool known = false;
  {
    MutexLock lock(mutex_);
    auto it = datasets_.find(request.dataset);
    if (it != datasets_.end()) {
      info = it->second;
      known = true;
    }
  }
  if (!known) {
    // Unknown name: terminal NotFound, connection stays usable — the same
    // request-scoped failure semantics as a shard server.
    return SendStatus(fd,
                      Status::NotFound("router: unknown dataset '",
                                       request.dataset, "'"),
                      WireSummary{});
  }

  WireRequest routed = request;
  if (routed.expected_fingerprint == 0) {
    // Pin the registered fingerprint so every shard verifies content even
    // when the client did not ask — drift on any shard must fail loudly,
    // never return a silently partial merge.
    routed.expected_fingerprint = info.fingerprint;
  }

  Result<std::unique_ptr<ShardMerge>> submitted =
      router_->Submit(routed, info.num_pairs);
  if (!submitted.ok()) {
    {
      MutexLock lock(mutex_);
      ++stats_.shard_failures;
    }
    return SendStatus(fd, submitted.status(), WireSummary{});
  }
  std::unique_ptr<ShardMerge> merge = std::move(*submitted);

  // Watcher: while the relay below blocks on merge->Next() / send(), this
  // thread is the only reader of the socket, so a cancel frame or a
  // disconnect reaches the shards immediately. It sleeps on the socket and
  // `wake_fd` with no timeout; the relay writes `wake_fd` once the merge
  // drains and joins it before touching the FrameReader again, so the
  // terminal status leaves the moment the merge ends.
  std::atomic<bool> conn_dead{false};
  std::thread watcher([&] {
    uint8_t wchunk[4096];
    while (true) {
      pollfd pfds[2] = {{fd, POLLIN | POLLRDHUP, 0}, {wake_fd, POLLIN, 0}};
      const int rc = ::poll(pfds, 2, -1);
      if (rc < 0 && errno == EINTR) {
        continue;
      }
      if (rc < 0 || pfds[1].revents != 0) {
        return;  // the relay is done (or the poll set broke)
      }
      const ssize_t n = ::recv(fd, wchunk, sizeof(wchunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        conn_dead.store(true);
        merge->Cancel();
        MutexLock lock(mutex_);
        ++stats_.disconnect_cancels;
        return;
      }
      reader->Feed(wchunk, static_cast<size_t>(n));
      while (true) {
        Frame frame;
        bool have = false;
        if (Status decoded = reader->Next(&frame, &have); !decoded.ok()) {
          conn_dead.store(true);
          merge->Cancel();
          MutexLock lock(mutex_);
          ++stats_.protocol_errors;
          return;
        }
        if (!have) {
          break;
        }
        if (frame.type == FrameType::kCancel) {
          {
            MutexLock lock(mutex_);
            ++stats_.cancel_frames;
          }
          merge->Cancel();
        } else {
          // Pipelining a second request before the terminal status is a
          // protocol violation, same as on a shard server.
          conn_dead.store(true);
          merge->Cancel();
          MutexLock lock(mutex_);
          ++stats_.protocol_errors;
          return;
        }
      }
    }
  });

  Status relay_status = Status::Ok();
  int64_t windows_sent = 0;
  bool write_ok = true;
  std::string frame;
  while (std::optional<StreamedWindow> window = merge->Next()) {
    frame.clear();
    EncodeWindowFrame(window->window_index, *window->edges, &frame);
    if (frame.size() >
        kMaxFramePayload + static_cast<uint64_t>(kFrameHeaderBytes)) {
      // Mirrors WireServer: a window too dense to frame aborts the stream
      // with the budget overflow instead of an unparseable frame.
      merge->Cancel();
      while (merge->Next()) {
      }
      relay_status = Status::ResourceExhausted(
          "router: merged window ", window->window_index, " encodes to ",
          frame.size() - kFrameHeaderBytes, " bytes, past the frame cap of ",
          kMaxFramePayload);
      break;
    }
    if (!WriteAll(fd, frame)) {
      merge->Cancel();
      while (merge->Next()) {
      }
      write_ok = false;
      break;
    }
    ++windows_sent;
  }

  const uint64_t one = 1;
  [[maybe_unused]] ssize_t woke = ::write(wake_fd, &one, sizeof(one));
  watcher.join();
  uint64_t drained = 0;  // re-arm for the connection's next request
  [[maybe_unused]] ssize_t reset = ::read(wake_fd, &drained, sizeof(drained));

  if (const int64_t failovers = merge->failovers(); failovers > 0) {
    MutexLock lock(mutex_);
    stats_.failovers += failovers;
  }
  if (!write_ok && !conn_dead.load()) {
    // The relay's write found the client gone before the watcher saw the
    // hang-up (the watcher then returns on wake_fd): the same disconnect,
    // cancelled from this side.
    MutexLock lock(mutex_);
    ++stats_.disconnect_cancels;
  }

  if (conn_dead.load() || !write_ok) {
    return false;
  }

  Status terminal =
      relay_status.ok() ? merge->status() : relay_status;
  WireSummary summary = merge->summary();
  summary.windows_delivered = windows_sent;
  if (!terminal.ok() && terminal.code() != StatusCode::kCancelled) {
    MutexLock lock(mutex_);
    ++stats_.shard_failures;
  }
  return SendStatus(fd, terminal, summary);
}

}  // namespace dangoron
