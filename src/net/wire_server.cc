#include "net/wire_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "serve/window_stream.h"

namespace dangoron {

namespace {

// One epoll_wait batch; small enough to stay responsive to the wake fd.
constexpr int kMaxEpollEvents = 64;
constexpr size_t kReadChunkBytes = 64 * 1024;

Status Errno(const char* what) {
  return Status::Internal("net: ", what, ": ", std::string(strerror(errno)));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// Per-connection state. The IO thread owns the fd, the FrameReader, and
/// epoll registration; workers only touch the mutex-guarded output buffer
/// and the active stream slot. The object outlives the socket: a worker
/// holding a ConnectionPtr after the peer vanished sees `closed` and bails.
struct WireServer::Connection {
  int fd = -1;
  bool adopted = false;

  // IO-thread-only.
  FrameReader reader{/*expect_preamble=*/true};
  bool want_write = false;    ///< EPOLLOUT currently armed
  bool dead = false;          ///< torn down; ignore late wake-queue entries
  bool reject_input = false;  ///< protocol error: stop decoding frames

  Mutex mutex;
  CondVar writable_cv;
  /// Pending response bytes.
  std::string outbuf GUARDED_BY(mutex);
  /// Prefix of `outbuf` already sent.
  size_t out_offset GUARDED_BY(mutex) = 0;
  /// No more writes will be flushed.
  bool closed GUARDED_BY(mutex) = false;
  /// Close once `outbuf` drains.
  bool close_after_flush GUARDED_BY(mutex) = false;
  /// One request at a time.
  bool request_in_flight GUARDED_BY(mutex) = false;
  /// Cancel raced the dispatch.
  bool cancel_pending GUARDED_BY(mutex) = false;
  std::shared_ptr<WindowStream> active_stream GUARDED_BY(mutex);
};

WireServer::WireServer(DangoronServer* server, const WireServerOptions& options)
    : server_(server), options_(options) {}

WireServer::~WireServer() { Stop(); }

Status WireServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("wire server already started");
  }
  // Seed the IO-thread-owned state from this thread; the IO thread takes
  // the role over at the top of IoLoop.
  io_role_.Adopt();
  io_role_.AssertHeld();

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Errno("epoll_create1");
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    Status status = Errno("eventfd");
    close(epoll_fd_);
    epoll_fd_ = -1;
    return status;
  }
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event) != 0) {
    Status status = Errno("epoll_ctl(wake)");
    close(wake_fd_);
    close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    return status;
  }

  if (options_.port >= 0) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      Status status = Errno("socket");
      Stop();
      return status;
    }
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      Stop();
      return Status::InvalidArgument("wire server: bad bind address '",
                                     options_.bind_address, "'");
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Status status = Errno("bind");
      Stop();
      return status;
    }
    if (listen(listen_fd_, 128) != 0) {
      Status status = Errno("listen");
      Stop();
      return status;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
    epoll_event listen_event{};
    listen_event.events = EPOLLIN;
    listen_event.data.fd = listen_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) != 0) {
      Status status = Errno("epoll_ctl(listen)");
      Stop();
      return status;
    }
    listener_armed_ = true;
    // Reserved so ShedPendingConnection can accept under fd exhaustion.
    spare_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
  }

  int32_t workers = options_.worker_threads;
  if (workers <= 0) {
    workers = std::max<int32_t>(
        8, static_cast<int32_t>(std::thread::hardware_concurrency()));
  }
  pool_ = std::make_unique<LanedTaskPool>(workers);

  stop_requested_.store(false);
  running_.store(true);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::Ok();
}

Status WireServer::AddConnection(int fd) {
  if (!running_.load()) {
    close(fd);
    return Status::FailedPrecondition("wire server not running");
  }
  if (!SetNonBlocking(fd)) {
    Status status = Errno("fcntl(O_NONBLOCK)");
    close(fd);
    return status;
  }
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  conn->adopted = true;
  {
    MutexLock lock(pending_mutex_);
    pending_adds_.push_back(std::move(conn));
  }
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  return Status::Ok();
}

void WireServer::Stop() {
  if (running_.exchange(false)) {
    stop_requested_.store(true);
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
    if (io_thread_.joinable()) {
      io_thread_.join();
    }
    // The IO thread closed every connection (cancelling streams), so the
    // workers unblock and drain; Shutdown joins them, making the lane
    // counters final. The pool object stays alive for stats().
    if (pool_ != nullptr) {
      pool_->Shutdown();
    }
  }
  // The IO thread (if it ever ran) has exited: this thread owns its state
  // again for the teardown below.
  io_role_.Adopt();
  io_role_.AssertHeld();
  // Late adds that never reached the IO thread still own their fds.
  std::vector<ConnectionPtr> orphans;
  {
    MutexLock lock(pending_mutex_);
    orphans.swap(pending_adds_);
    pending_flushes_.clear();
  }
  for (const ConnectionPtr& conn : orphans) {
    close(conn->fd);
  }
  if (spare_fd_ >= 0) {
    close(spare_fd_);
    spare_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  listener_armed_ = false;
  if (wake_fd_ >= 0) {
    close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

WireServerStats WireServer::stats() const {
  MutexLock lock(stats_mutex_);
  WireServerStats snapshot = stats_;
  if (pool_ != nullptr) {
    snapshot.lanes = pool_->stats();
  }
  return snapshot;
}

TaskLane WireServer::ClassifyLane(const WireRequest& request) const {
  const bool tight = request.options.deadline_ms.has_value() &&
                     *request.options.deadline_ms > 0 &&
                     *request.options.deadline_ms <= options_.high_lane_deadline_ms;
  if (tight || server_->HasPreparedSketch(request.dataset, request.query)) {
    return TaskLane::kHigh;
  }
  if (request.options.deadline_ms.has_value() &&
      *request.options.deadline_ms > 0) {
    return TaskLane::kMedium;
  }
  return TaskLane::kLow;
}

// ------------------------------------------------------------ IO thread --

void WireServer::IoLoop() {
  io_role_.Adopt();
  io_role_.AssertHeld();
  epoll_event events[kMaxEpollEvents];
  while (!stop_requested_.load()) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // epoll fd gone — shutting down
    }
    for (int e = 0; e < n; ++e) {
      const int fd = events[e].data.fd;
      if (fd == wake_fd_) {
        HandleWake();
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) {
        continue;  // closed earlier in this batch
      }
      ConnectionPtr conn = it->second;
      if ((events[e].events & (EPOLLHUP | EPOLLERR)) != 0) {
        HandleDisconnect(conn);
        continue;
      }
      if ((events[e].events & EPOLLIN) != 0) {
        HandleReadable(conn);
      }
      if (!conn->dead && (events[e].events & EPOLLOUT) != 0) {
        FlushConnection(conn);
      }
    }
  }
  // Teardown: cancel every in-flight stream and close every socket so the
  // workers (blocked in Next() or on the watermark) unblock and finish.
  for (auto& [fd, conn] : connections_) {
    std::shared_ptr<WindowStream> stream;
    {
      MutexLock lock(conn->mutex);
      conn->closed = true;
      stream = std::move(conn->active_stream);
    }
    conn->writable_cv.NotifyAll();
    if (stream != nullptr) {
      stream->Cancel();
    }
    close(conn->fd);
    conn->dead = true;
  }
  connections_.clear();
}

void WireServer::HandleWake() {
  uint64_t drained = 0;
  [[maybe_unused]] ssize_t n = read(wake_fd_, &drained, sizeof(drained));
  std::vector<ConnectionPtr> adds;
  std::vector<ConnectionPtr> flushes;
  {
    MutexLock lock(pending_mutex_);
    adds.swap(pending_adds_);
    flushes.swap(pending_flushes_);
  }
  for (ConnectionPtr& conn : adds) {
    RegisterConnection(std::move(conn), /*adopted=*/true);
  }
  for (const ConnectionPtr& conn : flushes) {
    // The connection may have died between the worker's request and now.
    if (!conn->dead && connections_.count(conn->fd) != 0 &&
        connections_[conn->fd] == conn) {
      FlushConnection(conn);
    }
  }
}

void WireServer::AcceptNew() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;  // this connection is gone; the next one may be fine
      }
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fds. The listener is level-triggered, so simply returning
        // would leave the pending connection queued, EPOLLIN asserted, and
        // the IO loop spinning at 100% CPU. Shed the connection instead.
        ShedPendingConnection();
      }
      return;  // EAGAIN/EWOULDBLOCK (backlog drained) or transient error
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    RegisterConnection(std::move(conn), /*adopted=*/false);
  }
}

void WireServer::ShedPendingConnection() {
  // Release the reserved fd so accept has a slot, take the pending
  // connection, close it immediately (the peer sees a clean RST/EOF rather
  // than a connect that hangs forever), then re-reserve.
  if (spare_fd_ >= 0) {
    close(spare_fd_);
    spare_fd_ = -1;
  }
  const int fd =
      accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    close(fd);
    MutexLock lock(stats_mutex_);
    ++stats_.connections_rejected;
  } else if (errno == EMFILE || errno == ENFILE) {
    // Even the freed slot was not enough (system-wide exhaustion). Disarm
    // the listener so the loop sleeps instead of spinning; CloseConnection
    // re-arms it as soon as any fd frees up.
    if (listener_armed_ &&
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr) == 0) {
      listener_armed_ = false;
    }
  }
  spare_fd_ = open("/dev/null", O_RDONLY | O_CLOEXEC);
}

void WireServer::RegisterConnection(ConnectionPtr conn, bool adopted) {
  if (static_cast<int64_t>(connections_.size()) >= options_.max_connections) {
    close(conn->fd);
    MutexLock lock(stats_mutex_);
    ++stats_.connections_rejected;
    return;
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = conn->fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event) != 0) {
    close(conn->fd);
    return;
  }
  const int fd = conn->fd;
  connections_[fd] = std::move(conn);
  MutexLock lock(stats_mutex_);
  if (adopted) {
    ++stats_.connections_adopted;
  } else {
    ++stats_.connections_accepted;
  }
  stats_.connections_active = static_cast<int64_t>(connections_.size());
}

void WireServer::HandleReadable(const ConnectionPtr& conn) {
  uint8_t buf[kReadChunkBytes];
  int64_t received = 0;
  while (true) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->reader.Feed(buf, static_cast<size_t>(n));
      received += n;
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;  // drained (level-triggered epoll re-arms otherwise)
      }
      continue;
    }
    if (n == 0) {
      HandleDisconnect(conn);
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    HandleDisconnect(conn);
    return;
  }
  if (received > 0) {
    MutexLock lock(stats_mutex_);
    stats_.bytes_in += received;
  }
  while (!conn->dead && !conn->reject_input) {
    Frame frame;
    bool have = false;
    Status status = conn->reader.Next(&frame, &have);
    if (!status.ok()) {
      ProtocolError(conn, status);
      return;
    }
    if (!have) {
      return;
    }
    HandleFrame(conn, frame);
  }
}

void WireServer::HandleFrame(const ConnectionPtr& conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kRequest: {
      WireRequest request;
      Status status = DecodeRequestPayload(frame.payload, &request);
      if (!status.ok()) {
        ProtocolError(conn, status);
        return;
      }
      bool pipelined = false;
      {
        MutexLock lock(conn->mutex);
        if (conn->request_in_flight) {
          pipelined = true;
        } else {
          conn->request_in_flight = true;
          conn->cancel_pending = false;
        }
      }
      if (pipelined) {
        // The protocol is strictly request/response per connection; a
        // second request before the terminal status frame is a client bug,
        // not a queueing opportunity.
        ProtocolError(conn, Status::FailedPrecondition(
                                "wire: request while a previous request is "
                                "still streaming"));
        return;
      }
      const TaskLane lane = ClassifyLane(request);
      {
        MutexLock lock(stats_mutex_);
        ++stats_.requests;
      }
      ConnectionPtr conn_copy = conn;
      if (!pool_->Post(lane, [this, conn_copy = std::move(conn_copy),
                              request = std::move(request)]() mutable {
            RunRequest(std::move(conn_copy), std::move(request));
          })) {
        // Shutting down: the teardown path closes this connection.
        MutexLock lock(conn->mutex);
        conn->request_in_flight = false;
      }
      return;
    }
    case FrameType::kCancel: {
      std::shared_ptr<WindowStream> stream;
      {
        MutexLock lock(conn->mutex);
        stream = conn->active_stream;
        if (stream == nullptr && conn->request_in_flight) {
          // The worker has the request but has not registered its stream
          // yet; leave a note it picks up at registration.
          conn->cancel_pending = true;
        }
      }
      if (stream != nullptr) {
        stream->Cancel();
      }
      MutexLock lock(stats_mutex_);
      ++stats_.cancel_frames;
      return;
    }
    case FrameType::kWindow:
    case FrameType::kStatus:
      ProtocolError(conn, Status::DataLoss(
                              "wire: server-to-client frame type ",
                              static_cast<int>(frame.type),
                              " received from a client"));
      return;
  }
  ProtocolError(conn, Status::DataLoss("wire: unhandled frame type"));
}

void WireServer::ProtocolError(const ConnectionPtr& conn,
                               const Status& status) {
  {
    MutexLock lock(stats_mutex_);
    ++stats_.protocol_errors;
  }
  std::shared_ptr<WindowStream> stream;
  {
    MutexLock lock(conn->mutex);
    stream = conn->active_stream;
    if (!conn->close_after_flush) {
      // Best-effort courtesy: tell the peer why before hanging up. Past
      // the watermark we close without it — the buffer is already full of
      // frames the peer is not reading.
      if (static_cast<int64_t>(conn->outbuf.size() - conn->out_offset) <
          options_.outbuf_high_watermark) {
        EncodeStatusFrame(status, WireSummary{}, &conn->outbuf);
      }
      conn->close_after_flush = true;
    }
  }
  if (stream != nullptr) {
    stream->Cancel();
  }
  conn->reject_input = true;
  FlushConnection(conn);
}

void WireServer::HandleDisconnect(const ConnectionPtr& conn) {
  std::shared_ptr<WindowStream> stream;
  {
    MutexLock lock(conn->mutex);
    conn->closed = true;
    stream = std::move(conn->active_stream);
  }
  conn->writable_cv.NotifyAll();
  if (stream != nullptr) {
    stream->Cancel();
    MutexLock lock(stats_mutex_);
    ++stats_.disconnect_cancels;
  }
  CloseConnection(conn);
}

void WireServer::FlushConnection(const ConnectionPtr& conn) {
  bool drained = false;
  bool close_now = false;
  // Explicit Lock/Unlock: the disconnect path below must drop the lock
  // before calling into HandleDisconnect (which takes it again), a shape a
  // scoped guard cannot express.
  conn->mutex.Lock();
  int64_t sent = 0;
  while (conn->out_offset < conn->outbuf.size()) {
    const ssize_t n =
        send(conn->fd, conn->outbuf.data() + conn->out_offset,
             conn->outbuf.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      sent += n;
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    // Peer gone mid-write.
    conn->mutex.Unlock();
    if (sent > 0) {
      MutexLock slock(stats_mutex_);
      stats_.bytes_out += sent;
    }
    HandleDisconnect(conn);
    return;
  }
  drained = conn->out_offset == conn->outbuf.size();
  if (drained) {
    conn->outbuf.clear();
    conn->out_offset = 0;
  } else if (conn->out_offset > (size_t{1} << 20)) {
    // Reclaim the sent prefix so a long stream does not grow the buffer
    // without bound even while partially flushed.
    conn->outbuf.erase(0, conn->out_offset);
    conn->out_offset = 0;
  }
  close_now = drained && conn->close_after_flush;
  conn->mutex.Unlock();
  if (sent > 0) {
    MutexLock slock(stats_mutex_);
    stats_.bytes_out += sent;
  }
  // Below the watermark again — wake a worker blocked in WriteToConnection.
  conn->writable_cv.NotifyAll();
  if (close_now) {
    {
      MutexLock lock(conn->mutex);
      conn->closed = true;
    }
    conn->writable_cv.NotifyAll();
    CloseConnection(conn);
    return;
  }
  UpdateEpoll(conn, /*want_write=*/!drained);
}

void WireServer::UpdateEpoll(const ConnectionPtr& conn, bool want_write) {
  if (conn->dead || conn->want_write == want_write) {
    return;
  }
  epoll_event event{};
  event.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  event.data.fd = conn->fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) == 0) {
    conn->want_write = want_write;
  }
}

void WireServer::CloseConnection(const ConnectionPtr& conn) {
  if (conn->dead) {
    return;
  }
  conn->dead = true;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  connections_.erase(conn->fd);
  if (!listener_armed_ && listen_fd_ >= 0) {
    // An fd just freed up: re-arm the listener that ShedPendingConnection
    // disarmed under system-wide fd exhaustion.
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = listen_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) == 0) {
      listener_armed_ = true;
    }
  }
  MutexLock lock(stats_mutex_);
  stats_.connections_active = static_cast<int64_t>(connections_.size());
}

// --------------------------------------------------------- worker side --

bool WireServer::WriteToConnection(const ConnectionPtr& conn,
                                   const std::string& bytes,
                                   bool ends_request) {
  {
    MutexLock lock(conn->mutex);
    while (!conn->closed &&
           static_cast<int64_t>(conn->outbuf.size() - conn->out_offset) >=
               options_.outbuf_high_watermark) {
      conn->writable_cv.Wait(conn->mutex);
    }
    if (ends_request) {
      conn->request_in_flight = false;
    }
    if (conn->closed) {
      return false;
    }
    conn->outbuf.append(bytes);
  }
  RequestFlush(conn);
  return true;
}

void WireServer::RequestFlush(const ConnectionPtr& conn) {
  {
    MutexLock lock(pending_mutex_);
    pending_flushes_.push_back(conn);
  }
  if (running_.load() && wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

void WireServer::RunRequest(ConnectionPtr conn, WireRequest request) {
  Status status = Status::Ok();
  WireSummary summary;

  // A router that addresses datasets by content verifies the shard still
  // holds the bytes it thinks it does.
  if (request.expected_fingerprint != 0) {
    Result<uint64_t> fingerprint = server_->DatasetFingerprint(request.dataset);
    if (!fingerprint.ok()) {
      status = fingerprint.status();
    } else if (*fingerprint != request.expected_fingerprint) {
      status = Status::FailedPrecondition(
          "wire: dataset '", request.dataset, "' fingerprint mismatch");
    }
  }

  // Wire convenience: end = 0 means "the dataset's full range" — a remote
  // client need not know the series length (docs/WIRE_PROTOCOL.md).
  if (status.ok() && request.query.end == 0) {
    Result<int64_t> length = server_->DatasetLength(request.dataset);
    if (length.ok()) {
      request.query.end = *length;
    }  // unknown dataset: let SubmitStreaming report NotFound
  }

  if (status.ok()) {
    QueryRequest query_request{request.dataset, request.query,
                               request.options};
    std::shared_ptr<WindowStream> stream =
        server_->SubmitStreaming(query_request);

    // Publish the stream so a disconnect or cancel frame can reach it; a
    // cancel that raced ahead of this registration left a note instead.
    bool cancel_now = false;
    {
      MutexLock lock(conn->mutex);
      if (conn->closed) {
        cancel_now = true;
      } else {
        conn->active_stream = stream;
        cancel_now = conn->cancel_pending;
        conn->cancel_pending = false;
      }
    }
    if (cancel_now) {
      stream->Cancel();
    }

    std::string frame;
    while (std::optional<StreamedWindow> window = stream->Next()) {
      frame.clear();
      EncodeWindowFrame(window->window_index, *window->edges, &frame);
      if (frame.size() >
          kMaxFramePayload + static_cast<uint64_t>(kFrameHeaderBytes)) {
        // Too dense to frame: abort the stream and report the budget
        // overflow instead of emitting a frame the peer must reject.
        stream->Cancel();
        while (stream->Next()) {
        }
        status = Status::ResourceExhausted(
            "wire: window ", window->window_index, " encodes to ",
            frame.size() - kFrameHeaderBytes,
            " bytes, past the frame cap of ", kMaxFramePayload);
        MutexLock lock(stats_mutex_);
        ++stats_.oversized_windows;
        break;
      }
      if (!WriteToConnection(conn, frame)) {
        // Peer vanished mid-stream: stop the producer and join it so its
        // claims are released before this worker moves on.
        stream->Cancel();
        while (stream->Next()) {
        }
        break;
      }
      ++summary.windows_delivered;
    }

    if (status.ok()) {
      status = stream->status();
    }
    const StreamingSummary streamed = stream->summary();
    summary.tier_used = streamed.tier_used;
    summary.prepared_from_cache = streamed.prepared_from_cache;
    summary.degraded = streamed.degraded;
    summary.windows_from_cache = streamed.windows_from_cache;
    summary.windows_computed = streamed.windows_computed;
    summary.windows_joined = streamed.windows_joined;
    summary.cells_jumped = streamed.cells_jumped;
    summary.jumps = streamed.jumps;

    MutexLock lock(conn->mutex);
    conn->active_stream.reset();
  }

  std::string terminal;
  EncodeStatusFrame(status, summary, &terminal);
  // Best-effort on a closed connection; frees the request slot either way.
  WriteToConnection(conn, terminal, /*ends_request=*/true);
  // After the terminal status is queued — and may already be flushed — a
  // well-behaved client is free to send its next request.
  DANGORON_FAILPOINT_HIT("wire.terminal_queued");
}

}  // namespace dangoron
