// Network front-end tests: LanedTaskPool scheduling, WireServer lane
// classification, and socketpair-driven end-to-end runs of the full wire
// path — including the acceptance-critical properties: wire results are
// byte-identical to in-process streaming, and a client disconnect (or
// cancel frame) cancels the producer with no leaked window claims.

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sync.h"
#include "net/task_lanes.h"
#include "net/wire_server.h"
#include "serve/server.h"
#include "ts/generators.h"
#include "wire/client.h"
#include "wire/wire_format.h"

namespace dangoron {
namespace {

// ---------------------------------------------------------- LanedTaskPool --

TEST(LanedTaskPoolTest, StrictPriorityAcrossLanes) {
  LanedTaskPool pool(1);
  Mutex mutex;
  CondVar cv;
  bool release = false;
  std::vector<TaskLane> order;

  // Occupy the single worker so the next three posts pile up queued...
  ASSERT_TRUE(pool.Post(TaskLane::kHigh, [&] {
    MutexLock lock(mutex);
    while (!release) {
      cv.Wait(mutex);
    }
  }));
  // ...then post in worst-case order: low first, high last.
  for (const TaskLane lane :
       {TaskLane::kLow, TaskLane::kMedium, TaskLane::kHigh}) {
    ASSERT_TRUE(pool.Post(lane, [&, lane] {
      MutexLock lock(mutex);
      order.push_back(lane);
    }));
  }
  {
    MutexLock lock(mutex);
    release = true;
  }
  cv.NotifyAll();
  pool.Shutdown();

  // The worker must have drained them highest-first regardless of arrival.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], TaskLane::kHigh);
  EXPECT_EQ(order[1], TaskLane::kMedium);
  EXPECT_EQ(order[2], TaskLane::kLow);

  const TaskLaneStats stats = pool.stats();
  for (int lane = 0; lane < kNumTaskLanes; ++lane) {
    EXPECT_EQ(stats.posted[lane], stats.executed[lane]);
    EXPECT_EQ(stats.queued[lane], 0);
  }
}

TEST(LanedTaskPoolTest, ShutdownDrainsQueuedWorkThenRefuses) {
  LanedTaskPool pool(2);
  std::atomic<int> executed{0};
  for (int task = 0; task < 64; ++task) {
    ASSERT_TRUE(pool.Post(static_cast<TaskLane>(task % kNumTaskLanes),
                          [&] { executed.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(executed.load(), 64);
  EXPECT_FALSE(pool.Post(TaskLane::kHigh, [&] { executed.fetch_add(1); }));
  EXPECT_EQ(executed.load(), 64);
}

// -------------------------------------------------------- shared fixture --

constexpr int64_t kBasicWindow = 8;
constexpr int64_t kNumSeries = 16;
constexpr int64_t kLength = kBasicWindow * 40;  // 320 samples

SlidingQuery TestQuery() {
  SlidingQuery query;
  query.start = 0;
  query.end = kLength;
  query.window = 4 * kBasicWindow;
  query.step = kBasicWindow;
  query.threshold = 0.1;
  query.absolute = true;  // dense edge sets: exercises the delta packing
  return query;
}

class WireE2ETest : public ::testing::Test {
 protected:
  WireE2ETest() : server_(ServerOptions()) {
    Rng rng(3);
    CHECK(server_
              .AddDataset("d",
                          GenerateWhiteNoise(kNumSeries, kLength, &rng))
              .ok());
  }

  static DangoronServerOptions ServerOptions() {
    DangoronServerOptions options;
    options.num_threads = 2;
    options.basic_window = kBasicWindow;
    return options;
  }

  /// Starts a listener-less WireServer and hands back a connected client
  /// over a socketpair — the whole wire path with no network stack.
  std::unique_ptr<WireClient> ConnectOverSocketpair(
      WireServer* wire, int* raw_peer = nullptr) {
    int fds[2];
    CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    CHECK(wire->AddConnection(fds[0]).ok());
    if (raw_peer != nullptr) {
      *raw_peer = fds[1];
      return nullptr;
    }
    return WireClient::Adopt(fds[1]);
  }

  /// Bytes an AF_UNIX socketpair can hold for a peer that stops reading:
  /// the sender's SO_SNDBUF plus the receiver's SO_RCVBUF (an upper bound —
  /// stream unix sockets charge only the sender).
  static int64_t SocketpairBufferBytes() {
    int fds[2];
    CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    int sndbuf = 0;
    int rcvbuf = 0;
    socklen_t len = sizeof(sndbuf);
    CHECK(getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, &len) == 0);
    len = sizeof(rcvbuf);
    CHECK(getsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &rcvbuf, &len) == 0);
    close(fds[0]);
    close(fds[1]);
    return int64_t{sndbuf} + int64_t{rcvbuf};
  }

  /// Polls `predicate` for up to two seconds — stats updated by the IO
  /// thread and workers land asynchronously after a disconnect.
  static bool PollFor(const std::function<bool()>& predicate) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
      if (predicate()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return predicate();
  }

  DangoronServer server_;
};

// ----------------------------------------------------------- ClassifyLane --

TEST_F(WireE2ETest, ClassifyLaneRoutesByDeadlineAndWarmth) {
  WireServerOptions options;
  options.port = -1;  // classification needs no sockets at all
  WireServer wire(&server_, options);

  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();

  // Cold dataset, no deadline: an index build must not jump the queue.
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kLow);

  // Cold but deadline-bound: middle lane.
  request.options.deadline_ms = 10000;
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kMedium);

  // A tight deadline rides high regardless of cache state.
  request.options.deadline_ms = 100;
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kHigh);

  // Warm the sketch; now even deadline-less requests are high-lane.
  ASSERT_TRUE(server_.Query("d", TestQuery()).ok());
  ASSERT_TRUE(server_.HasPreparedSketch("d"));
  request.options.deadline_ms.reset();
  EXPECT_EQ(wire.ClassifyLane(request), TaskLane::kHigh);
}

// ------------------------------------------------------------ end to end --

TEST_F(WireE2ETest, SocketpairStreamIsByteIdenticalToInProcess) {
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);

  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  ASSERT_TRUE(client->Submit(request).ok());

  // Drain the wire stream and the in-process stream side by side, comparing
  // the *encoded frame bytes* of every window: the wire must not perturb a
  // single bit of any correlation value or edge index.
  QueryRequest in_process;
  in_process.dataset = "d";
  in_process.query = TestQuery();
  auto reference = server_.SubmitStreaming(in_process);

  int64_t windows = 0;
  while (true) {
    auto from_wire = client->Next();
    ASSERT_TRUE(from_wire.ok()) << from_wire.status().message();
    auto from_ref = reference->Next();
    if (!from_wire->has_value()) {
      EXPECT_FALSE(from_ref.has_value());
      break;
    }
    ASSERT_TRUE(from_ref.has_value());
    std::string wire_bytes;
    std::string ref_bytes;
    EncodeWindowFrame((*from_wire)->window_index, *(*from_wire)->edges,
                      &wire_bytes);
    EncodeWindowFrame(from_ref->window_index, *from_ref->edges, &ref_bytes);
    ASSERT_EQ(wire_bytes.size(), ref_bytes.size());
    ASSERT_EQ(std::memcmp(wire_bytes.data(), ref_bytes.data(),
                          wire_bytes.size()),
              0)
        << "window " << from_ref->window_index
        << " differs between wire and in-process delivery";
    ++windows;
  }
  EXPECT_TRUE(reference->status().ok());
  EXPECT_TRUE(client->result_status().ok())
      << client->result_status().message();
  const int64_t expected_windows =
      (TestQuery().end - TestQuery().window) / TestQuery().step + 1;
  EXPECT_EQ(windows, expected_windows);
  EXPECT_EQ(client->summary().windows_delivered, windows);

  // Back-to-back request on the same connection: the protocol is
  // sequential, not one-shot.
  ASSERT_TRUE(client->Submit(request).ok());
  int64_t rerun_windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
    ++rerun_windows;
  }
  EXPECT_TRUE(client->result_status().ok());
  EXPECT_EQ(rerun_windows, expected_windows);

  wire.Stop();
  const WireServerStats stats = wire.stats();
  EXPECT_EQ(stats.connections_adopted, 1);
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.protocol_errors, 0);
  EXPECT_EQ(server_.stats().inflight_window_claims, 0);
}

TEST_F(WireE2ETest, EndZeroMeansFullRangeAndFingerprintIsChecked) {
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);

  // end = 0: the server resolves it to the dataset's full length — the
  // remote caller does not need to know the series length.
  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  request.query.end = 0;
  auto fingerprint = server_.DatasetFingerprint("d");
  ASSERT_TRUE(fingerprint.ok());
  request.expected_fingerprint = *fingerprint;
  ASSERT_TRUE(client->Submit(request).ok());
  int64_t windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
    ++windows;
  }
  ASSERT_TRUE(client->result_status().ok())
      << client->result_status().message();
  EXPECT_EQ(windows,
            (kLength - TestQuery().window) / TestQuery().step + 1);

  // A stale fingerprint must be refused before any evaluation: a router
  // never silently queries a shard whose data drifted.
  request.expected_fingerprint = *fingerprint + 1;
  ASSERT_TRUE(client->Submit(request).ok());
  auto window = client->Next();
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window->has_value());
  EXPECT_EQ(client->result_status().code(),
            StatusCode::kFailedPrecondition);

  // Unknown dataset: NotFound, zero windows, connection still usable.
  request.dataset = "nope";
  request.expected_fingerprint = 0;
  ASSERT_TRUE(client->Submit(request).ok());
  window = client->Next();
  ASSERT_TRUE(window.ok());
  EXPECT_FALSE(window->has_value());
  EXPECT_EQ(client->result_status().code(), StatusCode::kNotFound);

  wire.Stop();
}

TEST_F(WireE2ETest, NextRequestOnStatusReceiptIsNeverRefusedAsPipelined) {
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);

  // Stall each worker right after it queued a terminal status: the IO
  // thread flushes the status and the client sends its next request while
  // the worker is still inside the request. A request slot freed only
  // after that point refuses every such request as pipelined
  // (FailedPrecondition, connection closed); it must be free already.
  Failpoint* stall =
      FailpointRegistry::Instance().GetOrCreate("wire.terminal_queued");
  const int64_t stalls_before = stall->hits();
  ASSERT_TRUE(stall->Set("delay:1*100").ok());
  WireRequest missing;
  missing.dataset = "nope";  // NotFound: the status is the whole response
  WireRequest real;
  real.dataset = "d";
  real.query = TestQuery();
  for (int i = 0; i < 500; ++i) {
    const bool full = i % 50 == 0;
    ASSERT_TRUE(client->Submit(full ? real : missing).ok()) << "request " << i;
    while (true) {
      auto window = client->Next();
      ASSERT_TRUE(window.ok()) << "request " << i << ": "
                               << window.status().message();
      if (!window->has_value()) {
        break;
      }
    }
    ASSERT_EQ(client->result_status().code(),
              full ? StatusCode::kOk : StatusCode::kNotFound)
        << "request " << i << ": " << client->result_status().message();
  }
  stall->Disarm();
#if DANGORON_FAILPOINTS_ENABLED
  EXPECT_EQ(stall->hits() - stalls_before, 100);
#endif

  wire.Stop();
  const WireServerStats stats = wire.stats();
  EXPECT_EQ(stats.requests, 500);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST_F(WireE2ETest, DisconnectMidStreamCancelsProducer) {
  WireServerOptions options;
  options.port = -1;
  // A tiny outbuf watermark so the draining worker blocks early: the
  // disconnect must reach a producer that is genuinely mid-stream.
  options.outbuf_high_watermark = int64_t{1} << 14;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());

  // A wide answer: 64 series over 197 windows, dense at |c| >= 0.1.
  Rng rng(11);
  const TimeSeriesMatrix wide =
      GenerateWhiteNoise(64, kBasicWindow * 200, &rng);
  ASSERT_TRUE(server_.AddDataset("wide", wide).ok());
  WireRequest wide_request;
  wide_request.dataset = "wide";
  wide_request.query = TestQuery();
  wide_request.query.end = wide.length();
  wide_request.options.queue_capacity = 2;  // tight producer queue
  wide_request.options.max_batch_windows = 1;

  // Checked precondition: the producer cannot finish before the client
  // vanishes. The client reads one window; until then, finished windows can
  // wait only in the socketpair's buffers, the outbuf (watermark plus one
  // frame), the client's 64 KiB read chunk (plus a partial frame), the
  // worker's hand and the stream queue. The answer encodes to more.
  {
    DangoronServer reference(ServerOptions());
    ASSERT_TRUE(reference.AddDataset("wide", wide).ok());
    auto answer = reference.Query("wide", wide_request.query);
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    int64_t answer_bytes = 0;
    int64_t max_frame = 0;
    for (int64_t k = 0; k < answer->series.num_windows(); ++k) {
      std::string frame;
      EncodeWindowFrame(k, answer->series.WindowEdges(k), &frame);
      answer_bytes += static_cast<int64_t>(frame.size());
      max_frame = std::max(max_frame, static_cast<int64_t>(frame.size()));
    }
    const int64_t absorbable =
        SocketpairBufferBytes() + options.outbuf_high_watermark +
        (int64_t{64} << 10) +
        (wide_request.options.queue_capacity + 4) * max_frame;
    ASSERT_GT(answer_bytes, absorbable)
        << "the answer fits in the buffers: the producer could finish Ok "
           "before the disconnect lands";
  }

  {
    auto client = ConnectOverSocketpair(&wire);
    ASSERT_TRUE(client->Submit(wide_request).ok());
    // Read exactly one window, then vanish (the destructor closes the fd).
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    ASSERT_TRUE(window->has_value());
  }

  // The disconnect propagates: epoll sees the hangup, the IO thread
  // cancels the active stream, the producer aborts, and both layers count
  // it. Poll — all of that is asynchronous.
  EXPECT_TRUE(PollFor([&] { return wire.stats().disconnect_cancels >= 1; }))
      << "wire layer never mapped the disconnect to a cancel";
  EXPECT_TRUE(
      PollFor([&] { return server_.stats().streams_cancelled >= 1; }))
      << "serving layer never saw the cancelled stream";

  // No leaked claims once the cancelled producer unwinds, and the server
  // still serves: a fresh connection completes the same query in full.
  EXPECT_TRUE(PollFor(
      [&] { return server_.stats().inflight_window_claims == 0; }));
  auto client = ConnectOverSocketpair(&wire);
  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  ASSERT_TRUE(client->Submit(request).ok());
  int64_t windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
    ++windows;
  }
  EXPECT_TRUE(client->result_status().ok());
  EXPECT_EQ(windows,
            (TestQuery().end - TestQuery().window) / TestQuery().step + 1);

  wire.Stop();
  EXPECT_EQ(server_.stats().inflight_window_claims, 0);
}

TEST_F(WireE2ETest, CancelFrameAbortsTheStream) {
  WireServerOptions options;
  options.port = -1;
  options.outbuf_high_watermark = int64_t{1} << 14;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  auto client = ConnectOverSocketpair(&wire);

  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  request.options.queue_capacity = 2;
  ASSERT_TRUE(client->Submit(request).ok());

  // With a 16 KiB watermark and a 2-window queue the producer cannot get
  // anywhere near the end of a ~37-window dense stream before the cancel
  // frame lands, so the terminal status is deterministically Cancelled.
  ASSERT_TRUE(client->Cancel().ok());
  int64_t windows = 0;
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok()) << window.status().message();
    if (!window->has_value()) {
      break;
    }
    ++windows;  // buffered frames from before the cancel still arrive
  }
  EXPECT_EQ(client->result_status().code(), StatusCode::kCancelled);
  EXPECT_EQ(client->summary().windows_delivered, windows);

  wire.Stop();
  EXPECT_EQ(wire.stats().cancel_frames, 1);
  EXPECT_EQ(server_.stats().inflight_window_claims, 0);
}

TEST_F(WireE2ETest, BadMagicIsAProtocolError) {
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  int raw = -1;
  ConnectOverSocketpair(&wire, &raw);
  ASSERT_GE(raw, 0);

  const char junk[] = "HTTP/1.1 GET /\r\n";
  ASSERT_EQ(send(raw, junk, sizeof(junk) - 1, 0),
            static_cast<ssize_t>(sizeof(junk) - 1));

  // The server answers with a terminal error status frame, then closes.
  FrameReader reader(/*expect_preamble=*/false);
  std::vector<uint8_t> buffer(4096);
  bool saw_status = false;
  bool closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline && !closed) {
    const ssize_t n = recv(raw, buffer.data(), buffer.size(), MSG_DONTWAIT);
    if (n == 0) {
      closed = true;
      break;
    }
    if (n < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    reader.Feed(buffer.data(), static_cast<size_t>(n));
    Frame frame;
    bool have = false;
    ASSERT_TRUE(reader.Next(&frame, &have).ok());
    if (have) {
      ASSERT_EQ(frame.type, FrameType::kStatus);
      Status status;
      WireSummary summary;
      ASSERT_TRUE(DecodeStatusPayload(frame.payload, &status, &summary).ok());
      EXPECT_FALSE(status.ok());
      saw_status = true;
    }
  }
  EXPECT_TRUE(saw_status);
  EXPECT_TRUE(closed);
  close(raw);

  EXPECT_TRUE(PollFor([&] { return wire.stats().protocol_errors >= 1; }));
  wire.Stop();
}

TEST_F(WireE2ETest, HostileRequestLengthIsAProtocolErrorNotACrash) {
  // Regression: a request frame whose dataset-length varint encodes a
  // value near 2^64 once wrapped the decoder's bounds check and threw an
  // uncaught std::length_error on the IO thread — a handful of hostile
  // bytes after connect took the whole daemon down. It must instead be a
  // per-connection protocol error that leaves the server serving.
  WireServerOptions options;
  options.port = -1;
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  int raw = -1;
  ConnectOverSocketpair(&wire, &raw);
  ASSERT_GE(raw, 0);

  std::string bytes;
  AppendPreamble(&bytes);
  std::string payload;
  PutVarint(std::numeric_limits<uint64_t>::max(), &payload);  // dataset len
  payload.append(30, 'x');
  AppendFrameHeader(FrameType::kRequest, payload.size(), &bytes);
  bytes.append(payload);
  ASSERT_EQ(send(raw, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  // The connection dies as a protocol error...
  EXPECT_TRUE(PollFor([&] { return wire.stats().protocol_errors >= 1; }));
  close(raw);

  // ...and the server is still alive: a fresh connection runs the same
  // query to a clean Ok status.
  auto client = ConnectOverSocketpair(&wire);
  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  ASSERT_TRUE(client->Submit(request).ok());
  while (true) {
    auto window = client->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
  }
  EXPECT_TRUE(client->result_status().ok());
  wire.Stop();
}

TEST_F(WireE2ETest, TcpListenerServesARealSocket) {
  WireServerOptions options;
  options.port = 0;  // ephemeral
  WireServer wire(&server_, options);
  ASSERT_TRUE(wire.Start().ok());
  ASSERT_GT(wire.port(), 0);

  auto client = WireClient::ConnectTcp("127.0.0.1", wire.port());
  ASSERT_TRUE(client.ok()) << client.status().message();
  WireRequest request;
  request.dataset = "d";
  request.query = TestQuery();
  ASSERT_TRUE((*client)->Submit(request).ok());
  int64_t windows = 0;
  while (true) {
    auto window = (*client)->Next();
    ASSERT_TRUE(window.ok());
    if (!window->has_value()) {
      break;
    }
    ++windows;
  }
  EXPECT_TRUE((*client)->result_status().ok());
  EXPECT_EQ(windows,
            (TestQuery().end - TestQuery().window) / TestQuery().step + 1);
  wire.Stop();
  EXPECT_EQ(wire.stats().connections_accepted, 1);
}

}  // namespace
}  // namespace dangoron
