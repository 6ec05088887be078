#ifndef DANGORON_SERVE_WINDOW_STREAM_H_
#define DANGORON_SERVE_WINDOW_STREAM_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "serve/query_request.h"
#include "serve/window_result_cache.h"

namespace dangoron {

/// One delivered window of a streaming submission.
struct StreamedWindow {
  int64_t window_index = 0;
  /// The window's edge set, sorted by (i, j) and thresholded at the
  /// *query's* threshold (family-cached windows are filtered before
  /// delivery). Shared immutably with the server's window cache.
  WindowEdges edges;
};

/// A condition variable a consumer blocked on something *other than* the
/// stream's own queue registers with the stream, so `Cancel` can wake it:
/// the cancellable-join primitive behind DangoronServer's claimed-window
/// waits (a joiner sleeps on its claim's cv; without registration only the
/// claim's fulfiller could wake it, and a cancelled stream would stay
/// blocked until the foreign evaluation finished). Waiters hold `m` while
/// waiting on `cv` with a predicate that re-checks the stream's cancel
/// flag; `Cancel` notifies through the lock so a waiter between predicate
/// check and sleep cannot miss it.
struct CancelWaker {
  Mutex m;
  CondVar cv;
};

/// Outcome of a deadline-aware blocking push (`PushUntil`).
enum class PushResult : int8_t {
  kPushed = 0,
  kCancelled = 1,          ///< the stream was cancelled; stop producing
  kDeadlineExceeded = 2,   ///< the deadline passed while blocked on a slot
};

/// The shared channel between a streaming query task (producer) and the
/// consumer-facing `WindowStream` handle: a bounded FIFO of finished windows
/// plus the terminal status. Server-internal — consumers use `WindowStream`;
/// it is public only so the server and tests can drive the producer side.
///
/// Producer protocol: any number of `Push` calls (ascending window indices),
/// then exactly one `Finish`. `Push` blocks while the queue is full and the
/// stream is live; it returns false once the stream is cancelled, which is
/// the producer's signal to stop. `cancelled()` lets a producer poll between
/// batches so evaluation (not just delivery) stops early.
class WindowStreamState {
 public:
  explicit WindowStreamState(int64_t queue_capacity);

  // --- producer side (the server's streaming query task) ---

  /// Enqueues one window; blocks while the queue is full. Returns false
  /// when the stream is cancelled (the window is dropped).
  bool Push(StreamedWindow window);

  /// Deadline-aware Push: additionally gives up with kDeadlineExceeded when
  /// `deadline` passes while blocked on a full queue (time_point::max() =
  /// wait indefinitely, i.e. plain Push). A producer serving a hard
  /// deadline must not let a slow consumer hold it past the abort point —
  /// the terminal status is itself a delivery the consumer is waiting for.
  PushResult PushUntil(StreamedWindow window,
                       std::chrono::steady_clock::time_point deadline);

  /// Non-blocking Push: enqueues and returns true only when a queue slot is
  /// free and the stream is live; returns false (window untouched in
  /// effect — callers keep their copy) when the queue is full or the
  /// stream is cancelled, distinguishable via `cancelled()`. Lets a
  /// producer that currently holds unfulfilled evaluation claims deliver
  /// opportunistically without violating the rule that claims are never
  /// held across a blocking wait.
  bool TryPush(StreamedWindow window);

  /// Terminal: publishes the stream's status and accounting, wakes everyone.
  void Finish(Status status, const QueryAccounting& summary);

  bool cancelled() const;

  /// Registers `waker` to be notified by `Cancel` (see CancelWaker). A
  /// no-op on an already-cancelled stream — the waiter's predicate sees
  /// `cancelled()` before it can sleep. Wakers are one-shot: Cancel takes
  /// the registered set with it.
  void AddCancelWaker(std::shared_ptr<CancelWaker> waker);

  /// Unregisters a waker once its wait resolved (claim fulfilled) so the
  /// stream does not accumulate dead registrations.
  void RemoveCancelWaker(const CancelWaker* waker);

  // --- consumer side (via WindowStream) ---

  /// Pops the next window; blocks until one is available or the stream is
  /// terminal. After `Cancel`, blocks until the producer acknowledged (its
  /// `Finish`), so a nullopt return always means the producer is done.
  std::optional<StreamedWindow> Next();

  /// Takes every queued window at once, in order, without blocking: the
  /// bulk `Next` of a consumer that reads an already finished stream
  /// (`DangoronServer::Submit` collecting its series).
  std::deque<StreamedWindow> TakeQueued();

  /// Requests cancellation: drops queued windows (releasing their slots so
  /// a blocked producer wakes immediately) and makes further Push fail.
  void Cancel();

  /// Terminal status — Ok for a fully delivered stream, Cancelled after
  /// `Cancel`, the failure otherwise. Meaningful once `Next` returned
  /// nullopt (i.e. after the producer's Finish).
  Status status() const;

  /// Source accounting; meaningful once `Next` returned nullopt.
  QueryAccounting summary() const;

  bool finished() const;

 private:
  const int64_t capacity_;
  mutable Mutex mutex_;
  CondVar can_push_;
  CondVar can_pop_;
  std::deque<StreamedWindow> queue_ GUARDED_BY(mutex_);
  std::vector<std::shared_ptr<CancelWaker>> cancel_wakers_ GUARDED_BY(mutex_);
  bool cancelled_ GUARDED_BY(mutex_) = false;
  bool finished_ GUARDED_BY(mutex_) = false;
  Status status_ GUARDED_BY(mutex_) = Status::Ok();
  QueryAccounting summary_ GUARDED_BY(mutex_);
};

/// Consumer handle of one `DangoronServer::SubmitStreaming` call. Windows
/// arrive in ascending window_index order, each exactly once; drain with
///
///   while (auto window = stream->Next()) { consume(*window); }
///   RETURN_IF_ERROR(stream->status());
///
/// The producer runs on a dedicated thread (not the server's compute
/// pool), so a full queue blocks only that stream — never a pool thread —
/// and claims are fulfilled before delivery can block, so other queries
/// never depend on this consumer's pace. `Next` must still not be called
/// from inside a server pool task (the same rule as the synchronous
/// `Query`).
///
/// Destroying the handle cancels an unfinished stream, so an abandoned
/// stream finishes promptly instead of idling behind a queue nobody reads.
class WindowStream {
 public:
  explicit WindowStream(std::shared_ptr<WindowStreamState> state)
      : state_(std::move(state)) {}
  ~WindowStream() {
    if (state_ != nullptr && !state_->finished()) {
      state_->Cancel();
    }
  }

  WindowStream(const WindowStream&) = delete;
  WindowStream& operator=(const WindowStream&) = delete;

  /// Blocks for the next window; nullopt once the stream is terminal (the
  /// producer finished, failed, or acknowledged cancellation).
  std::optional<StreamedWindow> Next() { return state_->Next(); }

  /// Mid-stream cancellation: already-queued windows are dropped, the
  /// producer stops at its next batch boundary, and every window it already
  /// computed stays in the server's cache for the next overlapping query.
  void Cancel() { state_->Cancel(); }

  /// Terminal status; meaningful once Next() returned nullopt.
  Status status() const { return state_->status(); }

  /// Source accounting; meaningful once Next() returned nullopt.
  QueryAccounting summary() const { return state_->summary(); }

 private:
  std::shared_ptr<WindowStreamState> state_;
};

}  // namespace dangoron

#endif  // DANGORON_SERVE_WINDOW_STREAM_H_
