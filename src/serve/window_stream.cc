#include "serve/window_stream.h"

#include <utility>

#include "common/failpoint.h"

namespace dangoron {

WindowStreamState::WindowStreamState(int64_t queue_capacity)
    : capacity_(queue_capacity > 0 ? queue_capacity : 1) {}

bool WindowStreamState::Push(StreamedWindow window) {
  MutexLock lock(mutex_);
  while (!cancelled_ && static_cast<int64_t>(queue_.size()) >= capacity_) {
    can_push_.Wait(mutex_);
  }
  if (cancelled_) {
    return false;
  }
  queue_.push_back(std::move(window));
  can_pop_.NotifyOne();
  return true;
}

PushResult WindowStreamState::PushUntil(
    StreamedWindow window, std::chrono::steady_clock::time_point deadline) {
  MutexLock lock(mutex_);
  while (!cancelled_ && static_cast<int64_t>(queue_.size()) >= capacity_) {
    if (deadline == std::chrono::steady_clock::time_point::max()) {
      can_push_.Wait(mutex_);
    } else if (can_push_.WaitUntil(mutex_, deadline) && !cancelled_ &&
               static_cast<int64_t>(queue_.size()) >= capacity_) {
      // Timed out with the queue still full and the stream still live.
      return PushResult::kDeadlineExceeded;
    }
  }
  if (cancelled_) {
    return PushResult::kCancelled;
  }
  queue_.push_back(std::move(window));
  can_pop_.NotifyOne();
  return PushResult::kPushed;
}

bool WindowStreamState::TryPush(StreamedWindow window) {
  // Armed as a "consumer is slow" fault: the push fails as if the queue
  // were full, forcing the producer down its claim-safe fallback path.
  if (DANGORON_FAILPOINT_WAKE("stream.try_push")) {
    return false;
  }
  MutexLock lock(mutex_);
  if (cancelled_ || static_cast<int64_t>(queue_.size()) >= capacity_) {
    return false;
  }
  queue_.push_back(std::move(window));
  can_pop_.NotifyOne();
  return true;
}

void WindowStreamState::AddCancelWaker(std::shared_ptr<CancelWaker> waker) {
  MutexLock lock(mutex_);
  if (cancelled_) {
    return;  // the waiter's wait predicate observes cancelled() first
  }
  cancel_wakers_.push_back(std::move(waker));
}

void WindowStreamState::RemoveCancelWaker(const CancelWaker* waker) {
  MutexLock lock(mutex_);
  for (size_t i = 0; i < cancel_wakers_.size(); ++i) {
    if (cancel_wakers_[i].get() == waker) {
      cancel_wakers_[i] = std::move(cancel_wakers_.back());
      cancel_wakers_.pop_back();
      return;
    }
  }
}

void WindowStreamState::Finish(Status status, const QueryAccounting& summary) {
  MutexLock lock(mutex_);
  finished_ = true;
  status_ = std::move(status);
  summary_ = summary;
  can_pop_.NotifyAll();
  can_push_.NotifyAll();
}

bool WindowStreamState::cancelled() const {
  MutexLock lock(mutex_);
  return cancelled_;
}

std::optional<StreamedWindow> WindowStreamState::Next() {
  MutexLock lock(mutex_);
  while (!finished_ && queue_.empty()) {
    can_pop_.Wait(mutex_);
  }
  if (!queue_.empty()) {
    StreamedWindow window = std::move(queue_.front());
    queue_.pop_front();
    can_push_.NotifyOne();
    return window;
  }
  return std::nullopt;
}

std::deque<StreamedWindow> WindowStreamState::TakeQueued() {
  std::deque<StreamedWindow> taken;
  MutexLock lock(mutex_);
  taken.swap(queue_);
  can_push_.NotifyAll();
  return taken;
}

void WindowStreamState::Cancel() {
  std::vector<std::shared_ptr<CancelWaker>> wakers;
  {
    MutexLock lock(mutex_);
    cancelled_ = true;
    queue_.clear();  // release every slot so a blocked producer wakes now
    can_push_.NotifyAll();
    can_pop_.NotifyAll();
    wakers.swap(cancel_wakers_);
  }
  // Wake registered join waiters outside our lock (their wait predicates
  // call cancelled(), which takes it). The empty lock/unlock of each
  // waker's mutex pins down the waiter: it is either not yet asleep (its
  // predicate will see cancelled()) or asleep with m released (the notify
  // reaches it) — never between predicate and sleep while we notify.
  for (const std::shared_ptr<CancelWaker>& waker : wakers) {
    { MutexLock pin(waker->m); }
    waker->cv.NotifyAll();
  }
}

Status WindowStreamState::status() const {
  MutexLock lock(mutex_);
  return status_;
}

QueryAccounting WindowStreamState::summary() const {
  MutexLock lock(mutex_);
  return summary_;
}

bool WindowStreamState::finished() const {
  MutexLock lock(mutex_);
  return finished_;
}

}  // namespace dangoron
