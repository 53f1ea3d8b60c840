// Bounded MPMC queue for the streaming serving path, with an explicit
// backpressure policy chosen by the producer side:
//
//   kBlock      — push() waits for space (lossless; producers absorb the
//                 pressure, as when replaying a capture at full speed).
//   kDropOldest — push() evicts the oldest undrained item to make room
//                 (freshness-first; a live monitor prefers recent frames
//                 over stale ones when the classifier falls behind).
//   kReject     — push() fails immediately when full (load shedding at
//                 the edge; the caller sees the refusal and can count it).
//
// Plain mutex + two condition variables. The queue is deliberately not
// lock-free: serving batches are drained dozens-at-a-time, so the lock is
// held far from often enough to matter, and the simple structure keeps
// FIFO order exact — which the determinism contract (single producer =>
// bit-identical verdicts at any DEEPCSI_THREADS) relies on.
//
// Depth / drop / reject counters are exposed via stats() so the service
// and benches can report backpressure behaviour, and tests can assert the
// exact policy semantics.
#pragma once

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "common/failpoint.h"

namespace deepcsi::common {

enum class OverflowPolicy { kBlock, kDropOldest, kReject };

// Outcome of a non-blocking try_push: accepted (item consumed), would
// block (kBlock policy, queue full — item left untouched so the caller
// can park it and retry), or rejected (kReject policy full, or closed).
// The network front end maps these onto per-connection behaviour:
// kWouldBlock pauses the socket's EPOLLIN, kRejected counts a drop.
enum class PushStatus { kAccepted, kWouldBlock, kRejected };

// Outcome of a deadline-bounded pop: got an item, gave up at the deadline
// (queue still open), or found the queue closed and fully drained. The
// three cases are distinguished at the moment the queue lock is held, so
// callers never race a concurrent close() when labelling the outcome.
enum class PopStatus { kItem, kTimeout, kClosed };

struct QueueStats {
  std::size_t depth = 0;           // items currently queued
  std::size_t peak_depth = 0;      // high-water mark
  std::size_t pushed = 0;          // items accepted (includes later drops)
  std::size_t popped = 0;          // items handed to consumers
  std::size_t dropped_oldest = 0;  // evicted by kDropOldest
  std::size_t rejected = 0;        // refused by kReject (or push-after-close)
  std::size_t would_block = 0;     // try_push refusals under kBlock
};

template <typename T>
class ReportQueue {
 public:
  ReportQueue(std::size_t capacity, OverflowPolicy policy)
      : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {}

  ReportQueue(const ReportQueue&) = delete;
  ReportQueue& operator=(const ReportQueue&) = delete;

  // Producer side. Returns true iff the item entered the queue. Under
  // kBlock a full queue makes the caller wait; under kDropOldest the
  // oldest queued item is discarded to make room (the push itself always
  // succeeds); under kReject a full queue refuses the item. Pushing to a
  // closed queue always fails.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (policy_ == OverflowPolicy::kBlock)
      space_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
    return admit_locked(item) == PushStatus::kAccepted;
  }

  // Non-blocking producer entry (the epoll ingest path, which must never
  // park the event-loop thread). Moves from `item` only on kAccepted;
  // kWouldBlock (kBlock policy, queue full) leaves it intact so the
  // caller can hold it and retry once the consumer makes room. Drop and
  // reject accounting matches push().
  PushStatus try_push(T& item) {
    // Failpoint "queue.push": err(EAGAIN) simulates a momentarily full
    // queue (kWouldBlock — the front end parks the report and retries,
    // lossless), any other action simulates admission refusal
    // (kRejected — counted as shed load). Lets the chaos suite provoke
    // both backpressure paths without actually filling the queue.
    static Failpoint fp("queue.push");
    if (const auto fire = fp.evaluate()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (fire->kind == FailKind::kErr && fire->err == EAGAIN) {
        ++stats_.would_block;
        return PushStatus::kWouldBlock;
      }
      ++stats_.rejected;
      return PushStatus::kRejected;
    }
    std::lock_guard<std::mutex> lock(mu_);
    return admit_locked(item);
  }

  // Consumer side: blocks until an item arrives. Returns false only once
  // the queue is closed AND drained (pending items are always delivered).
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return !items_.empty() || closed_; });
    return take_locked(out);
  }

  // As pop(), but gives up at `deadline`; the status says why no item was
  // delivered (timeout vs closed-and-drained), decided under the lock.
  template <typename Clock, typename Duration>
  PopStatus pop_until(T& out,
                      const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!ready_.wait_until(lock, deadline,
                           [&] { return !items_.empty() || closed_; }))
      return PopStatus::kTimeout;
    return take_locked(out) ? PopStatus::kItem : PopStatus::kClosed;
  }

  // Wakes all waiters. Producers fail from here on; consumers drain what
  // is left, then see "closed".
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
    space_.notify_all();
  }

  QueueStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    QueueStats s = stats_;
    s.depth = items_.size();
    return s;
  }

 private:
  // The one admission rule, under the lock. A closed queue rejects. A
  // full one refuses under kBlock (counted as would_block, `item` left
  // intact; push() waits for room first, so it never sees this), evicts
  // its oldest item under kDropOldest, and rejects under kReject.
  PushStatus admit_locked(T& item) {
    if (closed_) {
      ++stats_.rejected;
      return PushStatus::kRejected;
    }
    if (items_.size() >= capacity_) {
      switch (policy_) {
        case OverflowPolicy::kBlock:
          ++stats_.would_block;
          return PushStatus::kWouldBlock;
        case OverflowPolicy::kDropOldest:
          items_.pop_front();
          ++stats_.dropped_oldest;
          break;
        case OverflowPolicy::kReject:
          ++stats_.rejected;
          return PushStatus::kRejected;
      }
    }
    items_.push_back(std::move(item));
    ++stats_.pushed;
    if (items_.size() > stats_.peak_depth) stats_.peak_depth = items_.size();
    ready_.notify_one();
    return PushStatus::kAccepted;
  }

  bool take_locked(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.popped;
    space_.notify_one();
    return true;
  }

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable ready_;  // consumers wait for items
  std::condition_variable space_;  // kBlock producers wait for room
  std::deque<T> items_;
  QueueStats stats_;
  bool closed_ = false;
};

}  // namespace deepcsi::common
