// Micro-batching submission queue: many producer threads Push search
// requests; the engine's single scheduler thread PopBatch-es them. PopBatch
// blocks until at least one request arrives, then lingers a bounded time for
// the batch to fill toward max_batch -- trading a small, configurable latency
// hit for the amortization wins of batch execution (one batched rotation, one
// worker fan-out, one stats update per batch instead of per query).
//
// The queue is the engine's admission-control point: a capacity bound makes
// Push refuse work once the backlog hits it (bounded memory under overload),
// and PopBatch sheds queries whose deadline already expired while queued.

#ifndef RABITQ_ENGINE_REQUEST_QUEUE_H_
#define RABITQ_ENGINE_REQUEST_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "index/ivf.h"
#include "index/search_types.h"
#include "util/status.h"

namespace rabitq {

/// One queued query, owning a copy of the vector (the caller's buffer may
/// die immediately after SubmitAsync returns; the options' IdFilter stays a
/// view -- its bitmap/context must live until the future resolves).
/// options.seed is always set: the caller's seed, else the engine's
/// ticket-derived seed drawn at submission.
struct QueuedQuery {
  std::vector<float> query;
  SearchOptions options;
  std::chrono::steady_clock::time_point submit_time;
  std::promise<SearchResponse> promise;
};

class RequestQueue {
 public:
  /// Outcome of a Push: admitted, bounced off the capacity bound, or
  /// refused because the queue was closed. On kFull/kClosed `req` is left
  /// untouched, so the producer can fail its promise instead of losing it.
  enum class PushResult { kAccepted, kFull, kClosed };

  /// `capacity` bounds how many requests may wait at once (the admission
  /// control of the overload story); 0 means unbounded.
  explicit RequestQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Enqueues a request, or refuses it (see PushResult).
  PushResult Push(QueuedQuery&& req) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (capacity_ != 0 && queue_.size() >= capacity_) {
        return PushResult::kFull;
      }
      queue_.push_back(std::move(req));
    }
    ready_.notify_one();
    return PushResult::kAccepted;
  }

  /// Blocks until a request is available or the queue is closed, then moves
  /// up to `max_batch` requests (0 acts as 1) into `*out` (cleared first),
  /// waiting at most `linger` after the first request for the batch to
  /// fill. When `shed` is non-null, requests whose resolved deadline already
  /// expired while they waited are moved there instead of into `*out` (they
  /// do not count toward max_batch): under overload, queue time eats the
  /// whole budget and executing such a query wastes a batch slot on a
  /// guaranteed kDeadlineExceeded. Returns false only when the queue is
  /// closed AND drained -- the scheduler's exit condition, which guarantees
  /// every accepted request is answered (served or shed).
  bool PopBatch(std::size_t max_batch, std::chrono::microseconds linger,
                std::vector<QueuedQuery>* out,
                std::vector<QueuedQuery>* shed = nullptr) {
    max_batch = std::max<std::size_t>(max_batch, 1);
    out->clear();
    if (shed != nullptr) shed->clear();
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // closed and drained
    if (queue_.size() < max_batch && !closed_ && linger.count() > 0) {
      ready_.wait_for(lock, linger, [this, max_batch] {
        return closed_ || queue_.size() >= max_batch;
      });
    }
    const auto now = std::chrono::steady_clock::now();
    while (!queue_.empty() && out->size() < max_batch) {
      QueuedQuery& front = queue_.front();
      const bool expired =
          shed != nullptr &&
          front.options.deadline != SearchOptions::kNoDeadline &&
          now >= front.options.deadline;
      (expired ? shed : out)->push_back(std::move(front));
      queue_.pop_front();
    }
    return true;
  }

  /// Stops accepting new requests; PopBatch keeps draining what was queued.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<QueuedQuery> queue_;
  bool closed_ = false;
};

}  // namespace rabitq

#endif  // RABITQ_ENGINE_REQUEST_QUEUE_H_
