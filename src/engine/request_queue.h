// Micro-batching submission queue: many producer threads Push search
// requests; the engine's single scheduler thread PopBatch-es them. PopBatch
// is greedy: it blocks until at least one request arrives, then takes
// whatever is queued (up to max_batch) and never waits for more. Batches
// still form under load, from the requests that arrive while the previous
// batch runs, and a lone request runs as soon as the scheduler is free.
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
  /// up to `max_batch` of the queued requests (0 acts as 1) into `*out`
  /// (cleared first) without waiting for more. Requests whose resolved
  /// deadline already expired while they waited go to `*shed` (cleared
  /// first) instead and do not count toward max_batch: under overload,
  /// queue time eats the whole budget and executing such a query wastes a
  /// batch slot on a guaranteed kDeadlineExceeded. Returns false only when
  /// the queue is closed AND drained -- the scheduler's exit condition,
  /// which guarantees every accepted request is answered (served or shed).
  bool PopBatch(std::size_t max_batch, std::vector<QueuedQuery>* out,
                std::vector<QueuedQuery>* shed) {
    max_batch = std::max<std::size_t>(max_batch, 1);
    out->clear();
    shed->clear();
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // closed and drained
    const auto now = std::chrono::steady_clock::now();
    while (!queue_.empty() && out->size() < max_batch) {
      QueuedQuery& front = queue_.front();
      const bool expired =
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

 private:
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<QueuedQuery> queue_;
  bool closed_ = false;
};

}  // namespace rabitq

#endif  // RABITQ_ENGINE_REQUEST_QUEUE_H_
