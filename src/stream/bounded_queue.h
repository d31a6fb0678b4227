/// \file bounded_queue.h
/// \brief Bounded multi-producer/multi-consumer blocking ring buffer —
/// the backpressure primitive of the ordered shard pipeline
/// (ordered_pipeline.h).
///
/// Semantics:
///  * Push blocks while the ring is full (backpressure propagates to the
///    producer) and returns false — without enqueueing — once the queue
///    has been closed.
///  * PopBatch blocks while the ring is empty and a producer may still
///    push; after Close() it keeps draining whatever was enqueued and
///    returns 0 only when the queue is both closed and empty. Nothing
///    pushed before Close() is ever lost.
///  * Close() is idempotent and wakes every blocked producer and consumer.
///
/// The ring is a fixed vector of slots reused in FIFO order, so a
/// long-running stream performs no queue allocations after construction.
/// All operations are mutex-serialized — the engine's unit of work (one
/// tuple saturation) is orders of magnitude heavier than a queue op, so a
/// lock-free ring would buy nothing here.

#ifndef CERTFIX_STREAM_BOUNDED_QUEUE_H_
#define CERTFIX_STREAM_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace certfix {

/// \brief Fixed-capacity blocking FIFO. T must be movable.
template <typename T>
class BoundedQueue {
 public:
  /// Capacity is clamped to at least 1 slot.
  explicit BoundedQueue(size_t capacity)
      : slots_(capacity < 1 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues `item`, blocking while full. Returns false (item dropped)
  /// if the queue is closed before a slot frees up.
  bool Push(T item) {
    // Full call duration (lock acquisition + any blocked wait): the
    // latency a producer actually experiences per enqueue.
    telemetry::ScopedLatency wait(CERTFIX_TL_HISTOGRAM("queue_push_wait_ns"));
    std::unique_lock<std::mutex> lock(mutex_);
    if (size_ == slots_.size() && !closed_) {
      ++blocked_pushes_;
      not_full_.wait(lock, [this] { return size_ < slots_.size() || closed_; });
    }
    if (closed_) return false;
    slots_[(head_ + size_) % slots_.size()] = std::move(item);
    ++size_;
    not_empty_.notify_one();
    return true;
  }

  /// Dequeues up to `max` items, appending them to `*out`. Blocks while
  /// the queue is empty and open, then takes whatever is already queued
  /// (never waits for the batch to fill). Returns the number of items
  /// dequeued; 0 only when the queue is closed and fully drained. One
  /// lock acquisition hands a shard worker a block of tuples to stage
  /// together.
  size_t PopBatch(std::vector<T>* out, size_t max) {
    telemetry::ScopedLatency wait(CERTFIX_TL_HISTOGRAM("queue_pop_wait_ns"));
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return size_ > 0 || closed_; });
    if (size_ == 0) return 0;  // closed and drained
    const size_t n = max < size_ ? max : size_;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(slots_[head_]));
      head_ = (head_ + 1) % slots_.size();
    }
    size_ -= n;
    not_full_.notify_all();
    return n;
  }

  /// Closes the queue: subsequent (and blocked) pushes fail, pops drain
  /// the remaining items then fail. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t capacity() const { return slots_.size(); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  /// Number of Push calls that had to wait for a free slot — part of the
  /// pipeline's backpressure count.
  size_t blocked_pushes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocked_pushes_;
  }

 private:
  std::vector<T> slots_;
  size_t head_ = 0;  ///< index of the oldest item
  size_t size_ = 0;  ///< occupied slots
  size_t blocked_pushes_ = 0;
  bool closed_ = false;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_BOUNDED_QUEUE_H_
