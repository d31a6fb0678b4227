/// \file ordered_pipeline.h
/// \brief The ordered shard pipeline both online engines run on
/// (StreamRepairEngine, DeltaRepairEngine): jobs are admitted with a
/// sequence number, routed to per-shard bounded rings, turned into
/// results by shard workers, and applied strictly in admission order.
///
/// ```
///   Submit(job, route)               caller thread(s)
///        |   admission window: at most `window` jobs in flight; the
///        |   seq is stamped after the window wait, never before
///        v
///   ring 0   ring 1  ...  ring N-1   BoundedQueue each; a full ring
///     |        |            |        blocks the submitter (backpressure)
///   worker 0 worker 1 ... worker N-1 PopBatch(kProbeBlock) -> step(block),
///     |        |            |        one result emitted per job
///     +--------+------------+
///              v
///   reorder ring, slot seq % window  one merge lock; a result waits here
///              |                     until every smaller seq is applied
///              v
///   apply(seq, result)               strictly in seq order
/// ```
///
/// The window is workers * ring capacity. A job holds its admission slot
/// until its result is applied, so every buffered seq lies in
/// [next_apply, next_apply + window): the reorder ring never collides,
/// and never holds more than the window.
///
/// Zero-worker mode (workers == 0): no threads and no rings. Submit runs
/// the step on the calling thread and applies the result before it
/// returns, holding the merge lock throughout. It is meant for a single
/// submitter (the delta engine at one shard); the lock only keeps it safe
/// when thread creation fails and the pipeline falls back to it.
///
/// Failure: the first exception a worker throws (from its step or from
/// apply) is kept; the pipeline then refuses submits, closes every ring,
/// and wakes every waiter. Drain() rethrows it exactly once. In
/// zero-worker mode exceptions propagate out of Submit instead.

#ifndef CERTFIX_STREAM_ORDERED_PIPELINE_H_
#define CERTFIX_STREAM_ORDERED_PIPELINE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/repair_tuple.h"
#include "stream/bounded_queue.h"
#include "telemetry/trace.h"
#include "util/thread_pool.h"

namespace certfix {

/// Shard count for a requested one: 0 = one per hardware thread, capped
/// like ParallelFor at max(16, 2x hardware). The cap never changes
/// output, only routing.
inline size_t ResolveShards(size_t requested) {
  const size_t shards = requested == 0 ? DefaultParallelism() : requested;
  return std::min(shards, std::max<size_t>(16, 2 * DefaultParallelism()));
}

template <typename Job, typename Result>
class OrderedShardPipeline {
 public:
  /// One admitted job riding a ring.
  struct Ticket {
    uint64_t seq = 0;
    Job job;
  };
  /// Hands the merge stage the result of `block[j]`.
  using Emit = std::function<void(size_t j, Result result)>;
  /// Repairs one block (jobs popped together from one ring, in ring
  /// order), calling emit exactly once per job.
  using Step = std::function<void(std::vector<Ticket>& block,
                                  const Emit& emit)>;
  /// Builds one shard's step around its shard-local state. Called once
  /// per worker, on that worker's thread (in zero-worker mode once, on
  /// the constructing thread).
  using MakeStep = std::function<Step()>;
  /// Applies one result, under the merge lock, in seq order.
  using Apply = std::function<void(uint64_t seq, Result& result)>;

  /// Starts `workers` shard workers, each serving its own ring of
  /// `ring_capacity` slots (at least 1). `merge_span` (a string literal)
  /// names the trace span around each worker result's merge. If thread
  /// creation fails part-way, the pipeline keeps the workers that started
  /// and drops the other rings; with none started it runs in zero-worker
  /// mode.
  OrderedShardPipeline(size_t workers, size_t ring_capacity,
                       MakeStep make_step, Apply apply,
                       const char* merge_span)
      : make_step_(std::move(make_step)),
        apply_(std::move(apply)),
        merge_span_(merge_span) {
    ring_capacity = std::max<size_t>(ring_capacity, 1);
    rings_.reserve(workers);
    for (size_t s = 0; s < workers; ++s) {
      rings_.push_back(
          std::make_unique<BoundedQueue<Ticket>>(ring_capacity));
    }
    reorder_.resize(workers * ring_capacity);  // all allocation before spawn
    workers_.reserve(workers);
    try {
      for (size_t s = 0; s < workers; ++s) {
        BoundedQueue<Ticket>* ring = rings_[s].get();
        workers_.emplace_back([this, ring] { WorkerLoop(ring); });
      }
    } catch (const std::system_error&) {
      // Thread exhaustion mid-spawn (same stance as ThreadPool): a worker
      // serves only its own ring, so unserved rings go; the window stays.
      rings_.resize(workers_.size());
    }
    if (rings_.empty()) inline_step_ = make_step_();
  }

  /// Close(): drains the rings and joins the workers; a worker error not
  /// yet surfaced by Drain() is dropped.
  ~OrderedShardPipeline() { Close(); }

  OrderedShardPipeline(const OrderedShardPipeline&) = delete;
  OrderedShardPipeline& operator=(const OrderedShardPipeline&) = delete;

  /// Admits `job` and hands it to ring `route(job, seq) % workers` (route
  /// is not consulted with one worker). Blocks while the window is full,
  /// and while the ring is. Returns false, job dropped, after Close() or
  /// a worker failure.
  template <typename Route>
  bool Submit(Job job, Route&& route) {
    if (rings_.empty()) return RunInline(std::move(job));
    uint64_t seq = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (closed_ || failed_) return false;
      if (in_flight_ >= reorder_.size()) {
        ++window_waits_;
        progress_.wait(lock, [this] {
          return in_flight_ < reorder_.size() || failed_;
        });
        if (failed_) return false;
      }
      // The seq is stamped after the window wait, never before: the
      // window frees only when smaller seqs apply, so a submitter parked
      // there holding a seq could starve the merge forever. Blocking on
      // a full ring after stamping is safe: rings drain through their
      // workers whatever the merge order.
      seq = next_seq_++;
      ++in_flight_;
    }
    const size_t ring =
        rings_.size() == 1 ? 0 : route(job, seq) % rings_.size();
    if (!rings_[ring]->Push(Ticket{seq, std::move(job)})) {
      // The ring closed under us (a worker failed); this seq never
      // applies.
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      return false;
    }
    return true;
  }

  /// Blocks until every admitted job's result is applied or a worker
  /// failed, then rethrows the first worker exception, once.
  void Drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    progress_.wait(lock, [this] { return in_flight_ == 0 || failed_; });
    std::exception_ptr error = std::move(first_error_);
    first_error_ = nullptr;
    lock.unlock();
    if (error) std::rethrow_exception(error);
  }

  /// Refuses further submits, lets the workers finish every queued job,
  /// and joins them. Idempotent; must not race Submit.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    for (auto& ring : rings_) ring->Close();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  size_t num_workers() const { return workers_.size(); }
  bool failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }
  /// High-water mark of results buffered out of order (the reorder
  /// ring's occupancy after each worker result lands).
  uint64_t max_reorder() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_reorder_;
  }
  /// Submits that blocked on the full window or on a full ring.
  uint64_t backpressure_waits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t waits = window_waits_;
    for (const auto& ring : rings_) waits += ring->blocked_pushes();
    return waits;
  }
  /// The merge lock apply runs under. An owner takes it to touch state
  /// its apply callback also writes.
  std::mutex& merge_mutex() { return mutex_; }

 private:
  bool RunInline(Job job) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    inline_block_.clear();
    inline_block_.push_back(Ticket{next_seq_++, std::move(job)});
    inline_step_(inline_block_, [this](size_t j, Result result) {
      apply_(inline_block_[j].seq, result);
      ++next_apply_;
    });
    return true;
  }

  void WorkerLoop(BoundedQueue<Ticket>* ring) {
    try {
      const Step step = make_step_();
      std::vector<Ticket> block;
      block.reserve(kProbeBlock);
      const Emit emit = [this, &block](size_t j, Result result) {
        Merge(block[j].seq, std::move(result));
      };
      while (ring->PopBatch(&block, kProbeBlock) > 0) {
        step(block, emit);
        block.clear();
      }
    } catch (...) {
      Fail(std::current_exception());
    }
  }

  void Merge(uint64_t seq, Result result) {
    telemetry::Span span(merge_span_);
    std::lock_guard<std::mutex> lock(mutex_);
    reorder_[seq % reorder_.size()].emplace(std::move(result));
    max_reorder_ = std::max(max_reorder_, ++buffered_);
    const uint64_t first = next_apply_;
    for (;;) {
      std::optional<Result>& slot = reorder_[next_apply_ % reorder_.size()];
      if (!slot.has_value()) break;
      // Out of the ring before apply: if apply throws, this seq is gone
      // and the merge stalls at it rather than applying it twice.
      Result ready = std::move(*slot);
      slot.reset();
      --buffered_;
      apply_(next_apply_, ready);
      ++next_apply_;
    }
    if (next_apply_ != first) {
      in_flight_ -= next_apply_ - first;
      progress_.notify_all();
    }
  }

  void Fail(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!failed_) first_error_ = std::move(error);
      failed_ = true;
    }
    progress_.notify_all();
    for (auto& ring : rings_) ring->Close();
  }

  const MakeStep make_step_;
  const Apply apply_;
  const char* const merge_span_;
  Step inline_step_;                  ///< zero-worker mode only
  std::vector<Ticket> inline_block_;  ///< zero-worker mode only

  mutable std::mutex mutex_;          ///< the merge lock; guards below
  std::condition_variable progress_;  ///< window opens / all applied / failed
  std::vector<std::optional<Result>> reorder_;  ///< size = the window
  uint64_t next_seq_ = 0;       ///< next seq to stamp
  uint64_t next_apply_ = 0;     ///< next seq apply expects
  uint64_t in_flight_ = 0;      ///< admitted, not yet applied
  uint64_t buffered_ = 0;       ///< results waiting in reorder_
  uint64_t max_reorder_ = 0;
  uint64_t window_waits_ = 0;
  bool closed_ = false;
  bool failed_ = false;
  std::exception_ptr first_error_;

  std::vector<std::unique_ptr<BoundedQueue<Ticket>>> rings_;
  std::vector<std::thread> workers_;  ///< last: joined before the rest dies
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_ORDERED_PIPELINE_H_
