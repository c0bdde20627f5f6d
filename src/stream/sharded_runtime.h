#ifndef DATACRON_STREAM_SHARDED_RUNTIME_H_
#define DATACRON_STREAM_SHARDED_RUNTIME_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/epoch.h"

namespace datacron {

/// Default per-shard-epoch accumulator for callers whose keyed stage
/// carries everything through per-item slots.
struct NoShardArena {};

/// Key-partitioned streaming runtime: the execution layer behind
/// DatacronEngine::IngestBatch.
///
/// The input is cut into *epochs* (contiguous input ranges). Each item is
/// routed by a caller-supplied key to one of `num_shards` logical shards;
/// each shard runs the caller's *keyed* stage over its items with no locks
/// (keyed state is partitioned, so shards never share mutable state). The
/// keyed stage writes per-item results into a `Slot` and may additionally
/// accumulate bulk output — contiguous buffers, a term batch, side tables
/// — in its shard's per-epoch `Arena`. One arena exists per (shard,
/// epoch): it is the unit of shard→coordinator delivery, so every
/// coordination cost the caller moves from the slot into the arena is
/// paid once per shard-epoch instead of once per item. The coordinator
/// runs the *global* stage over every epoch in input order once all
/// shards have passed that epoch's watermark, receiving the items, the
/// slots, and all shard arenas of the epoch together.
///
/// Determinism: keyed stages see exactly the per-key subsequence of the
/// input (per-shard mailboxes are FIFO and drained by at most one task at
/// a time), and the global stage consumes epochs — and the items inside
/// them — in input order. Outputs are therefore byte-identical to a serial
/// run for any shard count, epoch size, or pool size.
///
/// Scheduling: shards do not own threads. Each mailbox is drained by at
/// most one transient ThreadPool task (the `draining` flag); the task
/// exits when its mailbox is empty and is re-posted on the next delivery.
/// Because no task ever blocks waiting for input, any number of shards can
/// share a pool of any size — including a single worker — without
/// deadlock. Bounded in-flight epochs (`max_epochs_in_flight`) give
/// backpressure: the coordinator stops routing until the oldest epoch has
/// been fully processed and consumed.
template <typename In, typename Slot, typename Arena = NoShardArena>
class ShardedRuntime {
 public:
  struct Options {
    std::size_t num_shards = 1;
    /// Items per epoch: the batch granularity of the global-stage barrier.
    std::size_t epoch_size = 1024;
    /// Epochs the coordinator may route ahead of the global stage.
    std::size_t max_epochs_in_flight = 4;
  };

  explicit ShardedRuntime(Options opts)
      : opts_(opts),
        enqueue_counter_(
            obs::MetricsRegistry::Global().counter("shard.mailbox_enqueues")),
        epoch_counter_(obs::MetricsRegistry::Global().counter("shard.epochs")),
        barrier_wait_hist_(
            obs::MetricsRegistry::Global().histogram("shard.barrier_wait_ns")) {
    if (opts_.num_shards == 0) opts_.num_shards = 1;
    if (opts_.epoch_size == 0) opts_.epoch_size = 1;
    if (opts_.max_epochs_in_flight == 0) opts_.max_epochs_in_flight = 1;
  }

  std::size_t num_shards() const { return opts_.num_shards; }

  /// Runs the full dataflow over `input`.
  ///
  ///   key(item)                          -> std::uint64_t (shard = key % n)
  ///   keyed(shard, item, &slot, &arena)  -> fills the item's slot and may
  ///                                         append to its shard's epoch
  ///                                         arena
  ///   global(items, slots, arenas)       -> one epoch, input order, with
  ///                                         all num_shards arenas, on the
  ///                                         coordinator thread
  ///
  /// With a null pool or a single shard the same dataflow runs inline on
  /// the calling thread (still routed by key and still accumulating into
  /// per-epoch arenas, so keyed state and output batching are identical
  /// either way).
  template <typename KeyFn, typename KeyedFn, typename GlobalFn>
  void Run(std::span<const In> input, ThreadPool* pool, KeyFn&& key,
           KeyedFn&& keyed, GlobalFn&& global) {
    if (pool == nullptr || opts_.num_shards <= 1) {
      RunSerial(input, key, keyed, global);
      return;
    }
    RunSharded(input, pool, key, keyed, global);
  }

 private:
  /// One contiguous input range plus its routing table, output slots, and
  /// per-shard arenas. Lives in the coordinator's ring (std::deque keeps
  /// addresses stable while shards hold pointers to in-flight epochs).
  /// The routing table is the shared EpochRouting contract
  /// (stream/epoch.h) that the cluster coordinator also builds per epoch.
  struct Epoch {
    std::int64_t id = 0;
    std::span<const In> items;
    std::vector<Slot> slots;
    std::vector<Arena> arenas;
    EpochRouting routing;
  };

  struct Mailbox {
    std::mutex mu;
    std::deque<Epoch*> epochs;
    /// True while a pool task owns this mailbox; guarantees FIFO drain.
    bool draining = false;
  };

  struct RunState {
    explicit RunState(std::size_t n) : mailboxes(n), watermarks(n) {}

    std::vector<Mailbox> mailboxes;
    std::mutex mu;
    std::condition_variable cv;
    /// Per-shard epoch watermarks behind the merge barrier; updated and
    /// read under `mu`.
    EpochWatermarks watermarks;
    std::size_t active_drains = 0;
    std::exception_ptr error;
  };

  template <typename KeyFn, typename KeyedFn, typename GlobalFn>
  void RunSerial(std::span<const In> input, KeyFn& key, KeyedFn& keyed,
                 GlobalFn& global) {
    const std::size_t n = opts_.num_shards;
    std::int64_t epoch = 0;
    for (std::size_t pos = 0; pos < input.size();
         pos += opts_.epoch_size, ++epoch) {
      const std::size_t len =
          std::min(opts_.epoch_size, input.size() - pos);
      const std::span<const In> items = input.subspan(pos, len);
      epoch_counter_->Add();
      std::vector<Slot> slots(len);
      std::vector<Arena> arenas(n);
      obs::ScopedTraceContext trace_ctx(epoch);
      for (std::size_t i = 0; i < len; ++i) {
        const std::size_t shard =
            static_cast<std::size_t>(key(items[i]) % n);
        keyed(shard, items[i], &slots[i], &arenas[shard]);
      }
      DATACRON_TRACE_SPAN("shard.global", "shard");
      global(items, std::span<Slot>(slots), std::span<Arena>(arenas));
    }
  }

  template <typename KeyFn, typename KeyedFn, typename GlobalFn>
  void RunSharded(std::span<const In> input, ThreadPool* pool, KeyFn& key,
                  KeyedFn& keyed, GlobalFn& global) {
    const std::size_t n = opts_.num_shards;
    RunState st(n);

    // Drains one shard's mailbox until empty. Runs as a pool task; at most
    // one instance per mailbox exists at any time. Keyed-stage exceptions
    // are recorded once and the remaining epochs pass through unprocessed
    // so watermarks keep advancing and the coordinator cannot hang.
    auto drain = [&st, &keyed](std::size_t shard) {
      Mailbox& mb = st.mailboxes[shard];
      for (;;) {
        Epoch* e = nullptr;
        {
          std::lock_guard<std::mutex> lk(mb.mu);
          if (mb.epochs.empty()) {
            mb.draining = false;
            break;
          }
          e = mb.epochs.front();
          mb.epochs.pop_front();
        }
        bool failed;
        {
          std::lock_guard<std::mutex> lk(st.mu);
          failed = st.error != nullptr;
        }
        if (!failed) {
          try {
            obs::ScopedTraceContext trace_ctx(
                e->id, static_cast<std::int32_t>(shard));
            obs::TraceSpan span("shard.drain", "shard");
            Arena* arena = &e->arenas[shard];
            for (std::uint32_t idx : e->routing.by_part[shard]) {
              keyed(shard, e->items[idx], &e->slots[idx], arena);
            }
          } catch (...) {
            std::lock_guard<std::mutex> lk(st.mu);
            if (!st.error) st.error = std::current_exception();
          }
        }
        {
          std::lock_guard<std::mutex> lk(st.mu);
          st.watermarks.Advance(shard, e->id);
        }
        st.cv.notify_all();
      }
      {
        // Notify under the lock: the coordinator destroys RunState as
        // soon as it observes active_drains == 0, so the wakeup must not
        // touch the condition variable after the mutex is released.
        std::lock_guard<std::mutex> lk(st.mu);
        --st.active_drains;
        st.cv.notify_all();
      }
    };

    auto post = [this, &st, &drain, pool](std::size_t shard, Epoch* e) {
      enqueue_counter_->Add();
      Mailbox& mb = st.mailboxes[shard];
      bool schedule = false;
      {
        std::lock_guard<std::mutex> lk(mb.mu);
        mb.epochs.push_back(e);
        if (!mb.draining) {
          mb.draining = true;
          schedule = true;
        }
      }
      if (schedule) {
        {
          std::lock_guard<std::mutex> lk(st.mu);
          ++st.active_drains;
        }
        // The future is discarded: drain() catches everything itself.
        pool->Submit([&drain, shard] { drain(shard); });
      }
    };

    std::deque<Epoch> ring;

    auto front_done = [&]() {  // st.mu must be held
      return st.watermarks.AllPassed(ring.front().id);
    };

    // Runs the global stage over the oldest epoch and retires it. When
    // `blocking`, waits for every shard's watermark to pass it first.
    auto consume_front = [&](bool blocking) -> bool {
      {
        std::unique_lock<std::mutex> lk(st.mu);
        if (blocking) {
          if (!front_done()) {
            obs::TraceSpan span("shard.barrier", "shard");
            span.set_epoch(ring.front().id);
            const std::int64_t wait_start = MonotonicNanos();
            st.cv.wait(lk, front_done);
            barrier_wait_hist_->Observe(
                static_cast<double>(MonotonicNanos() - wait_start));
          }
        } else if (!front_done()) {
          return false;
        }
      }
      Epoch& e = ring.front();
      bool failed;
      {
        std::lock_guard<std::mutex> lk(st.mu);
        failed = st.error != nullptr;
      }
      if (!failed) {
        try {
          obs::ScopedTraceContext trace_ctx(e.id);
          DATACRON_TRACE_SPAN("shard.global", "shard");
          global(e.items, std::span<Slot>(e.slots),
                 std::span<Arena>(e.arenas));
        } catch (...) {
          std::lock_guard<std::mutex> lk(st.mu);
          if (!st.error) st.error = std::current_exception();
        }
      }
      ring.pop_front();
      return true;
    };

    ForEachEpoch(input.size(), opts_.epoch_size, [&](std::int64_t id,
                                                     std::size_t pos,
                                                     std::size_t len) {
      while (ring.size() >= opts_.max_epochs_in_flight) {
        consume_front(/*blocking=*/true);
      }
      while (!ring.empty() && consume_front(/*blocking=*/false)) {
      }

      epoch_counter_->Add();
      ring.emplace_back();
      Epoch& e = ring.back();
      e.id = id;
      e.items = input.subspan(pos, len);
      e.slots.resize(len);
      e.arenas = std::vector<Arena>(n);
      {
        obs::TraceSpan span("shard.route", "shard");
        span.set_epoch(id);
        e.routing = EpochRouting::Build(e.items, n, key);
      }
      // Every shard receives every epoch (possibly with an empty index
      // list) so its watermark advances and the barrier can release. This
      // is the only mailbox traffic: one message per shard per epoch,
      // never per item.
      for (std::size_t s = 0; s < n; ++s) post(s, &e);
    });

    while (!ring.empty()) consume_front(/*blocking=*/true);

    // Epochs are all retired, but the last drain tasks may still be
    // between their final watermark update and exit; they touch `st`, so
    // join them before it leaves scope, then surface the first failure.
    std::unique_lock<std::mutex> lk(st.mu);
    st.cv.wait(lk, [&st] { return st.active_drains == 0; });
    if (st.error) {
      std::exception_ptr err = st.error;
      lk.unlock();
      std::rethrow_exception(err);
    }
  }

  Options opts_;
  /// Registry instruments resolved once at construction so the routing
  /// and barrier hot paths skip the static-guard check per call.
  obs::Counter* enqueue_counter_;
  obs::Counter* epoch_counter_;
  obs::AtomicLogHistogram* barrier_wait_hist_;
};

}  // namespace datacron

#endif  // DATACRON_STREAM_SHARDED_RUNTIME_H_
