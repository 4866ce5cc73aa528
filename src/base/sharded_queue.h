// Sharded task queue with work stealing. One shard per engine worker
// removes the single-mutex bottleneck of MpmcQueue under multi-core
// dispatch (§5 elasticity depends on dispatch staying cheap as cores
// scale): producers land on a shard in one lock crossing — a whole fan-out
// batch per crossing via PushBatch — consumers pop their own shard free of
// sibling contention and steal only when idle.
//
// Counter contract: pushes and pops are counted per shard under the same
// lock as the queue operation; total_pushed()/total_popped() aggregate
// across shards, so the PI controller's growth-rate deltas stay coherent
// no matter which shard a task lands on or which worker steals it. A steal
// counts as a pop. RehomeShard moves items between shards without touching
// either counter — re-homing is neither an arrival nor a departure.
//
// Priority: each shard carries two FIFO lanes. Items pushed urgent pop
// before any normal-lane item on the same shard (pops, steals, and
// re-homing all respect the lanes), so interactive work overtakes batch
// backlog without a separate queue or extra lock crossings.
#ifndef SRC_BASE_SHARDED_QUEUE_H_
#define SRC_BASE_SHARDED_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/clock.h"

namespace dbase {

template <typename T>
class ShardedTaskQueue {
 public:
  explicit ShardedTaskQueue(size_t num_shards) {
    const size_t count = num_shards == 0 ? 1 : num_shards;
    shards_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  ShardedTaskQueue(const ShardedTaskQueue&) = delete;
  ShardedTaskQueue& operator=(const ShardedTaskQueue&) = delete;

  size_t shard_count() const { return shards_.size(); }

  // Round-robin producer path. Returns false if the queue is closed.
  bool Push(T item, bool urgent = false) {
    return PushToShard(rr_.fetch_add(1, std::memory_order_relaxed) % shards_.size(),
                       std::move(item), urgent);
  }

  // Targeted producer path (callers route to the shard of a worker whose
  // role matches the task). Returns false if the queue is closed.
  bool PushToShard(size_t shard, T item, bool urgent = false) {
    Shard& s = *shards_[ShardIndex(shard)];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (closed_.load(std::memory_order_relaxed)) {
        return false;
      }
      (urgent ? s.urgent : s.items).push_back(std::move(item));
      s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
      ++s.pushed;
    }
    s.cv.notify_one();
    return true;
  }

  // Lands an entire batch on one shard in a single lock crossing — the
  // amortized path for each/key fan-outs. Every item still counts as one
  // push. Returns false (dropping the batch) if the queue is closed.
  bool PushBatch(std::vector<T> items, size_t shard, bool urgent = false) {
    if (items.empty()) {
      return !closed_.load(std::memory_order_relaxed);
    }
    Shard& s = *shards_[ShardIndex(shard)];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (closed_.load(std::memory_order_relaxed)) {
        return false;
      }
      s.pushed += items.size();
      std::deque<T>& lane = urgent ? s.urgent : s.items;
      for (auto& item : items) {
        lane.push_back(std::move(item));
      }
      s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
    }
    s.cv.notify_all();
    // A batch is more work than one worker: bump the push epoch and wake
    // the siblings parked in PopWithTimeout so they steal instead of
    // sleeping out their timeout. As in Close(), each sibling's lock is
    // taken once first, so no waiter can sit between its predicate check
    // and its sleep when the notify lands.
    push_epoch_.fetch_add(1, std::memory_order_release);
    for (auto& shard_ptr : shards_) {
      if (shard_ptr.get() != &s) {
        { std::lock_guard<std::mutex> sibling_lock(shard_ptr->mu); }
        shard_ptr->cv.notify_one();
      }
    }
    return true;
  }

  // Non-blocking pop from the caller's own shard (FIFO).
  std::optional<T> TryPopLocal(size_t shard) {
    Shard& s = *shards_[ShardIndex(shard)];
    std::lock_guard<std::mutex> lock(s.mu);
    return PopFrontLocked(s);
  }

  // Scans sibling shards (starting past the thief's own) and takes the
  // oldest item of the first non-empty one. Counts as a pop plus a steal.
  std::optional<T> TrySteal(size_t thief_shard) {
    const size_t n = shards_.size();
    const size_t thief = ShardIndex(thief_shard);
    for (size_t offset = 1; offset < n; ++offset) {
      Shard& victim = *shards_[(thief + offset) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      auto item = PopFrontLocked(victim);
      if (item.has_value()) {
        ++victim.stolen;
        return item;
      }
    }
    return std::nullopt;
  }

  // Local pop, then steal, then a bounded wait on the local shard — which a
  // sibling-shard batch push cuts short (epoch bump + wake) so idle workers
  // steal a fresh fan-out instead of sleeping out their timeout, as does
  // Wake(). May return nullopt before the timeout elapses (callers loop);
  // returns nullopt when closed and the local shard is drained (siblings
  // may still hold items — callers drain those via TryPop).
  std::optional<T> PopWithTimeout(size_t shard, Micros timeout_us) {
    if (auto item = TryPopLocal(shard)) {
      return item;
    }
    // Read before the steal: a batch landing after the steal missed it
    // then moves the epoch, so the wait below does not start.
    const uint64_t seen_epoch = push_epoch_.load(std::memory_order_acquire);
    if (auto item = TrySteal(shard)) {
      return item;
    }
    Shard& s = *shards_[ShardIndex(shard)];
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.cv.wait_for(lock, std::chrono::microseconds(timeout_us), [&] {
        return !s.items.empty() || !s.urgent.empty() || s.wake_pending ||
               closed_.load(std::memory_order_relaxed) ||
               push_epoch_.load(std::memory_order_relaxed) != seen_epoch;
      });
      if (std::exchange(s.wake_pending, false)) {
        return std::nullopt;  // Woken to re-read its role: take nothing.
      }
      if (auto item = PopFrontLocked(s)) {
        return item;
      }
    }
    // Woken by a batch landing on a sibling (or timed out): one more steal
    // attempt before handing control back to the caller's loop.
    return TrySteal(shard);
  }

  // Ends the shard's current or next PopWithTimeout wait with nullopt, not
  // a popped or stolen item: its worker changed role and must re-read it.
  // Kept until a wait consumes it, so an early wake is not lost.
  void Wake(size_t shard) {
    Shard& s = *shards_[ShardIndex(shard)];
    std::lock_guard<std::mutex> lock(s.mu);
    s.wake_pending = true;
    s.cv.notify_one();
  }

  // Local pop falling back to a steal; never blocks.
  std::optional<T> TryPop(size_t shard) {
    if (auto item = TryPopLocal(shard)) {
      return item;
    }
    return TrySteal(shard);
  }

  // Moves everything queued on `from` onto the `to` shards (round-robin)
  // without touching the pushed/popped counters: used when a worker's role
  // shift leaves residue on a shard no same-role worker calls home. With no
  // eligible targets the items stay put — stealing is the safety net.
  // Returns the number of items moved.
  size_t RehomeShard(size_t from, const std::vector<size_t>& to) {
    const size_t source = ShardIndex(from);
    std::deque<T> residue;         // Normal lane.
    std::deque<T> urgent_residue;  // Urgent lane (keeps its lane on arrival).
    {
      Shard& s = *shards_[source];
      std::lock_guard<std::mutex> lock(s.mu);
      // Count the residue as in flight *before* it leaves the shard, so
      // Size() never reads a false empty mid-move (a shutdown drain racing
      // a role shift must keep seeing these tasks).
      rehoming_.fetch_add(s.items.size() + s.urgent.size(), std::memory_order_release);
      residue.swap(s.items);
      urgent_residue.swap(s.urgent);
      s.approx_size.store(0, std::memory_order_relaxed);
    }
    if (residue.empty() && urgent_residue.empty()) {
      return 0;
    }
    std::vector<size_t> targets;
    for (size_t t : to) {
      if (ShardIndex(t) != source) {
        targets.push_back(ShardIndex(t));
      }
    }
    if (targets.empty()) {
      // Put the residue back; no same-role shard exists to receive it.
      const size_t count = residue.size() + urgent_residue.size();
      Shard& s = *shards_[source];
      {
        std::lock_guard<std::mutex> lock(s.mu);
        for (auto& item : residue) {
          s.items.push_back(std::move(item));
        }
        for (auto& item : urgent_residue) {
          s.urgent.push_back(std::move(item));
        }
        s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
      }
      rehoming_.fetch_sub(count, std::memory_order_release);
      return 0;
    }
    const size_t moved = residue.size() + urgent_residue.size();
    size_t next = 0;
    const auto distribute = [&](std::deque<T>* lane_residue, bool urgent) {
      while (!lane_residue->empty()) {
        Shard& s = *shards_[targets[next++ % targets.size()]];
        {
          std::lock_guard<std::mutex> lock(s.mu);
          (urgent ? s.urgent : s.items).push_back(std::move(lane_residue->front()));
          s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
        }
        s.cv.notify_one();
        // Decrement only after the item is visible on its new shard: Size()
        // may transiently double-count, never undercount.
        rehoming_.fetch_sub(1, std::memory_order_release);
        lane_residue->pop_front();
      }
    };
    distribute(&urgent_residue, /*urgent=*/true);
    distribute(&residue, /*urgent=*/false);
    return moved;
  }

  // After Close(), pushes fail and pops drain remaining items then return
  // nullopt. Wakes all waiters on every shard.
  void Close() {
    closed_.store(true, std::memory_order_relaxed);
    // Take each shard lock once so no waiter can check the predicate
    // between the store and the notify, then wake everyone.
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
    }
    for (auto& shard : shards_) {
      shard->cv.notify_all();
    }
  }

  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  size_t ShardSize(size_t shard) const {
    const Shard& s = *shards_[ShardIndex(shard)];
    std::lock_guard<std::mutex> lock(s.mu);
    return s.items.size() + s.urgent.size();
  }

  // Lock-free approximate depth (maintained under the shard lock, read
  // relaxed) — the submit path's load-balancing signal. May lag the exact
  // size by a racing operation; never use it for drain/emptiness proofs.
  size_t ApproxShardSize(size_t shard) const {
    return shards_[ShardIndex(shard)]->approx_size.load(std::memory_order_relaxed);
  }

  size_t Size() const {
    size_t total = rehoming_.load(std::memory_order_acquire);
    for (size_t i = 0; i < shards_.size(); ++i) {
      total += ShardSize(i);
    }
    return total;
  }

  // Urgent-lane backlog summed across shards — the control plane's
  // interactive-class queue-depth signal. Items mid-rehome are not
  // attributed (this is a load signal, not a drain proof).
  size_t UrgentSize() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->urgent.size();
    }
    return total;
  }

  // Aggregate counters; the controller uses deltas of these between
  // sampling periods as queue growth rates (arrivals − departures).
  uint64_t total_pushed() const {
    return SumOverShards([](const Shard& s) { return s.pushed; });
  }
  uint64_t total_popped() const {
    return SumOverShards([](const Shard& s) { return s.popped; });
  }
  uint64_t total_stolen() const {
    return SumOverShards([](const Shard& s) { return s.stolen; });
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<T> items;   // Normal lane.
    std::deque<T> urgent;  // Pops ahead of `items` (interactive class).
    // Guarded by mu — counted under the same lock as the queue operation.
    uint64_t pushed = 0;
    uint64_t popped = 0;
    uint64_t stolen = 0;
    bool wake_pending = false;  // Set by Wake(), consumed by the next wait.
    // Mirror of items.size(), written under mu, read lock-free by
    // ApproxShardSize.
    std::atomic<size_t> approx_size{0};
  };

  // Pops the front item — urgent lane first — and maintains
  // popped/approx_size. Caller holds s.mu.
  std::optional<T> PopFrontLocked(Shard& s) {
    std::deque<T>* lane = !s.urgent.empty() ? &s.urgent : &s.items;
    if (lane->empty()) {
      return std::nullopt;
    }
    T item = std::move(lane->front());
    lane->pop_front();
    s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
    ++s.popped;
    return item;
  }

  // Clamps a caller-supplied shard id without a division on the hot path
  // (callers pass valid ids; the modulo is the safety net).
  size_t ShardIndex(size_t shard) const {
    return shard < shards_.size() ? shard : shard % shards_.size();
  }

  template <typename Field>
  uint64_t SumOverShards(Field field) const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += field(*shard);
    }
    return total;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> rr_{0};
  // Bumped once per PushBatch; lets PopWithTimeout waiters notice work
  // arriving on sibling shards and steal instead of sleeping.
  std::atomic<uint64_t> push_epoch_{0};
  // Items mid-RehomeShard: out of their source shard but not yet on a
  // target. Included in Size() so drains never observe a false empty.
  std::atomic<size_t> rehoming_{0};
};

}  // namespace dbase

#endif  // SRC_BASE_SHARDED_QUEUE_H_
