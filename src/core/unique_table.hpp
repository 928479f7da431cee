// Per-variable unique table (paper Section 3.2), with two locking
// disciplines: the paper's own, and the "better distributed hashing" its
// Section 6 calls for, pushed to its logical end point.
//
// One instance per variable, shared by all workers. Chains run through the
// nodes' `next` fields and may cross worker arenas.
//
//  * kPassLock — the paper's layout: one lock per variable, acquired once
//    per (worker, variable) reduction pass; all of that worker's nodes for
//    the variable are produced under a single acquisition. Simple and cheap
//    per node, but Figs. 16/17 show it serializing the reduction on the
//    node-heavy variables.
//
//  * kLockFree — no mutex anywhere on the insert path. Bucket heads are
//    std::atomic<NodeRef>; find_or_insert walks the chain, speculatively
//    allocates a node in the worker's own arena on a miss, and publishes it
//    with a release-CAS on the bucket head. A losing racer re-walks the
//    chain from the new head (its key may have just been inserted by the
//    winner); if it finds the key it returns the canonical node and hands
//    its speculative slot back to the arena's free-slot stack (tombstoned,
//    compacted away by the next collection), otherwise it retries the CAS.
//
//    Growth installs a fresh bucket array behind a seqlock-style epoch:
//    the grower claims the table by CASing the epoch from even to odd (an
//    odd epoch means "growth in flight" and makes competing growers back
//    off), then empties each old bucket with exchange(kMovedHead). The
//    sentinel makes every in-flight insert CAS on that bucket fail — and
//    it is permanent, so a CAS against a retired array can never succeed.
//    Old chains are relinked into the fresh array with release stores (a
//    walker still on an old chain follows the redirected link mid-walk;
//    that is safe — every reachable node is a published, immutable node of
//    this table, and a walk that wrongly concludes "miss" is corrected by
//    its failing CAS). Finally the fresh array is release-published and
//    the epoch returns to even. Retired arrays are kept until the next
//    stop-the-world point, so delayed readers never touch freed memory.
//
// Lock-acquire wait time is metered per worker in the pass-lock discipline
// (Figs. 16/17); the lock-free discipline meters CAS retries instead. Both
// meters live in cache-line-padded per-worker slots — the counters are the
// hottest per-worker writes into shared arrays, and unpadded they false-
// share one line between neighbouring workers.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hpp"
#include "core/node_arena.hpp"
#include "core/ref.hpp"
#include "obs/trace_points.hpp"
#include "runtime/backoff.hpp"
#include "runtime/inject.hpp"
#include "util/aligned.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace pbdd::core {

class VarUniqueTable {
 public:
  void init(unsigned var, std::vector<NodeArena*> arenas,
            std::size_t initial_buckets,
            TableDiscipline discipline = TableDiscipline::kPassLock) {
    var_ = var;
    arenas_ = std::move(arenas);
    lockfree_ = discipline == TableDiscipline::kLockFree;
    wait_ns_.assign(arenas_.size(), util::PaddedCounter{});
    cas_retries_.assign(arenas_.size(), util::PaddedCounter{});
    const std::size_t size = std::max<std::size_t>(initial_buckets, 16);
    assert((size & (size - 1)) == 0);
    if (lockfree_) {
      lf_owner_ = std::make_unique<LfBuckets>(size);
      lf_buckets_.store(lf_owner_.get(), std::memory_order_release);
      buckets_.clear();
      return;
    }
    buckets_.assign(size, kZero);
    mask_ = size - 1;
  }

  [[nodiscard]] bool lockfree() const noexcept { return lockfree_; }
  /// True for the paper's discipline: callers bracket a reduction pass with
  /// acquire()/release(). False for kLockFree, whose find_or_insert
  /// synchronizes internally.
  [[nodiscard]] bool pass_locked() const noexcept { return !lockfree_; }
  [[nodiscard]] TableDiscipline discipline() const noexcept {
    return lockfree_ ? TableDiscipline::kLockFree
                     : TableDiscipline::kPassLock;
  }

  // ---- Pass-level locking (kPassLock, the paper's discipline) --------------

  /// Acquire the per-variable lock, charging the wait to `worker`.
  void acquire(unsigned worker) {
    assert(pass_locked());
    PBDD_INJECT(kTableAcquire);
    if (mutex_.try_lock()) return;
    util::WallTimer timer;
    mutex_.lock();
    const std::uint64_t waited = timer.elapsed_ns();
    wait_ns_[worker].value += waited;
    PBDD_TRACE_INSTANT(kLockWait, waited, var_);
  }

  /// Non-blocking acquire, used by the GC rehash phase: a worker finding a
  /// variable's table locked rehashes other variables first (Section 3.4).
  [[nodiscard]] bool try_acquire() {
    assert(pass_locked());
    return mutex_.try_lock();
  }

  void release() {
    assert(pass_locked());
    mutex_.unlock();
  }

  /// Find-or-create the node (var_, low, high), allocating in `worker`'s
  /// arena on a miss. Pass-level mode: caller holds the variable lock.
  /// Lock-free mode: CAS publication, never blocks.
  NodeRef find_or_insert(unsigned worker, NodeRef low, NodeRef high,
                         bool& created) {
    const std::uint64_t h = util::hash_pair(low, high);
    if (lockfree_) return lf_find_or_insert(worker, h, low, high, created);
    return locked_find_or_insert(h, worker, low, high, created);
  }

  // ---- GC rehash support ----------------------------------------------------

  /// Drop all chains (nodes are re-inserted afterwards). Stop-the-world:
  /// exactly one thread touches one table, no operation is in flight. This
  /// is also where the lock-free discipline folds the monotone node count
  /// into its high-water mark and reclaims retired bucket arrays — the GC
  /// barriers guarantee no delayed walker still holds one.
  void reset_chains(std::size_t live_hint) {
    if (lockfree_) {
      lf_max_count_ = std::max(
          lf_max_count_, lf_count_.load(std::memory_order_relaxed));
      lf_count_.store(0, std::memory_order_relaxed);
      const std::size_t size = rehash_size(lf_owner_->mask + 1, live_hint);
      lf_retired_.clear();
      lf_owner_ = std::make_unique<LfBuckets>(size);
      lf_buckets_.store(lf_owner_.get(), std::memory_order_release);
      return;
    }
    const std::size_t size = rehash_size(buckets_.size(), live_hint);
    buckets_.assign(size, kZero);
    mask_ = size - 1;
    count_ = 0;
  }

  /// Insert a node whose fields are already final. Pass-level mode: caller
  /// holds the lock. Lock-free mode: CAS-push (several workers reinsert
  /// into one table concurrently during the GC rehash phase).
  void reinsert(unsigned worker, NodeRef r, NodeRef low, NodeRef high) {
    const std::uint64_t h = util::hash_pair(low, high);
    if (lockfree_) {
      lf_reinsert(worker, h, r);
      return;
    }
    const std::size_t bucket = h & mask_;
    node(r).next.store(buckets_[bucket], std::memory_order_relaxed);
    buckets_[bucket] = r;
    ++count_;
  }

  // ---- Snapshot support -----------------------------------------------------
  // Stop-the-world only (same contract as reset_chains): the snapshot
  // writer serializes the bucket structure so a shape-compatible restore
  // can adopt the stored chains without hashing a single node.

  /// All bucket heads in bucket order (kZero = empty). The lock-free
  /// kMovedHead sentinel only ever lives in retired arrays, so it cannot
  /// appear here.
  [[nodiscard]] std::vector<NodeRef> bucket_heads() const {
    if (!lockfree_) return buckets_;
    const std::size_t n = buckets();
    std::vector<NodeRef> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(lf_owner_->slots[i].load(std::memory_order_relaxed));
    }
    return out;
  }

  /// Adopt pre-linked chains from a snapshot: the caller has already stored
  /// every node's `next` field and translated `heads` (one entry per
  /// bucket, the layout of bucket_heads()) into live references; `count` is
  /// the number of chained nodes. Valid only when the stored table hashed
  /// the same way as this one — same discipline and a power-of-two bucket
  /// count. Returns false with the table untouched otherwise; the caller
  /// then falls back to reinsert().
  bool adopt_chains(TableDiscipline saved, std::size_t count,
                    const std::vector<NodeRef>& heads) {
    const std::size_t size = heads.size();
    if (saved != discipline() || size < 16 || (size & (size - 1)) != 0) {
      return false;
    }
    if (lockfree_) {
      lf_retired_.clear();
      lf_owner_ = std::make_unique<LfBuckets>(size);
      for (std::size_t i = 0; i < size; ++i) {
        lf_owner_->slots[i].store(heads[i], std::memory_order_relaxed);
      }
      lf_buckets_.store(lf_owner_.get(), std::memory_order_release);
      lf_max_count_ = std::max(
          lf_max_count_, lf_count_.load(std::memory_order_relaxed));
      lf_count_.store(count, std::memory_order_relaxed);
      return true;
    }
    buckets_ = heads;
    mask_ = size - 1;
    count_ = count;
    max_count_ = std::max(max_count_, count_);
    return true;
  }

  // ---- Introspection ---------------------------------------------------------

  [[nodiscard]] std::size_t count() const noexcept {
    return lockfree_ ? lf_count_.load(std::memory_order_relaxed) : count_;
  }
  /// High-water mark of count() (Fig. 15). Exact in both disciplines:
  /// kPassLock tracks it per insert under the lock, and kLockFree exploits
  /// monotonicity — the count only ever grows between collections (losing
  /// racers never increment), so sampling it at each reset_chains() plus
  /// the current count is the true maximum, with no extra atomic on the
  /// insert path.
  [[nodiscard]] std::size_t max_count() const noexcept {
    if (lockfree_) {
      return std::max(lf_max_count_,
                      lf_count_.load(std::memory_order_relaxed));
    }
    return max_count_;
  }
  [[nodiscard]] std::size_t buckets() const noexcept {
    if (lockfree_) return lf_owner_ ? lf_owner_->mask + 1 : 0;
    return buckets_.size();
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    std::size_t total =
        (wait_ns_.capacity() + cas_retries_.capacity()) *
        sizeof(util::PaddedCounter);
    if (lockfree_) {
      if (lf_owner_) total += (lf_owner_->mask + 1) * sizeof(NodeRef);
      for (const auto& old : lf_retired_) {
        total += (old->mask + 1) * sizeof(NodeRef);
      }
      return total;
    }
    return total + buckets_.capacity() * sizeof(NodeRef);
  }
  [[nodiscard]] std::uint64_t lock_wait_ns(unsigned worker) const noexcept {
    return wait_ns_[worker].value;
  }
  [[nodiscard]] std::uint64_t lock_wait_ns_total() const noexcept {
    std::uint64_t total = 0;
    for (const auto& w : wait_ns_) total += w.value;
    return total;
  }
  /// Lock-free contention meter: CAS retries + moved-bucket waits charged
  /// to `worker`. Always zero in the mutex disciplines.
  [[nodiscard]] std::uint64_t cas_retries(unsigned worker) const noexcept {
    return cas_retries_[worker].value;
  }
  [[nodiscard]] std::uint64_t cas_retries_total() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cas_retries_) total += c.value;
    return total;
  }
  void reset_lock_waits() noexcept {
    for (auto& w : wait_ns_) w.value = 0;
    for (auto& c : cas_retries_) c.value = 0;
  }

 private:
  /// One lock-free bucket array generation. Heads hold kZero (empty), a
  /// node reference, or kMovedHead (bucket emptied by a grow; permanent).
  struct LfBuckets {
    explicit LfBuckets(std::size_t n)
        : mask(n - 1), slots(new std::atomic<NodeRef>[n]) {
      for (std::size_t i = 0; i < n; ++i) {
        slots[i].store(kZero, std::memory_order_relaxed);
      }
    }
    std::size_t mask;
    std::unique_ptr<std::atomic<NodeRef>[]> slots;
  };

  /// Grow sentinel. kInvalid carries the operator tag, so it can never
  /// equal a published node reference or kZero.
  static constexpr NodeRef kMovedHead = kInvalid;

  /// Bucket count for a rehash of `live_hint` nodes: at least one bucket
  /// per node, shrinking an oversized array down to 4x headroom (never
  /// below 256 buckets).
  [[nodiscard]] static std::size_t rehash_size(std::size_t size,
                                               std::size_t live_hint) {
    const std::size_t hint = std::max<std::size_t>(live_hint, 1);
    while (size > 256 && size > hint * 4) size /= 2;
    while (size < hint) size *= 2;
    return size;
  }

  NodeRef locked_find_or_insert(std::uint64_t h, unsigned worker,
                                NodeRef low, NodeRef high, bool& created) {
    assert(low != high);
    PBDD_INJECT(kTableInsert);
    const std::size_t bucket = h & mask_;
    for (NodeRef r = buckets_[bucket]; r != kZero;) {
      const BddNode& n = node(r);
      const NodeRef nx = n.next.load(std::memory_order_relaxed);
      // Overlap the next probe's likely cache miss with this compare.
      if (nx != kZero) util::prefetch_read(&node(nx));
      if (n.low == low && n.high == high) {
        created = false;
        return r;
      }
      r = nx;
    }
    const std::uint32_t slot = arenas_[worker]->alloc();
    BddNode& n = arenas_[worker]->at_own(slot);
    const NodeRef r = make_node_ref(worker, var_, slot);
    n.low = low;
    n.high = high;
    n.next.store(buckets_[bucket], std::memory_order_relaxed);
    n.aux.store(0, std::memory_order_relaxed);
    buckets_[bucket] = r;
    ++count_;
    if (count_ > max_count_) max_count_ = count_;
    if (count_ > buckets_.size() * 2) {
      grow(buckets_.size() * 2);
    } else if (PBDD_INJECT_QUERY(kForceTableGrow)) {
      // Same-size rehash: exercises the full chain-rebuild path (the thing
      // concurrent readers would trip over) without compounding growth.
      grow(buckets_.size());
    }
    created = true;
    return r;
  }

  void grow(std::size_t new_size) {
    PBDD_INJECT(kTableGrow);
    std::vector<NodeRef> fresh(new_size, kZero);
    const std::size_t new_mask = new_size - 1;
    for (NodeRef head : buckets_) {
      while (head != kZero) {
        BddNode& n = node(head);
        const NodeRef next = n.next.load(std::memory_order_relaxed);
        const std::size_t bucket = util::hash_pair(n.low, n.high) & new_mask;
        n.next.store(fresh[bucket], std::memory_order_relaxed);
        fresh[bucket] = head;
        head = next;
      }
    }
    buckets_ = std::move(fresh);
    mask_ = new_mask;
    PBDD_TRACE_INSTANT(kTableGrow, new_size, var_);
  }

  // ---- Lock-free discipline -------------------------------------------------

  NodeRef lf_find_or_insert(unsigned worker, std::uint64_t h, NodeRef low,
                            NodeRef high, bool& created) {
    assert(low != high);
    PBDD_INJECT(kTableInsert);
    std::uint32_t spec_slot = kNilSlot;  // speculative node, kept across retries
    rt::Backoff backoff;
    for (;;) {
      LfBuckets* b = lf_buckets_.load(std::memory_order_acquire);
      std::atomic<NodeRef>& head_ref = b->slots[h & b->mask];
      const NodeRef head = head_ref.load(std::memory_order_acquire);
      if (head == kMovedHead) {
        // A grower emptied this bucket; wait for the fresh array. Yieldable
        // injection point: no mutex is held on this path, and in serialize
        // torture mode the spinner must be able to hand the schedule token
        // to the grower.
        cas_retries_[worker].value += 1;
        PBDD_INJECT(kTableCasRetry);
        backoff.pause();
        continue;
      }
      // Walk the chain. Every node reached through an acquire-loaded link
      // is a published, immutable node of this variable; a grow may splice
      // our walk into a fresh-array chain mid-flight, which can only cause
      // a spurious miss — and a spurious miss is caught by the CAS below.
      for (NodeRef r = head; r != kZero;) {
        const BddNode& n = node(r);
        const NodeRef nx = n.next.load(std::memory_order_acquire);
        if (nx != kZero && nx != kMovedHead) {
          util::prefetch_read(&node(nx));
        }
        if (n.low == low && n.high == high) {
          // Canonical node exists (possibly created a microsecond ago by a
          // racing worker). Recycle the speculative slot: it was never
          // published, so tombstoning it keeps the store audit-clean.
          if (spec_slot != kNilSlot) arenas_[worker]->free_slot(spec_slot);
          created = false;
          return r;
        }
        r = nx;
      }
      // Miss: publish a speculative node by CASing the bucket head. The
      // release pairs with walkers' acquire loads, so low/high/next are
      // visible before the reference is.
      if (spec_slot == kNilSlot) spec_slot = arenas_[worker]->alloc();
      BddNode& n = arenas_[worker]->at_own(spec_slot);
      n.low = low;
      n.high = high;
      n.next.store(head, std::memory_order_relaxed);
      n.aux.store(0, std::memory_order_relaxed);
      const NodeRef r = make_node_ref(worker, var_, spec_slot);
      NodeRef expected = head;
      if (head_ref.compare_exchange_strong(expected, r,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        created = true;
        const std::size_t count =
            lf_count_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (count > (b->mask + 1) * 2) {
          lf_grow(/*churn=*/false);
        } else if (PBDD_INJECT_QUERY(kForceTableGrow)) {
          lf_grow(/*churn=*/true);
        }
        return r;
      }
      // CAS lost: a racer prepended a node (maybe our key) or a grower took
      // the bucket. Keep the speculative slot and re-walk from the new head.
      cas_retries_[worker].value += 1;
      PBDD_INJECT(kTableCasRetry);
    }
  }

  /// Epoch-claimed growth. `churn` rebuilds at the current size (the
  /// torture scheduler's kForceTableGrow). Losing claimants return
  /// immediately: the insert that tripped the threshold already succeeded,
  /// and the claim holder handles capacity.
  void lf_grow(bool churn) {
    std::uint64_t e = lf_epoch_.load(std::memory_order_relaxed);
    if ((e & 1) != 0 ||
        !lf_epoch_.compare_exchange_strong(e, e + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      return;  // another worker is mid-growth
    }
    LfBuckets* old = lf_buckets_.load(std::memory_order_acquire);
    const std::size_t old_size = old->mask + 1;
    if (!churn &&
        lf_count_.load(std::memory_order_relaxed) <= old_size * 2) {
      // Raced: the table grew between our trigger and our claim.
      lf_epoch_.store(e + 2, std::memory_order_release);
      return;
    }
    PBDD_INJECT(kTableGrow);
    const std::size_t new_size = churn ? old_size : old_size * 2;
    auto fresh = std::make_unique<LfBuckets>(new_size);
    for (std::size_t i = 0; i <= old->mask; ++i) {
      // Empty the bucket with the permanent sentinel: every in-flight CAS
      // against this bucket now fails, in this array forever.
      NodeRef head =
          old->slots[i].exchange(kMovedHead, std::memory_order_acq_rel);
      while (head != kZero) {
        BddNode& n = node(head);
        const NodeRef nx = n.next.load(std::memory_order_relaxed);
        if (nx != kZero) util::prefetch_read(&node(nx));
        const std::size_t bucket =
            util::hash_pair(n.low, n.high) & fresh->mask;
        // Release: a walker still on the old chain follows this redirected
        // link into nodes that were published on other buckets; pairing
        // with its acquire next-load extends the publication chain to them.
        n.next.store(fresh->slots[bucket].load(std::memory_order_relaxed),
                     std::memory_order_release);
        fresh->slots[bucket].store(head, std::memory_order_relaxed);
        head = nx;
      }
    }
    lf_buckets_.store(fresh.get(), std::memory_order_release);
    PBDD_TRACE_INSTANT(kTableGrow, new_size, var_);
    // Only the claim holder and stop-the-world code touch the retired list.
    lf_retired_.push_back(std::move(lf_owner_));
    lf_owner_ = std::move(fresh);
    lf_epoch_.store(e + 2, std::memory_order_release);
  }

  /// GC-rehash push: fields of `r` are final, several workers push into the
  /// same table concurrently. No growth here — reset_chains() already sized
  /// the array from the live count.
  void lf_reinsert(unsigned worker, std::uint64_t h, NodeRef r) {
    rt::Backoff backoff;
    for (;;) {
      LfBuckets* b = lf_buckets_.load(std::memory_order_acquire);
      std::atomic<NodeRef>& head_ref = b->slots[h & b->mask];
      NodeRef head = head_ref.load(std::memory_order_acquire);
      if (head == kMovedHead) {
        cas_retries_[worker].value += 1;
        PBDD_INJECT(kTableCasRetry);
        backoff.pause();
        continue;
      }
      node(r).next.store(head, std::memory_order_relaxed);
      if (head_ref.compare_exchange_strong(head, r,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        lf_count_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      cas_retries_[worker].value += 1;
      PBDD_INJECT(kTableCasRetry);
    }
  }

  [[nodiscard]] BddNode& node(NodeRef r) const noexcept {
    return arenas_[worker_of(r)]->at(slot_of(r));
  }

  unsigned var_ = 0;
  bool lockfree_ = false;
  std::vector<NodeArena*> arenas_;  ///< this variable's arena, per worker

  // Pass-lock state: one mutex guarding one bucket array.
  std::mutex mutex_;
  std::vector<NodeRef> buckets_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
  std::size_t max_count_ = 0;

  // Lock-free state. lf_owner_/lf_retired_ are written only by the epoch
  // claim holder and at stop-the-world points; readers go through the
  // atomic lf_buckets_ pointer.
  std::atomic<LfBuckets*> lf_buckets_{nullptr};
  std::unique_ptr<LfBuckets> lf_owner_;
  std::vector<std::unique_ptr<LfBuckets>> lf_retired_;
  std::atomic<std::uint64_t> lf_epoch_{0};  ///< odd = growth in flight
  std::atomic<std::size_t> lf_count_{0};
  std::size_t lf_max_count_ = 0;  ///< folded in at stop-the-world resets

  /// Per-worker contention meters, one cache line each (Fig. 16 lock waits;
  /// CAS retries for the lock-free discipline).
  std::vector<util::PaddedCounter> wait_ns_;
  std::vector<util::PaddedCounter> cas_retries_;
};

}  // namespace pbdd::core
