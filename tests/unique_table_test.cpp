// Per-variable unique table: canonicity, chain integrity across worker
// arenas, resizing, lock-wait accounting, and GC rehash support.
#include <gtest/gtest.h>

#include <thread>

#include "core/node_arena.hpp"
#include "core/unique_table.hpp"
#include "util/prng.hpp"

namespace pbdd {
namespace {

using namespace pbdd::core;

class UniqueTableTest : public ::testing::Test {
 protected:
  static constexpr unsigned kVar = 3;
  static constexpr unsigned kWorkers = 2;

  void SetUp() override {
    std::vector<NodeArena*> ptrs;
    for (auto& a : arenas_) ptrs.push_back(&a);
    table_.init(kVar, ptrs, 16);
  }

  NodeArena arenas_[kWorkers];
  VarUniqueTable table_;
};

TEST_F(UniqueTableTest, InsertThenFindReturnsSameRef) {
  bool created = false;
  const NodeRef a = table_.find_or_insert(0, kZero, kOne, created);
  EXPECT_TRUE(created);
  EXPECT_EQ(worker_of(a), 0u);
  EXPECT_EQ(var_of(a), kVar);
  const NodeRef b = table_.find_or_insert(0, kZero, kOne, created);
  EXPECT_FALSE(created);
  EXPECT_EQ(a, b);
  EXPECT_EQ(table_.count(), 1u);
}

TEST_F(UniqueTableTest, DuplicateFromOtherWorkerIsFound) {
  bool created = false;
  const NodeRef a = table_.find_or_insert(0, kZero, kOne, created);
  // Worker 1 asking for the same (low, high) must find worker 0's node,
  // not allocate its own copy — canonicity across worker arenas.
  const NodeRef b = table_.find_or_insert(1, kZero, kOne, created);
  EXPECT_FALSE(created);
  EXPECT_EQ(a, b);
  EXPECT_EQ(arenas_[1].size(), 0u);
}

TEST_F(UniqueTableTest, ManyInsertsForceResizeAndStayCanonical) {
  util::Xoshiro256 rng(3);
  std::vector<std::pair<NodeRef, NodeRef>> keys;
  std::vector<NodeRef> refs;
  bool created = false;
  // Unique (low, high) pairs built over synthetic child refs.
  for (unsigned i = 0; i < 2000; ++i) {
    const NodeRef low = make_node_ref(0, kVar + 1, i);
    const NodeRef high = make_node_ref(0, kVar + 2, i * 7 + 1);
    keys.emplace_back(low, high);
    refs.push_back(
        table_.find_or_insert(i % kWorkers, low, high, created));
    EXPECT_TRUE(created);
  }
  EXPECT_EQ(table_.count(), 2000u);
  EXPECT_GT(table_.buckets(), 16u) << "table should have grown";
  EXPECT_EQ(table_.max_count(), 2000u);
  // Every key still finds its original node after growth rehashing.
  for (unsigned i = 0; i < 2000; ++i) {
    const NodeRef r =
        table_.find_or_insert(0, keys[i].first, keys[i].second, created);
    EXPECT_FALSE(created);
    EXPECT_EQ(r, refs[i]);
  }
}

TEST_F(UniqueTableTest, ResetChainsAndReinsertRebuildTheTable) {
  bool created = false;
  std::vector<NodeRef> refs;
  for (unsigned i = 0; i < 100; ++i) {
    refs.push_back(table_.find_or_insert(
        0, make_node_ref(0, kVar + 1, i), make_node_ref(0, kVar + 2, i),
        created));
  }
  table_.reset_chains(100);
  EXPECT_EQ(table_.count(), 0u);
  for (unsigned i = 0; i < 100; ++i) {
    const BddNode& n = arenas_[0].at(slot_of(refs[i]));
    table_.reinsert(0, refs[i], n.low, n.high);
  }
  EXPECT_EQ(table_.count(), 100u);
  for (unsigned i = 0; i < 100; ++i) {
    const NodeRef r = table_.find_or_insert(
        0, make_node_ref(0, kVar + 1, i), make_node_ref(0, kVar + 2, i),
        created);
    EXPECT_FALSE(created);
    EXPECT_EQ(r, refs[i]);
  }
  // max_count survives the rebuild (Fig. 15 uses the high-water mark).
  EXPECT_EQ(table_.max_count(), 100u);
}

TEST_F(UniqueTableTest, LockWaitIsChargedToTheWaitingWorker) {
  table_.acquire(0);
  std::thread contender([&] {
    table_.acquire(1);  // must wait until the main thread releases
    table_.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  table_.release();
  contender.join();
  EXPECT_GT(table_.lock_wait_ns(1), 10u * 1000 * 1000)
      << "contender should have waited >=10ms";
  EXPECT_EQ(table_.lock_wait_ns(0), 0u);
  EXPECT_EQ(table_.lock_wait_ns_total(), table_.lock_wait_ns(1));
  table_.reset_lock_waits();
  EXPECT_EQ(table_.lock_wait_ns_total(), 0u);
}

TEST_F(UniqueTableTest, TryAcquire) {
  EXPECT_TRUE(table_.try_acquire());
  std::thread other([&] { EXPECT_FALSE(table_.try_acquire()); });
  other.join();
  table_.release();
}

TEST(UniqueTablePassLock, ConcurrentPassesStayCanonicalAcrossGrowth) {
  // Four workers run reduction-style passes over one variable's table:
  // each pass takes the variable lock once and inserts a run of keys, and
  // the bucket array starts as small as init() allows, so it rehashes
  // several times between passes of the other workers. Every worker walks
  // the shared key set in a different order; every key must still resolve
  // to exactly one node.
  constexpr unsigned kWorkers = 4;
  constexpr unsigned kKeys = 1u << 15;
  constexpr unsigned kPass = 64;
  NodeArena arenas[kWorkers];
  VarUniqueTable table;
  table.init(1, {&arenas[0], &arenas[1], &arenas[2], &arenas[3]}, 16);
  std::vector<NodeRef> results[kWorkers];
  std::thread threads[kWorkers];
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads[t] = std::thread([&, t] {
      results[t].resize(kKeys);
      bool created = false;
      for (unsigned i = 0; i < kKeys; i += kPass) {
        table.acquire(t);
        for (unsigned j = i; j < i + kPass; ++j) {
          // Odd strides permute the power-of-two universe.
          const unsigned key = (j * (2 * t + 1) + t * 7919) % kKeys;
          results[t][key] = table.find_or_insert(
              t, make_node_ref(0, 2, key), make_node_ref(0, 3, key), created);
        }
        table.release();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.count(), kKeys);
  EXPECT_EQ(table.max_count(), kKeys);
  EXPECT_GT(table.buckets(), 64u) << "growth should have been forced";
  for (unsigned i = 0; i < kKeys; ++i) {
    for (unsigned t = 1; t < kWorkers; ++t) {
      ASSERT_EQ(results[0][i], results[t][i]) << "key " << i;
    }
  }
}

// ---- Lock-free discipline --------------------------------------------------

TEST(UniqueTableLockFree, BasicCanonicityAndIntrospection) {
  NodeArena arenas[2];
  VarUniqueTable table;
  table.init(3, {&arenas[0], &arenas[1]}, 16, TableDiscipline::kLockFree);
  EXPECT_TRUE(table.lockfree());
  EXPECT_FALSE(table.pass_locked());
  bool created = false;
  const NodeRef a = table.find_or_insert(0, kZero, kOne, created);
  EXPECT_TRUE(created);
  const NodeRef b = table.find_or_insert(1, kZero, kOne, created);
  EXPECT_FALSE(created);
  EXPECT_EQ(a, b);
  EXPECT_EQ(table.count(), 1u);
  EXPECT_EQ(arenas[0].size() + arenas[1].size(), 1u);
}

TEST(UniqueTableLockFree, GrowthKeepsEveryKeyReachable) {
  NodeArena arena;
  VarUniqueTable table;
  table.init(3, {&arena}, 16, TableDiscipline::kLockFree);
  bool created = false;
  std::vector<NodeRef> refs;
  for (unsigned i = 0; i < 2000; ++i) {
    refs.push_back(table.find_or_insert(0, make_node_ref(0, 4, i),
                                        make_node_ref(0, 5, i), created));
    EXPECT_TRUE(created);
  }
  EXPECT_EQ(table.count(), 2000u);
  EXPECT_GT(table.buckets(), 16u) << "table should have grown";
  EXPECT_EQ(table.max_count(), 2000u);
  for (unsigned i = 0; i < 2000; ++i) {
    const NodeRef r = table.find_or_insert(0, make_node_ref(0, 4, i),
                                           make_node_ref(0, 5, i), created);
    EXPECT_FALSE(created);
    EXPECT_EQ(r, refs[i]);
  }
}

TEST(UniqueTableLockFree, ConcurrentInsertersStayCanonical) {
  // Two threads hammer the same key set with no mutex anywhere; each key
  // must end with exactly one canonical node, and any slot a losing racer
  // allocated speculatively must be tombstoned and recycled, never leaked
  // as a duplicate.
  NodeArena arenas[2];
  VarUniqueTable table;
  table.init(1, {&arenas[0], &arenas[1]}, 64, TableDiscipline::kLockFree);
  constexpr unsigned kKeys = 20000;
  std::vector<NodeRef> results[2];
  std::thread threads[2];
  for (unsigned t = 0; t < 2; ++t) {
    threads[t] = std::thread([&, t] {
      results[t].resize(kKeys);
      bool created = false;
      for (unsigned i = 0; i < kKeys; ++i) {
        results[t][i] = table.find_or_insert(
            t, make_node_ref(0, 2, i), make_node_ref(0, 3, i), created);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.count(), kKeys);
  for (unsigned i = 0; i < kKeys; ++i) {
    ASSERT_EQ(results[0][i], results[1][i]) << "key " << i;
  }
  // Duplicate-race audit: every allocated slot is either a published
  // canonical node or a tombstone awaiting recycling.
  unsigned live = 0;
  for (const NodeArena& arena : arenas) {
    for (std::uint32_t slot = 0; slot < arena.size(); ++slot) {
      const BddNode& n = arena.at(slot);
      if (n.low == kInvalid && n.high == kInvalid) continue;  // tombstone
      ++live;
    }
  }
  EXPECT_EQ(live, kKeys) << "losing racers must tombstone their slots";
}

TEST(UniqueTableLockFree, ConcurrentInsertDuringGrow) {
  // The lock-free analogue of ConcurrentInsertDuringRehash: a tiny initial
  // array forces repeated epoch-claimed growth while all four threads are
  // mid-insert, so walkers cross kMovedHead buckets and chains that are
  // being redirected into the fresh array.
  constexpr unsigned kWorkers = 4;
  NodeArena arenas[kWorkers];
  VarUniqueTable table;
  table.init(1, {&arenas[0], &arenas[1], &arenas[2], &arenas[3]}, 16,
             TableDiscipline::kLockFree);
  constexpr unsigned kKeys = 1u << 15;
  std::vector<NodeRef> results[kWorkers];
  std::thread threads[kWorkers];
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads[t] = std::thread([&, t] {
      results[t].resize(kKeys);
      bool created = false;
      for (unsigned i = 0; i < kKeys; ++i) {
        const unsigned key = (i * (2 * t + 1) + t * 7919) % kKeys;
        results[t][key] = table.find_or_insert(
            t, make_node_ref(0, 2, key), make_node_ref(0, 3, key), created);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.count(), kKeys);
  EXPECT_GT(table.buckets(), 64u) << "growth should have been forced";
  for (unsigned i = 0; i < kKeys; ++i) {
    for (unsigned t = 1; t < kWorkers; ++t) {
      ASSERT_EQ(results[0][i], results[t][i]) << "key " << i;
    }
  }
}

TEST(UniqueTableLockFree, SpeculativeSlotIsRecycledOnHit) {
  // Single-threaded determinism check of the recycling path: a hit never
  // consumes an arena slot, and a slot freed by free_slot() is reused by
  // the next miss.
  NodeArena arena;
  VarUniqueTable table;
  table.init(3, {&arena}, 16, TableDiscipline::kLockFree);
  bool created = false;
  const NodeRef a =
      table.find_or_insert(0, make_node_ref(0, 4, 0), kOne, created);
  EXPECT_EQ(arena.size(), 1u);
  table.find_or_insert(0, make_node_ref(0, 4, 0), kOne, created);
  EXPECT_FALSE(created);
  EXPECT_EQ(arena.size(), 1u) << "a hit must not consume arena slots";
  arena.free_slot(arena.alloc());
  const NodeRef b =
      table.find_or_insert(0, make_node_ref(0, 4, 1), kOne, created);
  EXPECT_TRUE(created);
  EXPECT_EQ(slot_of(b), 1u) << "freed slot should be reused";
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_NE(a, b);
}

TEST(UniqueTableLockFree, ResetChainsAndConcurrentReinsert) {
  // GC rehash contract: after reset_chains, several workers reinsert
  // concurrently (the rehash phase stripes variables over workers but a
  // lock-free table takes all comers), and max_count survives as the
  // Fig. 15 high-water mark.
  constexpr unsigned kWorkers = 2;
  NodeArena arenas[kWorkers];
  VarUniqueTable table;
  table.init(1, {&arenas[0], &arenas[1]}, 16, TableDiscipline::kLockFree);
  constexpr unsigned kKeys = 4000;
  bool created = false;
  std::vector<NodeRef> refs;
  for (unsigned i = 0; i < kKeys; ++i) {
    refs.push_back(table.find_or_insert(i % kWorkers, make_node_ref(0, 2, i),
                                        make_node_ref(0, 3, i), created));
  }
  table.reset_chains(kKeys);
  EXPECT_EQ(table.count(), 0u);
  std::thread threads[kWorkers];
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads[t] = std::thread([&, t] {
      for (unsigned i = 0; i < kKeys; ++i) {
        if (worker_of(refs[i]) != t) continue;
        const BddNode& n = arenas[t].at(slot_of(refs[i]));
        table.reinsert(t, refs[i], n.low, n.high);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.count(), kKeys);
  EXPECT_EQ(table.max_count(), kKeys);
  for (unsigned i = 0; i < kKeys; ++i) {
    const NodeRef r = table.find_or_insert(0, make_node_ref(0, 2, i),
                                           make_node_ref(0, 3, i), created);
    EXPECT_FALSE(created);
    EXPECT_EQ(r, refs[i]);
  }
}

TEST(NodeArenaTest, ConcurrentReadsDuringGrowth) {
  // One writer bump-allocates thousands of nodes (forcing directory
  // growth) while readers resolve already-published slots.
  NodeArena arena;
  std::atomic<std::uint32_t> published{0};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (std::uint32_t i = 0; i < 200000; ++i) {
      const std::uint32_t slot = arena.alloc();
      BddNode& n = arena.at_own(slot);
      n.low = i;
      n.high = i + 1;
      published.store(slot + 1, std::memory_order_release);
    }
  });
  std::thread reader([&] {
    util::Xoshiro256 rng(1);
    while (published.load(std::memory_order_acquire) < 200000) {
      const std::uint32_t limit = published.load(std::memory_order_acquire);
      if (limit == 0) continue;
      const std::uint32_t slot =
          static_cast<std::uint32_t>(rng.below(limit));
      const BddNode& n = arena.at(slot);
      if (n.low != slot || n.high != slot + 1) failed = true;
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(arena.size(), 200000u);
}

}  // namespace
}  // namespace pbdd
