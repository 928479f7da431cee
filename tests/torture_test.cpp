// Torture suite: seeded schedule perturbation / serialization sweeps over
// worker counts and pathological thresholds, validated exhaustively against
// truth tables and the store invariants; plus unit tests for the scheduler
// itself and the targeted GC-during-steal regression.
//
// The suite is meaningful in two build modes. With PBDD_TORTURE=ON the
// engine's injection points drive the scheduler and the sweeps explore real
// interleavings; with the default OFF build the points are no-ops and the
// sweeps degrade to plain workload/oracle checks (the scheduler unit tests
// drive the hooks directly and are unaffected).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/bdd_manager.hpp"
#include "runtime/torture.hpp"
#include "service_driver.hpp"
#include "torture_driver.hpp"

namespace pbdd {
namespace {

using core::Config;
using core::TableDiscipline;
using rt::InjectPoint;
using rt::TortureConfig;
using rt::TortureMode;
using rt::TortureScheduler;
using test::run_torture_workload;
using test::TortureGuard;

// ---------------------------------------------------------------------------
// Scheduler unit tests (drive the hooks directly; independent of the build's
// injection points)
// ---------------------------------------------------------------------------

TEST(TortureSchedulerUnit, PointTableIsComplete) {
  for (unsigned p = 0; p < static_cast<unsigned>(InjectPoint::kCount); ++p) {
    const char* name = rt::point_name(static_cast<InjectPoint>(p));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
  // The lock discipline: points that fire inside unique-table critical
  // sections must never park a thread.
  EXPECT_FALSE(rt::point_yieldable(InjectPoint::kTableInsert));
  EXPECT_FALSE(rt::point_yieldable(InjectPoint::kTableGrow));
  EXPECT_FALSE(rt::point_yieldable(InjectPoint::kArenaBlockAlloc));
  EXPECT_FALSE(rt::point_yieldable(InjectPoint::kArenaDirGrow));
  EXPECT_FALSE(rt::point_yieldable(InjectPoint::kReducePublish));
  // The steal/GC communication points are exactly the ones worth parking at.
  EXPECT_TRUE(rt::point_yieldable(InjectPoint::kStealWriteback));
  EXPECT_TRUE(rt::point_yieldable(InjectPoint::kResolveStall));
  EXPECT_TRUE(rt::point_yieldable(InjectPoint::kGcBarrierWait));
  // The lock-free CAS-retry point holds no mutex and MUST be yieldable: in
  // serialize mode a spinner waiting out a moved bucket has to hand the
  // token to the grower, or the growth never completes.
  EXPECT_TRUE(rt::point_yieldable(InjectPoint::kTableCasRetry));
}

TEST(TortureSchedulerUnit, DisabledSchedulerIsInert) {
  auto& sched = TortureScheduler::instance();
  ASSERT_FALSE(sched.enabled());
  sched.hit(InjectPoint::kStealAttempt);  // must be a no-op, not a hang
  EXPECT_FALSE(sched.query(InjectPoint::kForceGc));
}

TEST(TortureSchedulerUnit, QueryStreamIsSeedDeterministic) {
  auto draw = [](std::uint64_t seed) {
    TortureConfig tc;
    tc.seed = seed;
    tc.force_gc_permille = 500;
    TortureGuard guard(tc);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(
          TortureScheduler::instance().query(InjectPoint::kForceGc));
    }
    return fired;
  };
  const auto a = draw(99);
  EXPECT_EQ(a, draw(99));
  EXPECT_NE(a, draw(100));
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(TortureSchedulerUnit, ZeroRateQueryNeverFires) {
  TortureConfig tc;
  tc.force_gc_permille = 0;
  TortureGuard guard(tc);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(TortureScheduler::instance().query(InjectPoint::kForceGc));
  }
}

TEST(TortureSchedulerUnit, LogCapCountsDroppedEvents) {
  TortureConfig tc;
  tc.mode = TortureMode::kSerialize;
  tc.max_log_events = 8;
  TortureGuard guard(tc);
  auto& sched = TortureScheduler::instance();
  sched.expect_threads(1);
  sched.thread_begin(0);
  for (int i = 0; i < 100; ++i) sched.hit(InjectPoint::kStealAttempt);
  sched.thread_end();
  EXPECT_EQ(sched.event_count(), 8u);
  EXPECT_GT(sched.dropped_events(), 0u);
}

TEST(TortureSchedulerUnit, SerializeHandoffIsDeterministic) {
  auto once = [] {
    TortureConfig tc;
    tc.seed = 7;
    tc.mode = TortureMode::kSerialize;
    TortureGuard guard(tc);
    auto& sched = TortureScheduler::instance();
    sched.expect_threads(2);
    auto body = [&sched](unsigned id) {
      sched.thread_begin(id);
      for (int i = 0; i < 25; ++i) {
        sched.hit(id == 0 ? InjectPoint::kStealAttempt
                          : InjectPoint::kGroupTake);
      }
      sched.thread_end();
    };
    std::thread helper(body, 1);
    body(0);
    helper.join();
    EXPECT_EQ(sched.stall_breaks(), 0u);
    return sched.dump_log();
  };
  const std::string first = once();
  EXPECT_EQ(first, once());
  // Both threads' events interleave in one global order.
  EXPECT_NE(first.find("w0 steal_attempt"), std::string::npos);
  EXPECT_NE(first.find("w1 group_take"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Seeded workload sweep: seeds × worker counts × tiny eval-thresholds,
// exhaustively validated (torture_driver.hpp)
// ---------------------------------------------------------------------------

/// Table discipline for a sweep entry: alternates by seed (odd seeds
/// passlock, even seeds lockfree) so every CI leg tortures both, unless
/// PBDD_TABLE_DISCIPLINE ("passlock" | "lockfree") pins the whole sweep —
/// the TSan matrix uses that to give the lock-free protocol a dedicated
/// leg. Any other value, the retired "sharded" included, fails the test.
TableDiscipline sweep_discipline(std::uint64_t seed) {
  const char* env = std::getenv("PBDD_TABLE_DISCIPLINE");
  TableDiscipline pinned = TableDiscipline::kPassLock;
  if (env != nullptr && *env != '\0') {
    if (core::parse_discipline(env, pinned)) return pinned;
    ADD_FAILURE() << "unknown PBDD_TABLE_DISCIPLINE: " << env;
  }
  return seed % 2 == 0 ? TableDiscipline::kLockFree
                       : TableDiscipline::kPassLock;
}

class TortureSweep
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, std::uint64_t, TortureMode>> {};

TEST_P(TortureSweep, WorkloadMatchesTruthTables) {
  const auto [workers, threshold, seed, mode] = GetParam();

  TortureConfig tc;
  tc.seed = seed;
  tc.mode = mode;
  tc.delay_permille = 200;
  tc.yield_permille = 200;
  tc.force_gc_permille = 25;
  tc.force_spill_permille = 50;
  tc.force_table_grow_permille = 25;
  tc.force_dir_churn_permille = 25;
  TortureGuard guard(tc);

  Config config;
  config.workers = workers;
  config.eval_threshold = threshold;
  config.group_size = 2;
  config.share_poll_interval = 4;
  config.table_discipline = sweep_discipline(seed);

  const auto result =
      run_torture_workload(config, 4, 40, seed * 977 + workers);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.stall_breaks, 0u);
  if (rt::torture_compiled()) {
    EXPECT_GT(result.events, 0u);
    EXPECT_GT(result.gc_runs, 0u);  // force_gc_permille > 0 must bite
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TortureSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 12u),
                       // Three seeds so the seed-rotated table discipline
                       // (sweep_discipline) covers both per sweep.
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(TortureMode::kPerturb,
                                         TortureMode::kSerialize)),
    [](const ::testing::TestParamInfo<
        std::tuple<unsigned, unsigned, std::uint64_t, TortureMode>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) == TortureMode::kPerturb ? "_perturb"
                                                               : "_serialize");
    });

// ---------------------------------------------------------------------------
// Snapshot sweep: checkpoint/restore churn (export-save every few steps,
// restore into a fresh manager, continue there — torture_driver.hpp) with
// collections forced aggressively, so the kSnapshotWrite/kSnapshotRestore
// points interleave against the steal/GC machinery on every discipline.
// ---------------------------------------------------------------------------

class SnapshotTortureSweep
    : public ::testing::TestWithParam<
          std::tuple<unsigned, std::uint64_t, TortureMode>> {};

TEST_P(SnapshotTortureSweep, CheckpointRestoreCycleSurvivesForcedGc) {
  const auto [workers, seed, mode] = GetParam();

  TortureConfig tc;
  tc.seed = seed;
  tc.mode = mode;
  tc.delay_permille = 200;
  tc.yield_permille = 200;
  tc.force_gc_permille = 200;  // collections race every checkpoint cycle
  tc.force_spill_permille = 50;
  tc.force_table_grow_permille = 25;
  TortureGuard guard(tc);

  Config config;
  config.workers = workers;
  config.eval_threshold = 4;
  config.group_size = 2;
  config.share_poll_interval = 4;
  config.table_discipline = sweep_discipline(seed);

  const auto result =
      run_torture_workload(config, 4, 40, seed * 977 + workers,
                           /*snapshot_every=*/7);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.stall_breaks, 0u);
  EXPECT_GE(result.snapshot_cycles, 5u);
  if (rt::torture_compiled()) {
    EXPECT_GT(result.events, 0u);
    EXPECT_GT(result.gc_runs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SnapshotTortureSweep,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(TortureMode::kPerturb,
                                         TortureMode::kSerialize)),
    [](const ::testing::TestParamInfo<
        std::tuple<unsigned, std::uint64_t, TortureMode>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == TortureMode::kPerturb ? "_perturb"
                                                               : "_serialize");
    });

// ---------------------------------------------------------------------------
// Out-of-core paging sweep: a LevelPager with a 1-node resident budget
// (torture_driver.hpp ooc_budget) spills every level at every batch barrier
// and faults them back on the next touch, while checkpoint/restore swaps and
// forced collections (which fault everything in and then invalidate every
// segment) run on top — so the kOocSpill/kOocFault points race the steal,
// GC and snapshot machinery on every discipline, and a level that comes back
// from disk wrong fails the exhaustive truth-table validation.
// ---------------------------------------------------------------------------

class OocTortureSweep
    : public ::testing::TestWithParam<
          std::tuple<unsigned, std::uint64_t, TortureMode>> {};

TEST_P(OocTortureSweep, PagingSurvivesGcAndCheckpointRaces) {
  const auto [workers, seed, mode] = GetParam();

  TortureConfig tc;
  tc.seed = seed;
  tc.mode = mode;
  tc.delay_permille = 200;
  tc.yield_permille = 200;
  tc.force_gc_permille = 150;  // collections invalidate every spill segment
  tc.force_spill_permille = 50;
  tc.force_table_grow_permille = 25;
  TortureGuard guard(tc);

  Config config;
  config.workers = workers;
  config.eval_threshold = 4;
  config.group_size = 2;
  config.share_poll_interval = 4;
  config.table_discipline = sweep_discipline(seed);

  const auto result =
      run_torture_workload(config, 4, 40, seed * 977 + workers,
                           /*snapshot_every=*/7, /*dag_permille=*/0,
                           /*ooc_budget=*/1);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.stall_breaks, 0u);
  EXPECT_GE(result.snapshot_cycles, 5u);
  // Budget 1 with nonempty levels means demotion fires at every barrier and
  // the workload's next touch faults — independent of the torture build.
  EXPECT_GT(result.ooc_demotions, 0u);
  EXPECT_GT(result.ooc_faults, 0u);
  if (rt::torture_compiled()) {
    EXPECT_GT(result.events, 0u);
    EXPECT_GT(result.gc_runs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OocTortureSweep,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(TortureMode::kPerturb,
                                         TortureMode::kSerialize)),
    [](const ::testing::TestParamInfo<
        std::tuple<unsigned, std::uint64_t, TortureMode>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == TortureMode::kPerturb ? "_perturb"
                                                               : "_serialize");
    });

// ---------------------------------------------------------------------------
// Multi-session service sweep: client threads × seeds, perturb mode only.
// The service dispatcher and client threads are unregistered with the
// scheduler (they never run pool jobs) so they get seeded delays/yields at
// the kServiceAdmit/kServiceCancel points while the engine's own workers
// are tortured as usual. Serialize mode is excluded by design: client
// racing is inherently timing-dependent, so its determinism guarantee
// covers pool workers only.
// ---------------------------------------------------------------------------

class ServiceTortureSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(ServiceTortureSweep, MultiSessionWorkloadSurvivesPerturbation) {
  const auto [workers, seed] = GetParam();

  TortureConfig tc;
  tc.seed = seed;
  tc.mode = TortureMode::kPerturb;
  tc.delay_permille = 200;
  tc.yield_permille = 200;
  tc.force_gc_permille = 25;
  tc.force_spill_permille = 50;
  TortureGuard guard(tc);

  service::ServiceConfig cfg;
  cfg.num_vars = 8;
  cfg.engine.workers = workers;
  cfg.engine.eval_threshold = 4;
  cfg.engine.group_size = 2;
  cfg.engine.share_poll_interval = 4;
  cfg.engine.table_discipline = sweep_discipline(seed);
  cfg.queue_capacity = 8;
  cfg.live_node_budget = 4096;
  service::BddService svc(cfg);

  test::ServiceWorkload wl;
  wl.sessions = 6;
  wl.requests_per_session = 10;
  wl.ops_per_request = 5;
  wl.program_seed = seed * 7919 + workers;
  wl.deadline_every = 4;
  wl.cancel_every = 6;
  wl.release_every = 3;
  const test::ServiceRunResult result = test::run_service_workload(svc, wl);
  EXPECT_EQ(result.error, "");
  EXPECT_GT(result.ok, 0u);
  EXPECT_LE(result.metrics.max_live_nodes_observed, cfg.live_node_budget);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServiceTortureSweep,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, std::uint64_t>>&
           info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Fault-campaign sweep: a full stuck-at campaign (src/fault/) whose wave
// boundaries force collections and checkpoint writes against the shared
// golden BDDs (torture_driver.hpp's run_fault_torture), across worker
// counts and both disciplines, under both schedule modes. Every
// verdict is cross-checked against the exhaustive simulation oracle, so a
// GC that frees a live golden or a wave that reads a stale cone value is a
// test failure, not a silent wrong verdict.
// ---------------------------------------------------------------------------

class FaultTortureSweep
    : public ::testing::TestWithParam<
          std::tuple<unsigned, std::uint64_t, TortureMode>> {};

TEST_P(FaultTortureSweep, CampaignSurvivesGcAndCheckpointRaces) {
  const auto [workers, seed, mode] = GetParam();

  TortureConfig tc;
  tc.seed = seed;
  tc.mode = mode;
  tc.delay_permille = 200;
  tc.yield_permille = 200;
  tc.force_gc_permille = 100;  // collections also fire inside batches
  tc.force_spill_permille = 50;
  tc.force_table_grow_permille = 25;
  TortureGuard guard(tc);

  Config config;
  config.workers = workers;
  config.eval_threshold = 4;
  config.group_size = 2;
  config.share_poll_interval = 4;
  config.table_discipline = sweep_discipline(seed);

  const auto result = test::run_fault_torture(
      config, seed * 131 + workers, /*batch_faults=*/6,
      /*gc_every=*/2, /*snapshot_every=*/3);
  EXPECT_EQ(result.error, "");
  EXPECT_GT(result.waves, 1u);
  EXPECT_GT(result.faults, 0u);
  EXPECT_GT(result.gc_interleaves, 0u);
  EXPECT_GT(result.snapshot_interleaves, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FaultTortureSweep,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(TortureMode::kPerturb,
                                         TortureMode::kSerialize)),
    [](const ::testing::TestParamInfo<
        std::tuple<unsigned, std::uint64_t, TortureMode>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == TortureMode::kPerturb ? "_perturb"
                                                               : "_serialize");
    });

// ---------------------------------------------------------------------------
// Replay determinism: the acceptance criterion. The same (seed, config) pair
// must produce byte-identical event logs across consecutive runs — and the
// same results.
// ---------------------------------------------------------------------------

TEST(TortureDeterminism, SerializedRunReplaysByteIdentically) {
  auto once = [] {
    TortureConfig tc;
    tc.seed = 42;
    tc.mode = TortureMode::kSerialize;
    tc.force_gc_permille = 100;
    tc.force_spill_permille = 100;
    tc.force_table_grow_permille = 50;
    tc.force_dir_churn_permille = 50;
    TortureGuard guard(tc);
    Config config;
    config.workers = 4;
    config.eval_threshold = 2;
    config.group_size = 2;
    config.share_poll_interval = 4;
    return run_torture_workload(config, 4, 32, 7);
  };
  const auto a = once();
  const auto b = once();
  ASSERT_EQ(a.error, "");
  ASSERT_EQ(b.error, "");
  EXPECT_EQ(a.stall_breaks, 0u);
  EXPECT_EQ(b.stall_breaks, 0u);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.node_counts, b.node_counts);
  if (rt::torture_compiled()) {
    EXPECT_GT(a.events, 0u);
    EXPECT_GT(a.gc_runs, 0u);
  }
}

// The snapshot file format has no timestamps and restore preserves chain
// order, so a serialized run that swaps managers through disk snapshots must
// still replay byte-identically.
TEST(TortureDeterminism, SnapshotCycleReplaysByteIdentically) {
  auto once = [] {
    TortureConfig tc;
    tc.seed = 17;
    tc.mode = TortureMode::kSerialize;
    tc.force_gc_permille = 150;
    tc.force_spill_permille = 100;
    TortureGuard guard(tc);
    Config config;
    config.workers = 4;
    config.eval_threshold = 2;
    config.group_size = 2;
    config.share_poll_interval = 4;
    return run_torture_workload(config, 4, 32, 13, /*snapshot_every=*/6);
  };
  const auto a = once();
  const auto b = once();
  ASSERT_EQ(a.error, "");
  ASSERT_EQ(b.error, "");
  EXPECT_EQ(a.stall_breaks, 0u);
  EXPECT_GE(a.snapshot_cycles, 4u);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.node_counts, b.node_counts);
}

TEST(TortureDeterminism, SingleWorkerPerturbReplaysByteIdentically) {
  auto once = [] {
    TortureConfig tc;
    tc.seed = 5;
    tc.mode = TortureMode::kPerturb;
    tc.delay_permille = 300;
    tc.yield_permille = 300;
    tc.force_gc_permille = 100;
    TortureGuard guard(tc);
    Config config;
    config.workers = 1;
    config.eval_threshold = 3;
    config.group_size = 2;
    return run_torture_workload(config, 4, 32, 11);
  };
  const auto a = once();
  const auto b = once();
  ASSERT_EQ(a.error, "");
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_EQ(a.node_counts, b.node_counts);
}

// ---------------------------------------------------------------------------
// Targeted regression: stolen-result writeback vs. forced mark-compact
// relocation. Collections are driven at every safe point while tiny
// thresholds and forced spills keep every batch full of stolen groups, so
// each batch's writebacks are followed by a compaction that relocates the
// destination arenas before the results are used again. The exhaustive
// validation in the driver fails if a writeback ever lands through a stale
// arena directory or a relocated slot.
// ---------------------------------------------------------------------------

TEST(TortureRegression, StolenWritebackThenForcedCompaction) {
  TortureConfig tc;
  tc.seed = 1234;
  tc.mode = TortureMode::kSerialize;
  tc.force_gc_permille = 1000;  // collect at every safe point
  tc.force_spill_permille = 1000;
  tc.force_dir_churn_permille = 200;
  TortureGuard guard(tc);

  Config config;
  config.workers = 4;
  config.eval_threshold = 1;  // spill after every expansion round
  config.group_size = 1;      // one operation per stealable group
  config.share_poll_interval = 1;

  const auto result = run_torture_workload(config, 5, 40, 99);
  EXPECT_EQ(result.error, "");
  EXPECT_EQ(result.stall_breaks, 0u);
  if (rt::torture_compiled()) {
    EXPECT_GE(result.gc_runs, 10u);
    EXPECT_GT(result.groups_stolen, 0u);
  }
}

}  // namespace
}  // namespace pbdd
