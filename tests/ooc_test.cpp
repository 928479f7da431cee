// Out-of-core paging suite (src/ooc/): spill/fault round-trip identity
// across all three unique-table disciplines, the spill-segment corruption
// battery (every damaged segment must fault loudly, never half-apply), the
// resident-node budget at batch barriers, demand-estimator bounds, trace
// events, and the service governor's demote-before-shed lever.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bdd_manager.hpp"
#include "obs/trace.hpp"
#include "ooc/demand.hpp"
#include "ooc/level_pager.hpp"
#include "oracle.hpp"
#include "service/bdd_service.hpp"
#include "service_driver.hpp"
#include "snapshot/level_codec.hpp"
#include "store_invariants.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

namespace pbdd {
namespace {

using core::Bdd;
using core::BddManager;
using core::Config;
using core::TableDiscipline;
using ooc::LevelPager;
using ooc::PagerConfig;
using ooc::PagerStats;
using test::TruthTable64;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Unique spill directory under /tmp, removed on destruction. The pager
/// deletes its segment files itself; this only owns the directory.
class TempSpillDir {
 public:
  TempSpillDir() {
    static int counter = 0;
    path_ = "/tmp/pbdd_ooc_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++);
    ::mkdir(path_.c_str(), 0755);
  }
  ~TempSpillDir() { ::rmdir(path_.c_str()); }
  TempSpillDir(const TempSpillDir&) = delete;
  TempSpillDir& operator=(const TempSpillDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Segment file naming contract (docs/FORMAT.md): one file per level.
std::string segment_path(const std::string& dir, unsigned var) {
  return dir + "/pbdd-level-" + std::to_string(var) + ".spill";
}

/// Seeded random environment with exhaustive truth tables, same shape as the
/// torture driver's workload but pure (no scheduler required).
struct Env {
  std::vector<Bdd> fns;
  std::vector<TruthTable64> tts;
};

Env build_env(BddManager& mgr, unsigned num_vars, int steps,
              std::uint64_t seed) {
  Env env;
  util::Xoshiro256 rng(seed);
  for (unsigned v = 0; v < num_vars; ++v) {
    env.fns.push_back(mgr.var(v));
    env.tts.push_back(TruthTable64::input(v, num_vars));
  }
  for (int step = 0; step < steps; ++step) {
    const Op op = static_cast<Op>(rng.below(kNumOps));
    const std::size_t a = rng.below(env.fns.size());
    const std::size_t b = rng.below(env.fns.size());
    env.fns.push_back(mgr.apply(op, env.fns[a], env.fns[b]));
    env.tts.push_back(env.tts[a].apply(op, env.tts[b]));
  }
  return env;
}

/// Exhaustive check of every function against its truth table. Dereferences
/// every reachable node, so it faults every spilled level the environment
/// touches.
std::string validate_env(BddManager& mgr, const Env& env, unsigned num_vars) {
  std::vector<bool> assignment(num_vars);
  for (std::size_t k = 0; k < env.fns.size(); ++k) {
    for (unsigned i = 0; i < (1u << num_vars); ++i) {
      for (unsigned v = 0; v < num_vars; ++v) {
        assignment[v] = (i >> v) & 1;
      }
      if (mgr.eval(env.fns[k], assignment) != env.tts[k].eval(i)) {
        return "fn " + std::to_string(k) + " assignment " + std::to_string(i) +
               " disagrees after paging";
      }
    }
  }
  return {};
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(buf.data()), size);
  return buf;
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/// Re-seal a deliberately mutated segment so it passes the CRC check and
/// fails on the *target* field instead (version skew, magic).
void reseal_crc(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t crc = util::crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
}

Config engine_config(TableDiscipline discipline, unsigned workers = 2) {
  Config config;
  config.workers = workers;
  config.table_discipline = discipline;
  return config;
}

// ---------------------------------------------------------------------------
// Round-trip identity across both table disciplines
// ---------------------------------------------------------------------------

class OocRoundTrip : public ::testing::TestWithParam<TableDiscipline> {};

TEST_P(OocRoundTrip, SpillEverythingThenValidateExhaustively) {
  constexpr unsigned kVars = 6;
  TempSpillDir dir;
  BddManager mgr(kVars, engine_config(GetParam()));
  const Env env = build_env(mgr, kVars, 40, 0xBEEF);

  std::vector<std::size_t> counts_before;
  for (const Bdd& f : env.fns) counts_before.push_back(mgr.node_count(f));
  const std::size_t live_before = mgr.live_nodes();
  ASSERT_GT(live_before, 0u);

  PagerConfig pc;
  pc.spill_dir = dir.path();
  LevelPager pager(mgr, pc);

  // Explicit full demotion: every level with allocated slots goes to disk
  // and live_nodes drops to zero.
  const unsigned demoted = pager.demote_until(0);
  EXPECT_GT(demoted, 0u);
  EXPECT_EQ(mgr.live_nodes(), 0u);
  {
    const PagerStats s = pager.stats();
    EXPECT_EQ(s.demotions, demoted);
    EXPECT_EQ(s.spilled_levels, demoted);
    EXPECT_GT(s.spilled_nodes, 0u);
    EXPECT_EQ(s.resident_nodes, 0u);
    EXPECT_GT(s.bytes_written, 0u);
  }

  // Exhaustive evaluation faults every level back in through the touch
  // barrier; results must be bit-identical and the store sound.
  EXPECT_EQ(validate_env(mgr, env, kVars), "");
  EXPECT_EQ(test::check_store_invariants(mgr), "");
  EXPECT_EQ(mgr.live_nodes(), live_before);
  for (std::size_t k = 0; k < env.fns.size(); ++k) {
    EXPECT_EQ(mgr.node_count(env.fns[k]), counts_before[k]) << "fn " << k;
  }
  {
    const PagerStats s = pager.stats();
    EXPECT_GT(s.faults, 0u);
    EXPECT_EQ(s.spilled_levels, 0u);
    EXPECT_GT(s.bytes_read, 0u);
    // ensure_all_resident faults bottom-up, so after the first fault the
    // ascending direction always finds the next spilled level to stage.
    EXPECT_GT(s.prefetch_issued, 0u);
  }

  // A second cycle through a collection: gc() faults everything in first
  // and invalidates the segments, so paging and compaction compose.
  pager.demote_until(0);
  mgr.gc();
  EXPECT_EQ(validate_env(mgr, env, kVars), "");
  EXPECT_EQ(test::check_store_invariants(mgr), "");
}

INSTANTIATE_TEST_SUITE_P(Disciplines, OocRoundTrip,
                         ::testing::Values(TableDiscipline::kPassLock,
                                           TableDiscipline::kLockFree),
                         [](const ::testing::TestParamInfo<TableDiscipline>&
                                info) {
                           return core::discipline_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Automatic demotion under a budget
// ---------------------------------------------------------------------------

TEST(OocBudget, BatchBarriersKeepResidencyAtOrBelowTarget) {
  constexpr unsigned kVars = 6;
  TempSpillDir dir;
  BddManager mgr(kVars, engine_config(TableDiscipline::kPassLock));

  PagerConfig pc;
  pc.spill_dir = dir.path();
  pc.node_budget = 8;  // far below any level's population: constant paging
  LevelPager pager(mgr, pc);

  const Env env = build_env(mgr, kVars, 40, 0xF00D);
  EXPECT_GT(pager.stats().demotions, 0u);
  EXPECT_GT(pager.stats().faults, 0u);

  // The barrier demotes to the hard target, hot levels included.
  pager.demote_until(pc.node_budget);
  EXPECT_LE(pager.stats().resident_nodes, pc.node_budget);

  EXPECT_EQ(validate_env(mgr, env, kVars), "");
  EXPECT_EQ(test::check_store_invariants(mgr), "");
}

// ---------------------------------------------------------------------------
// Corruption battery: every damaged segment faults loudly before any
// manager mutation, and the original bytes still fault in afterwards.
// ---------------------------------------------------------------------------

class OocCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    mgr_ = std::make_unique<BddManager>(
        kVars, engine_config(TableDiscipline::kPassLock));
    env_ = build_env(*mgr_, kVars, 30, 0xCAFE);
    PagerConfig pc;
    pc.spill_dir = dir_.path();
    pc.prefetch = false;  // the sync fault path must read the mutated file
    pager_ = std::make_unique<LevelPager>(*mgr_, pc);
    // Spill one mid-order level and keep its pristine segment bytes.
    for (unsigned v = 0; v < kVars; ++v) {
      if (pager_->demote_level(v)) {
        var_ = v;
        break;
      }
    }
    ASSERT_TRUE(pager_->is_spilled(var_));
    path_ = segment_path(dir_.path(), var_);
    pristine_ = slurp(path_);
    ASSERT_GT(pristine_.size(), 24u);
  }

  /// The next touch of the spilled level must throw `what_substr`, leave the
  /// level spilled, and succeed once the pristine bytes are put back.
  void expect_fault_then_recover(const std::string& what_substr) {
    try {
      mgr_->ensure_all_resident();
      FAIL() << "fault-in accepted a corrupt segment (" << what_substr << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what_substr), std::string::npos)
          << "actual: " << e.what();
    }
    EXPECT_TRUE(pager_->is_spilled(var_));
    spit(path_, pristine_);
    mgr_->ensure_all_resident();
    EXPECT_FALSE(pager_->is_spilled(var_));
    EXPECT_EQ(validate_env(*mgr_, env_, kVars), "");
    EXPECT_EQ(test::check_store_invariants(*mgr_), "");
  }

  static constexpr unsigned kVars = 6;
  TempSpillDir dir_;
  std::unique_ptr<BddManager> mgr_;
  std::unique_ptr<LevelPager> pager_;
  Env env_;
  unsigned var_ = 0;
  std::string path_;
  std::vector<std::uint8_t> pristine_;
};

TEST_F(OocCorruption, TruncatedSegmentFaultsLoudly) {
  std::vector<std::uint8_t> bytes(pristine_.begin(), pristine_.begin() + 10);
  spit(path_, bytes);
  expect_fault_then_recover("truncated");
}

TEST_F(OocCorruption, BodyBitFlipFailsTheChecksum) {
  std::vector<std::uint8_t> bytes = pristine_;
  bytes[bytes.size() / 2] ^= 0x40;
  spit(path_, bytes);
  expect_fault_then_recover("checksum mismatch");
}

TEST_F(OocCorruption, StaleCrcTrailerFailsTheChecksum) {
  // A trailer from some other generation of the file: payload and CRC no
  // longer agree, exactly as after a torn rewrite.
  std::vector<std::uint8_t> bytes = pristine_;
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(~bytes[i]);
  }
  spit(path_, bytes);
  expect_fault_then_recover("checksum mismatch");
}

TEST_F(OocCorruption, FormatVersionSkewIsRejected) {
  // Re-sealed CRC so the version check itself must catch it.
  std::vector<std::uint8_t> bytes = pristine_;
  bytes[8] = static_cast<std::uint8_t>(bytes[8] + 1);
  reseal_crc(bytes);
  spit(path_, bytes);
  expect_fault_then_recover("format version skew");
}

TEST_F(OocCorruption, ForeignMagicIsRejected) {
  std::vector<std::uint8_t> bytes = pristine_;
  bytes[0] ^= 0xFF;
  reseal_crc(bytes);
  spit(path_, bytes);
  expect_fault_then_recover("bad magic");
}

TEST_F(OocCorruption, MissingSegmentFaultsLoudly) {
  std::remove(path_.c_str());
  expect_fault_then_recover("missing spill segment");
}

TEST_F(OocCorruption, WrongLevelSegmentIsRejected) {
  // A valid segment for a *different* level copied over this one: the CRC
  // passes, the level tag must not.
  unsigned other = kVars;
  for (unsigned v = var_ + 1; v < kVars; ++v) {
    if (pager_->demote_level(v)) {
      other = v;
      break;
    }
  }
  ASSERT_LT(other, kVars) << "workload left no second non-empty level";
  spit(path_, slurp(segment_path(dir_.path(), other)));
  try {
    mgr_->ensure_all_resident();
    FAIL() << "fault-in accepted a segment for the wrong level";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("level tag mismatch"),
              std::string::npos)
        << "actual: " << e.what();
  }
  // Both levels recover from their pristine images.
  spit(path_, pristine_);
  mgr_->ensure_all_resident();
  EXPECT_EQ(validate_env(*mgr_, env_, kVars), "");
}

// ---------------------------------------------------------------------------
// Demand estimator
// ---------------------------------------------------------------------------

TEST(OocDemand, CutProductBoundsTheApplyResult) {
  BddManager mgr(8, engine_config(TableDiscipline::kPassLock, 1));
  const Env env = build_env(mgr, 6, 30, 0xD00D);
  const Bdd& f = env.fns[env.fns.size() - 1];
  const Bdd& g = env.fns[env.fns.size() - 2];

  std::vector<core::BatchOp> batch{core::BatchOp{Op::And, f, g, -1, -1}};
  const ooc::DemandEstimate est = ooc::estimate_batch_demand(
      mgr, std::span<const core::BatchOp>(batch.data(), batch.size()));
  EXPECT_TRUE(est.exact);

  const Bdd h = mgr.apply(Op::And, f, g);
  // The summed cut products upper-bound the result's internal nodes (the
  // max-cut memory model); +2 tolerates terminal counting conventions.
  EXPECT_GE(est.nodes + 2, mgr.node_count(h));
}

TEST(OocDemand, VisitCapAndDepsDowngradeToInexact) {
  BddManager mgr(8, engine_config(TableDiscipline::kPassLock, 1));
  const Env env = build_env(mgr, 6, 30, 0xD11D);
  const Bdd& f = env.fns.back();

  std::vector<core::BatchOp> capped{core::BatchOp{Op::And, f, f, -1, -1}};
  EXPECT_FALSE(ooc::estimate_batch_demand(
                   mgr, std::span<const core::BatchOp>(capped.data(), 1),
                   /*visit_cap=*/1)
                   .exact);

  // An unresolved in-batch dependency cannot be profiled.
  std::vector<core::BatchOp> dag{
      core::BatchOp{Op::And, f, f, -1, -1},
      core::BatchOp{Op::Or, core::Bdd{}, f, 0, -1},
  };
  EXPECT_FALSE(ooc::estimate_batch_demand(
                   mgr, std::span<const core::BatchOp>(dag.data(), dag.size()))
                   .exact);
}

TEST(OocDemand, TerminalsAndEmptyBatchesCostNothing) {
  BddManager mgr(4, engine_config(TableDiscipline::kPassLock, 1));
  const ooc::DemandEstimate none =
      ooc::estimate_batch_demand(mgr, std::span<const core::BatchOp>{});
  EXPECT_TRUE(none.exact);
  EXPECT_EQ(none.nodes, 0u);

  std::vector<core::BatchOp> terminals{
      core::BatchOp{Op::And, mgr.one(), mgr.zero(), -1, -1}};
  const ooc::DemandEstimate est = ooc::estimate_batch_demand(
      mgr, std::span<const core::BatchOp>(terminals.data(), 1));
  EXPECT_TRUE(est.exact);
  EXPECT_EQ(est.nodes, 0u);
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

TEST(OocTrace, DemoteAndFaultEmitInstantEvents) {
  if (!obs::trace_compiled()) {
    GTEST_SKIP() << "built with PBDD_TRACE=OFF";
  }
  constexpr unsigned kVars = 6;
  TempSpillDir dir;
  BddManager mgr(kVars, engine_config(TableDiscipline::kPassLock));
  const Env env = build_env(mgr, kVars, 20, 0xABCD);
  PagerConfig pc;
  pc.spill_dir = dir.path();
  LevelPager pager(mgr, pc);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start();
  pager.demote_until(0);
  mgr.ensure_all_resident();
  tracer.stop();

  bool saw_demote = false;
  bool saw_fault = false;
  for (const obs::TraceRecord& r : tracer.collect().records) {
    if (r.kind == static_cast<std::uint8_t>(obs::EventKind::kOocDemote)) {
      saw_demote = true;
    }
    if (r.kind == static_cast<std::uint8_t>(obs::EventKind::kOocFault)) {
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_demote);
  EXPECT_TRUE(saw_fault);
}

// ---------------------------------------------------------------------------
// Service governor: under memory pressure with a pager attached, the
// governor demotes cold levels instead of shedding queued work.
// ---------------------------------------------------------------------------

TEST(OocService, GovernorDemotesInsteadOfShedding) {
  TempSpillDir dir;
  service::ServiceConfig cfg;
  cfg.num_vars = 8;
  cfg.engine.workers = 2;
  cfg.queue_capacity = 16;
  // Tight enough that retained roots overflow it, loose enough that any one
  // batch's max-cut demand fits — the regime where paging (not shedding) is
  // the right lever.
  cfg.live_node_budget = 8000;
  cfg.spill_dir = dir.path();
  cfg.pager_node_budget = 0;  // governor-driven demotion only
  cfg.use_demand_estimator = true;
  service::BddService svc(cfg);

  test::ServiceWorkload wl;
  wl.sessions = 6;
  wl.requests_per_session = 20;
  wl.ops_per_request = 4;
  wl.program_seed = 77;
  wl.release_every = 0;  // never release: pressure comes from retained roots
  const test::ServiceRunResult result = test::run_service_workload(svc, wl);
  EXPECT_EQ(result.error, "");
  EXPECT_GT(result.ok, 0u);

  const service::ServiceMetrics m = svc.metrics();
  EXPECT_GT(m.ooc_demotions, 0u) << "budget never pressured the governor";
  EXPECT_EQ(m.shed, 0u) << "governor shed work it could have demoted";
  EXPECT_GT(m.demand_estimates, 0u);

  const std::string text = svc.metrics_text();
  EXPECT_NE(text.find("pbdd_service_ooc_events_total"), std::string::npos);
  EXPECT_NE(text.find("pbdd_service_ooc_bytes_total"), std::string::npos);
  EXPECT_NE(text.find("pbdd_service_demand_estimates_total"),
            std::string::npos);
}

}  // namespace
}  // namespace pbdd
