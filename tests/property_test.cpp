// Property-based sweeps over the core engine's structural invariants:
// canonicity (no duplicate (var, low, high) anywhere), reducedness
// (low != high for every node), variable ordering (a node's children sit at
// strictly lower-precedence variables), unique-table chain integrity, and
// conservation properties of the statistics, across a grid of seeds,
// worker counts, and thresholds.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "circuit/ordering.hpp"
#include "core/bdd_manager.hpp"
#include "oracle.hpp"

namespace pbdd {
namespace {

using core::Bdd;
using core::BddManager;
using core::Config;
using core::NodeRef;
using test::ExprProgram;

/// Walk every allocated node of every worker arena and check the structural
/// invariants of a reduced ordered BDD store.
void check_store_invariants(BddManager& mgr) {
  std::set<std::tuple<unsigned, NodeRef, NodeRef>> seen;
  for (unsigned w = 0; w < mgr.workers(); ++w) {
    for (unsigned v = 0; v < mgr.num_vars(); ++v) {
      const core::NodeArena& arena = mgr.worker(w).node_arena(v);
      for (std::uint32_t slot = 0; slot < arena.size(); ++slot) {
        const core::BddNode& n = arena.at(slot);
        // Skip tombstones: speculative slots a lock-free insert lost and
        // returned to the arena's free list (dead by construction).
        if (n.low == core::kInvalid && n.high == core::kInvalid) continue;
        // Reducedness.
        ASSERT_NE(n.low, n.high)
            << "unreduced node at w" << w << " v" << v << " s" << slot;
        // Ordering: children strictly below.
        ASSERT_GT(core::level_of(n.low), v);
        ASSERT_GT(core::level_of(n.high), v);
        // Children references point at allocated slots.
        for (const NodeRef child : {n.low, n.high}) {
          if (!core::is_terminal(child)) {
            ASSERT_LT(core::slot_of(child),
                      mgr.worker(core::worker_of(child))
                          .node_arena(core::var_of(child))
                          .size());
          }
        }
        // Canonicity across ALL workers' arenas.
        ASSERT_TRUE(seen.insert({v, n.low, n.high}).second)
            << "duplicate (var,low,high) at w" << w << " v" << v;
      }
    }
  }
}

struct GridParam {
  std::uint64_t seed;
  unsigned workers;
  std::uint64_t threshold;
  core::TableDiscipline discipline = core::TableDiscipline::kPassLock;
};

/// The row's test name, e.g. "seed7_w2_t16_s1_lockfree". The "_s1" is the
/// stripe count rows used to vary; every row now runs one table per
/// variable, and the suffix stays so the test names stay the same.
std::string grid_name(const GridParam& p) {
  return "seed" + std::to_string(p.seed) + "_w" + std::to_string(p.workers) +
         "_t" +
         (p.threshold == Config::kUnbounded ? std::string("inf")
                                            : std::to_string(p.threshold)) +
         "_s1" +
         (p.discipline == core::TableDiscipline::kLockFree ? "_lockfree" : "");
}

class InvariantGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(InvariantGrid, RandomProgramsKeepStoreInvariants) {
  const GridParam p = GetParam();
  Config config;
  config.workers = p.workers;
  config.eval_threshold = p.threshold;
  config.group_size = 8;
  config.gc_min_nodes = 1u << 30;
  config.table_discipline = p.discipline;
  BddManager mgr(8, config);
  const ExprProgram program = ExprProgram::random(8, 120, p.seed);
  auto bdds = program.eval_engine<BddManager, Bdd>(mgr);
  check_store_invariants(mgr);

  // Canonicity also means: rebuilding any function is a no-op.
  const std::size_t nodes_before = mgr.live_nodes();
  auto again = program.eval_engine<BddManager, Bdd>(mgr);
  EXPECT_EQ(mgr.live_nodes(), nodes_before);
  for (std::size_t k = 0; k < bdds.size(); ++k) {
    EXPECT_EQ(bdds[k].ref(), again[k].ref());
  }
}

TEST_P(InvariantGrid, InvariantsHoldAfterGc) {
  const GridParam p = GetParam();
  Config config;
  config.workers = p.workers;
  config.eval_threshold = p.threshold;
  config.group_size = 8;
  config.gc_min_nodes = 1u << 30;
  config.table_discipline = p.discipline;
  BddManager mgr(8, config);
  const ExprProgram program = ExprProgram::random(8, 120, p.seed + 1000);
  auto bdds = program.eval_engine<BddManager, Bdd>(mgr);
  bdds.resize(bdds.size() / 2);  // kill half the roots
  mgr.gc();
  check_store_invariants(mgr);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantGrid,
    ::testing::Values(
        GridParam{1, 1, Config::kUnbounded}, GridParam{2, 1, 16},
        GridParam{3, 2, 64}, GridParam{4, 2, 4}, GridParam{5, 4, 32},
        GridParam{6, 4, Config::kUnbounded},
        // Lock-free discipline: same invariants must hold, including after a
        // collection compacts away any tombstoned speculative slots.
        GridParam{7, 2, 16, core::TableDiscipline::kLockFree},
        GridParam{8, 4, 32, core::TableDiscipline::kLockFree},
        GridParam{9, 4, Config::kUnbounded, core::TableDiscipline::kLockFree}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return grid_name(info.param);
    });

TEST(Properties, NodeCountsAreOrderInsensitiveForCommutativeOps) {
  BddManager mgr(8);
  const ExprProgram program = ExprProgram::random(8, 60, 5);
  const auto bdds = program.eval_engine<BddManager, Bdd>(mgr);
  for (const Op op : {Op::And, Op::Or, Op::Xor, Op::Nand, Op::Nor, Op::Xnor}) {
    const Bdd ab = mgr.apply(op, bdds[10], bdds[20]);
    const Bdd ba = mgr.apply(op, bdds[20], bdds[10]);
    EXPECT_EQ(ab.ref(), ba.ref()) << op_name(op);
  }
}

TEST(Properties, DeMorganAndFriends) {
  BddManager mgr(8);
  const ExprProgram program = ExprProgram::random(8, 40, 13);
  const auto bdds = program.eval_engine<BddManager, Bdd>(mgr);
  const Bdd& f = bdds[30];
  const Bdd& g = bdds[35];
  // NOT(f AND g) == NAND(f, g) == (NOT f) OR (NOT g)
  EXPECT_EQ(mgr.not_(mgr.apply(Op::And, f, g)), mgr.apply(Op::Nand, f, g));
  EXPECT_EQ(mgr.apply(Op::Nand, f, g),
            mgr.apply(Op::Or, mgr.not_(f), mgr.not_(g)));
  // f XOR g == (f OR g) AND NOT(f AND g)
  EXPECT_EQ(mgr.apply(Op::Xor, f, g),
            mgr.apply(Op::Diff, mgr.apply(Op::Or, f, g),
                      mgr.apply(Op::And, f, g)));
  // Implication: f -> g == NOT f OR g
  EXPECT_EQ(mgr.apply(Op::Implies, f, g),
            mgr.apply(Op::Or, mgr.not_(f), g));
  // Double negation.
  EXPECT_EQ(mgr.not_(mgr.not_(f)), f);
}

TEST(Properties, ShannonExpansionIdentity) {
  // f == ITE(x, f|x=1, f|x=0) for every variable.
  BddManager mgr(6);
  const ExprProgram program = ExprProgram::random(6, 50, 17);
  const Bdd f = program.eval_engine<BddManager, Bdd>(mgr).back();
  for (unsigned v = 0; v < 6; ++v) {
    const Bdd rebuilt = mgr.ite(mgr.var(v), mgr.restrict_(f, v, true),
                                mgr.restrict_(f, v, false));
    EXPECT_EQ(rebuilt.ref(), f.ref()) << "variable " << v;
  }
}

TEST(Properties, QuantifierDuality) {
  // forall x. f == NOT exists x. NOT f
  BddManager mgr(6);
  const ExprProgram program = ExprProgram::random(6, 50, 23);
  const Bdd f = program.eval_engine<BddManager, Bdd>(mgr).back();
  const std::vector<unsigned> vars{1, 4};
  const Bdd lhs = mgr.forall(f, vars);
  const Bdd rhs = mgr.not_(mgr.exists(mgr.not_(f), vars));
  EXPECT_EQ(lhs.ref(), rhs.ref());
}

TEST(Properties, SatCountConsistentWithQuantification) {
  // satcount(f) = satcount(f|x=0) + satcount(f|x=1) for any x, halved per
  // the shared variable space.
  BddManager mgr(6);
  const ExprProgram program = ExprProgram::random(6, 50, 29);
  const Bdd f = program.eval_engine<BddManager, Bdd>(mgr).back();
  const double total = mgr.sat_count(f);
  for (unsigned v = 0; v < 6; ++v) {
    const double c0 = mgr.sat_count(mgr.restrict_(f, v, false));
    const double c1 = mgr.sat_count(mgr.restrict_(f, v, true));
    EXPECT_DOUBLE_EQ(total, (c0 + c1) / 2.0) << "variable " << v;
  }
}

TEST(Properties, CircuitChecksumStableAcrossConfigurations) {
  // The benchmark harness relies on this: same circuit, any engine
  // configuration, identical per-output node counts.
  const auto bin = circuit::c3540_like().binarized();
  const auto order = circuit::order_dfs(bin);
  std::vector<std::size_t> reference;
  for (const GridParam p :
       {GridParam{0, 1, Config::kUnbounded}, GridParam{0, 2, 1u << 10},
        GridParam{0, 4, 1u << 8}}) {
    Config config;
    config.workers = p.workers;
    config.eval_threshold = p.threshold;
    BddManager mgr(static_cast<unsigned>(bin.inputs().size()), config);
    const auto outputs = circuit::build_parallel(mgr, bin, order);
    std::vector<std::size_t> counts;
    for (const Bdd& o : outputs) counts.push_back(mgr.node_count(o));
    if (reference.empty()) {
      reference = counts;
    } else {
      EXPECT_EQ(counts, reference);
    }
  }
}

}  // namespace
}  // namespace pbdd
