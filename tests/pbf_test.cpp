// Partial breadth-first engine: correctness against the truth-table oracle
// and the depth-first baseline, across construction modes (sequential,
// single worker with locking, multi-worker) and threshold settings
// (including degenerate thresholds that force deep context-stack nesting).
#include <gtest/gtest.h>

#include "core/bdd_manager.hpp"
#include "df/df_manager.hpp"
#include "oracle.hpp"

namespace pbdd {
namespace {

using core::Bdd;
using core::BddManager;
using core::Config;
using test::ExprProgram;
using test::TruthTable64;

/// Evaluate a Bdd on every assignment of `num_vars` inputs and compare with
/// the truth table.
void expect_matches_truth(BddManager& mgr, const Bdd& f,
                          const TruthTable64& truth) {
  const unsigned n = truth.num_vars();
  for (unsigned i = 0; i < (1u << n); ++i) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (unsigned v = 0; v < n; ++v) assignment[v] = (i >> v) & 1;
    ASSERT_EQ(mgr.eval(f, assignment), truth.eval(i))
        << "assignment index " << i;
  }
}

TEST(PbfBasic, ConstantsAndVariables) {
  BddManager mgr(4);
  EXPECT_TRUE(mgr.zero().is_zero());
  EXPECT_TRUE(mgr.one().is_one());
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  EXPECT_NE(x0.ref(), x1.ref());
  EXPECT_EQ(mgr.var(0).ref(), x0.ref()) << "variables must be canonical";
  const Bdd nx0 = mgr.nvar(0);
  EXPECT_EQ(mgr.not_(x0), nx0);
}

TEST(PbfBasic, SimpleConjunction) {
  BddManager mgr(3);
  const Bdd x0 = mgr.var(0);
  const Bdd x1 = mgr.var(1);
  const Bdd f = mgr.apply(Op::And, x0, x1);
  EXPECT_TRUE(mgr.eval(f, {true, true, false}));
  EXPECT_FALSE(mgr.eval(f, {true, false, false}));
  EXPECT_FALSE(mgr.eval(f, {false, true, false}));
  // Canonicity: rebuilding the same function yields the same node.
  EXPECT_EQ(mgr.apply(Op::And, x1, x0), f);
}

TEST(PbfBasic, PaperFigure1Function) {
  // f = (!b AND !c) OR (a AND b AND c)  -- wait, Figure 1 uses
  // f = (b AND c) OR (a AND !b AND !c); just check a 3-variable function
  // against its truth table directly.
  BddManager mgr(3);
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  const Bdd f =
      mgr.apply(Op::Or, mgr.apply(Op::And, b, c),
                mgr.apply(Op::And, a, mgr.apply(Op::Nor, b, c)));
  // Truth table: f = bc + a(!b)(!c)
  for (unsigned i = 0; i < 8; ++i) {
    const bool av = i & 1, bv = (i >> 1) & 1, cv = (i >> 2) & 1;
    const bool expect = (bv && cv) || (av && !bv && !cv);
    EXPECT_EQ(mgr.eval(f, {av, bv, cv}), expect) << i;
  }
}

struct ModeParam {
  const char* name;
  Config config;
};

/// Print a row as its name: ctest puts the printed parameter into every
/// discovered test name, and the raw bytes would include pointers.
void PrintTo(const ModeParam& p, std::ostream* os) { *os << p.name; }

class PbfModes : public ::testing::TestWithParam<ModeParam> {};

TEST_P(PbfModes, RandomProgramsMatchTruthTables) {
  const Config config = GetParam().config;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ExprProgram program = ExprProgram::random(5, 40, seed);
    const auto truths = program.eval_truth();
    BddManager mgr(5, config);
    const auto bdds = program.eval_engine<BddManager, Bdd>(mgr);
    ASSERT_EQ(bdds.size(), truths.size());
    for (std::size_t k = 0; k < bdds.size(); ++k) {
      expect_matches_truth(mgr, bdds[k], truths[k]);
    }
  }
}

TEST_P(PbfModes, AgreesWithDepthFirstNodeForNode) {
  const Config config = GetParam().config;
  for (std::uint64_t seed = 10; seed <= 13; ++seed) {
    const ExprProgram program = ExprProgram::random(6, 60, seed);
    BddManager mgr(6, config);
    df::DfManager oracle(6);
    const auto bdds = program.eval_engine<BddManager, Bdd>(mgr);
    const auto dfs = program.eval_engine<df::DfManager, df::DfBdd>(oracle);
    ASSERT_EQ(bdds.size(), dfs.size());
    for (std::size_t k = 0; k < bdds.size(); ++k) {
      // Reduced ordered BDDs are canonical: node counts must agree exactly.
      EXPECT_EQ(mgr.node_count(bdds[k]), oracle.node_count(dfs[k]))
          << "seed " << seed << " step " << k;
    }
  }
}

Config make_config(unsigned workers, bool seq, std::uint64_t threshold,
                   std::uint32_t group,
                   core::OverflowPolicy overflow =
                       core::OverflowPolicy::kContextStack) {
  Config c;
  c.workers = workers;
  c.sequential_mode = seq;
  c.eval_threshold = threshold;
  c.group_size = group;
  c.overflow = overflow;
  c.gc_min_nodes = 1u << 30;  // keep auto-GC out of these tests
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PbfModes,
    ::testing::Values(
        ModeParam{"seq", make_config(1, true, Config::kUnbounded, 512)},
        ModeParam{"seq_tiny_threshold", make_config(1, true, 4, 2)},
        ModeParam{"one_worker", make_config(1, false, 1u << 15, 512)},
        ModeParam{"one_worker_threshold1", make_config(1, false, 1, 1)},
        ModeParam{"two_workers", make_config(2, false, 64, 8)},
        ModeParam{"four_workers_tiny", make_config(4, false, 8, 2)},
        ModeParam{"hybrid_df_overflow",
                  make_config(1, true, 16, 8,
                              core::OverflowPolicy::kDepthFirst)},
        ModeParam{"hybrid_df_parallel",
                  make_config(2, false, 16, 8,
                              core::OverflowPolicy::kDepthFirst)},
        ModeParam{"lockfree_tables", [] {
                    Config c = make_config(4, false, 32, 4);
                    c.table_discipline = core::TableDiscipline::kLockFree;
                    return c;
                  }()},
        ModeParam{"lockfree_one_worker", [] {
                    Config c = make_config(1, false, 1u << 15, 512);
                    c.table_discipline = core::TableDiscipline::kLockFree;
                    return c;
                  }()}),
    [](const ::testing::TestParamInfo<ModeParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pbdd
