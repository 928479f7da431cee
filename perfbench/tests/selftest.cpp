// Self-tests of the benchmark's own machinery: the percentile guard, the
// seeded polarity transform, and seed invariance of the `build` checksum.
// The metric catalog is checked against BENCHMARK.json by test_contract.py.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "circuit/generators.hpp"
#include "common.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyondTheRank) {
  // p99 of 1000 samples sits at rank 990: exactly 10 samples above it.
  EXPECT_EQ(percentile(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile(ramp(999), 0.99).has_value());
  // p50 needs 20 samples for 10 above the median rank.
  EXPECT_EQ(percentile(ramp(20), 0.50), 10.0);
  EXPECT_FALSE(percentile(ramp(19), 0.50).has_value());
  EXPECT_FALSE(percentile({}, 0.50).has_value());
  EXPECT_THROW((void)required_percentile(ramp(100), 0.99, "test"),
               std::runtime_error);
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = ramp(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.99), 1980.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Report, RefusesNamesOutsideTheCatalog) {
  Report report;
  EXPECT_THROW(report.set("no_such_metric", 1.0, 1), std::logic_error);
  report.set("wall_s", 1.5, 3);
  EXPECT_TRUE(report.has("wall_s"));
  // The result line refuses to go out with an end-to-end metric missing.
  EXPECT_THROW((void)report.result_json(MetricKind::kEndToEnd, true, Checks{}),
               std::logic_error);
}

TEST(PreparedCircuit, NegatesHalfTheInputsAndMatchesSimulation) {
  const PreparedCircuit pc =
      prepare_circuit(pbdd::circuit::multiplier(4), 7);
  std::size_t negated = 0;
  for (const bool b : pc.negated) negated += b ? 1 : 0;
  EXPECT_EQ(negated, pc.base.inputs().size() / 2);
  EXPECT_EQ(pc.circuit.num_gates(), pc.base.num_gates() + negated);
  for (unsigned word = 0; word < 256; ++word) {
    std::vector<bool> in(pc.circuit.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = ((word >> i) & 1) != 0;
    std::vector<bool> flipped(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      flipped[i] = in[i] != pc.negated[i];
    }
    EXPECT_EQ(pc.circuit.simulate(in), pc.base.simulate(flipped));
  }
  EXPECT_NE(prepare_circuit(pbdd::circuit::multiplier(4), 8).negated,
            pc.negated);
}

TEST(BuildWorkload, TwoSeedsGiveTheRecordedChecksum) {
  const std::uint64_t a = build_workload_checksum(1);
  const std::uint64_t b = build_workload_checksum(2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, build_recorded_checksum());
}

}  // namespace
}  // namespace perfbench
