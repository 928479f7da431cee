// Shared infrastructure for the paper-figure benchmark harnesses.
//
// Every fig* binary reproduces one table/figure from Section 4 of the paper
// over the same four workloads (two ISCAS-class circuits and two generated
// multipliers). Default multiplier widths are reduced from the paper's
// 13/14 so a full figure regenerates in minutes on a laptop; pass
// "--circuits mult-13,mult-14" for paper scale, or point --circuits at real
// ISCAS85 .bench files.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "core/bdd_manager.hpp"
#include "core/config.hpp"
#include "obs/metrics.hpp"

namespace pbdd::bench {

struct Workload {
  std::string name;
  circuit::Circuit binarized;
  std::vector<unsigned> order;  ///< order_dfs variable assignment
  unsigned num_vars = 0;
};

struct Cli {
  std::vector<std::string> circuit_specs;  // names, mult-N, or .bench paths
  std::vector<unsigned> thread_counts{1, 2, 4, 8};
  bool include_seq = true;
  std::uint64_t eval_threshold = core::Config{}.eval_threshold;
  std::uint32_t group_size = core::Config{}.group_size;
  unsigned cache_log2 = core::Config{}.cache_log2;
  std::size_t gc_min_nodes = core::Config{}.gc_min_nodes;
  core::TableDiscipline discipline = core::Config{}.table_discipline;
  bool csv = false;
  std::string json_path;  ///< when set, fig binaries dump results as JSON
  unsigned warmup = 0;    ///< discarded runs before measuring
  unsigned repeat = 1;    ///< measured runs per point; min is reported
};

/// Parse the common flags:
///   --circuits a,b,c   workload list (default c2670s,c3540s,mult-10,mult-11)
///   --threads 1,2,4,8  parallel worker counts
///   --no-seq           skip the dedicated sequential configuration
///   --threshold N      evaluation threshold
///   --group N          steal-group size
///   --cache-log2 N     per-worker compute-cache size
///   --discipline D     unique-table locking: passlock, lockfree
///   --csv              machine-readable output in addition to tables
///   --json PATH        dump results as JSON (fig07_08_elapsed)
///   --warmup N         discarded runs per point before measuring
///   --repeat N         measured runs per point (the minimum is reported)
/// Unknown flags abort with a usage message.
Cli parse_cli(int argc, char** argv,
              std::vector<std::string> default_circuits = {
                  "c2670s", "c3540s", "mult-10", "mult-11"});

/// Resolve one circuit spec: "c2670s" / "c3540s" / "c17" / "mult-N" /
/// "alu-N" / "cmp-N" / "add-N" / a path ending in ".bench". The result is
/// binarized and paired with its order_dfs variable order.
Workload make_workload(const std::string& spec);

std::vector<Workload> make_workloads(const Cli& cli);

/// Engine configuration for one measurement point.
core::Config config_for(const Cli& cli, unsigned workers, bool sequential);

struct RunResult {
  double elapsed_s = 0;
  double peak_mb = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t gc_runs = 0;
  std::size_t final_live_nodes = 0;
  core::ManagerStats stats;
  /// Engine counters published as metric series (core::publish_stats with
  /// per-worker and per-variable detail). The figure harnesses read their
  /// phase/lock breakdowns from here rather than poking ManagerStats fields,
  /// exercising the same names an external scrape would see.
  std::shared_ptr<obs::Registry> registry;
  /// Checksum over output node counts: identical functions across
  /// configurations must produce identical checksums (canonicity), so every
  /// benchmark doubles as a correctness check.
  std::uint64_t checksum = 0;
};

/// Build all output BDDs of the workload under the given configuration and
/// collect the measurements the paper reports.
RunResult run_build(const Workload& workload, const core::Config& config);

/// run_build with `warmup` discarded runs followed by `repeat` measured
/// runs; returns the fastest measured run (min-of-N rejects scheduler and
/// cache noise, the standard protocol for shared machines). Throws if the
/// canonicity checksum varies across repeats.
RunResult run_build_repeated(const Workload& workload,
                             const core::Config& config, unsigned warmup,
                             unsigned repeat);

/// "Seq" or the worker count, formatted as the paper's row labels.
std::string config_label(const core::Config& config);

}  // namespace pbdd::bench
