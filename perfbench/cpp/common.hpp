// Shared pieces of the three workloads: run options, the time budget,
// process memory and CPU-steal readings, seeded circuit preparation, engine
// configuration and core-counter sampling.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "core/bdd_manager.hpp"
#include "report.hpp"
#include "util/prng.hpp"

namespace perfbench {

/// Engine width of every measured configuration (the reference machine's
/// core count): 4 workers, all of them allowed to claim work.
inline constexpr unsigned kWorkers = 4;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string work_dir;  ///< temporary files (snapshots, replica state)
};

/// What a workload hands back to main().
struct RunResult {
  Report report;
  Checks checks;
  /// False when the measurement itself is not meaningful (an active
  /// worker did no work); the run then fails like a wrong answer.
  bool valid = true;
  std::string invalid_reason;
};

void run_build_workload(const RunOptions& opts, RunResult& out);
void run_fault_workload(const RunOptions& opts, RunResult& out);
void run_service_workload(const RunOptions& opts, RunResult& out);

/// The `build` workload's circuit for `seed`, built once at 4 workers;
/// returns node_count_checksum of its outputs.
[[nodiscard]] std::uint64_t build_workload_checksum(std::uint64_t seed);
/// The checksum every seed of `build` must produce.
[[nodiscard]] std::uint64_t build_recorded_checksum();

// ---- Time ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// num / den, or 0 for an empty base.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// The run's measurement window. A repetition is started only when the
/// slowest earlier repetition of its kind would still end inside it.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  [[nodiscard]] bool allows(double expected_s) const {
    return seconds_since(start_) + expected_s <= seconds_;
  }

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
};

// ---- Process ---------------------------------------------------------------

/// Hand memory freed by the last repetition back to the OS and restart the
/// kernel's high-water RSS mark (VmHWM) from the current RSS, so every
/// repetition starts from the same heap, pays its own page faults, and
/// peak_rss_mb() afterwards covers that repetition alone.
void reset_memory_high_water();
/// High-water resident set size (VmHWM) since the last
/// reset_memory_high_water(), in MiB.
[[nodiscard]] double peak_rss_mb();
/// CPUs this process may run on.
[[nodiscard]] unsigned nproc();

/// Aggregate CPU time of the machine from /proc/stat, in clock ticks.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;  ///< time the hypervisor ran another guest
};
[[nodiscard]] CpuTimes cpu_times();
/// Share of CPU time stolen by the host between two readings.
[[nodiscard]] double steal_share(const CpuTimes& from, const CpuTimes& to);

// ---- Seeded inputs -----------------------------------------------------------

/// Stream of pseudo-random numbers for one purpose of one run.
[[nodiscard]] pbdd::util::Xoshiro256 seeded_rng(std::uint64_t seed,
                                                std::uint64_t salt);

/// A binarized circuit whose inputs have a seeded polarity: exactly half of
/// the primary inputs pass through an inverter. Negating an input maps
/// every BDD onto one with the same node count, so all seeds do the same
/// engine work and share one node-count checksum.
struct PreparedCircuit {
  pbdd::circuit::Circuit base;     ///< binarized, before the inverters
  pbdd::circuit::Circuit circuit;  ///< what the engine builds
  std::vector<unsigned> order;     ///< order_dfs of `base`, per input
  std::vector<bool> negated;       ///< per input position
};

[[nodiscard]] PreparedCircuit prepare_circuit(
    const pbdd::circuit::Circuit& raw, std::uint64_t seed);

/// FNV-1a over the node counts of `outputs`: equal for every worker count
/// and every seed of one circuit.
[[nodiscard]] std::uint64_t node_count_checksum(
    pbdd::core::BddManager& mgr, const std::vector<pbdd::core::Bdd>& outputs);

/// `workers` workers, all of them active; with `sequential`, the paper's
/// Seq configuration (one worker, unique-table locking elided, eager GC).
[[nodiscard]] pbdd::core::Config engine_config(unsigned workers,
                                               bool sequential = false);

// ---- Core counters -----------------------------------------------------------

/// One manager's counters after a measured section. Phase times are the
/// maximum over active workers, never the per-worker sum.
struct CoreSample {
  double expansions = 0, nodes_created = 0;
  double cache_lookups = 0, cache_hits = 0, shared_hits = 0;
  double expansion_s = 0, reduction_s = 0, lock_wait_s = 0;
  double reduction_stalls = 0, batch_dep_stalls = 0, cas_retries = 0;
  double groups_stolen = 0, groups_created = 0;
  double imbalance = 0;  ///< max / mean expansions per active worker
  double gc_runs = 0, gc_s = 0, gc_mark_s = 0, gc_fix_s = 0, gc_rehash_s = 0;
  double peak_store_mb = 0;
  unsigned active_workers = 0;
  unsigned idle_active_workers = 0;  ///< active workers with 0 expansions
};

[[nodiscard]] CoreSample sample_core(const pbdd::core::BddManager& mgr);

/// Record the core.* metrics as medians over `samples` (one per measured
/// repetition) plus core.speedup = seq_s / wall_s.
void set_core_metrics(Report& report, const std::vector<CoreSample>& samples,
                      double speedup);

/// Mark the run invalid if any sampled manager had an idle active worker.
void check_parallelism(const std::vector<CoreSample>& samples,
                       RunResult& out);

/// Timings of a workload's own calls, one sample per call, in
/// milliseconds. On `build` and `fault` the end-to-end latency metrics come
/// from these: a run makes only a few such calls, too few for a tail
/// percentile, so the _p50 metric is their median and the _p99 metric
/// their maximum (the slowest call of the run).
void set_call_metrics(Report& report, const std::vector<double>& build_ms,
                      const std::vector<double>& read_ms);

// ---- Tracing overhead --------------------------------------------------------

/// In a traced run, spans are recorded on every other measured repetition,
/// so one run yields the tracing overhead: traced vs plain wall time.
class OverheadProbe {
 public:
  explicit OverheadProbe(bool trace) : trace_(trace) {}
  /// Enable or disable span recording for the next measured repetition;
  /// returns whether it is traced.
  bool begin_measured();
  /// Re-enable recording for an unmeasured section (traced runs only).
  void begin_unmeasured() const;
  void end_measured(bool traced, double wall_s);
  /// bench.trace_overhead = median traced / median plain wall time - 1.
  void report(Report& report) const;

 private:
  bool trace_;
  std::size_t count_ = 0;
  std::vector<double> traced_, plain_;
};

}  // namespace perfbench
