// BDD-based stuck-at fault simulation and equivalence checking.
//
// The classic combinational fault model: a net stuck at 0 or 1. For each
// fault the transitive fanout cone of the faulted net is rebuilt with the
// net replaced by a constant; everything outside the cone keeps its golden
// (fault-free) BDD, so the golden construction is paid once per circuit and
// shared across the whole campaign. A fault is *detectable* iff some primary
// output differs from golden for some input assignment — decided exactly by
// building the miter XOR(golden_out, faulty_out) per affected output,
// OR-ing the miters, and testing the fold against the zero terminal
// (canonicity makes that a constant-time comparison). A fault whose
// difference function is identically zero is *equivalent* (undetectable
// redundancy).
//
// This is the engine's best-shaped parallel workload: each fault's cone
// rebuild is independent of every other fault's, so a wave of faults is a
// stream of wide apply_batch calls (docs/FAULTSIM.md describes the
// campaign lifecycle; the service wrapper in src/service/ adds admission,
// cancellation, and metrics).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "core/bdd_manager.hpp"

namespace pbdd::fault {

enum class StuckAt : std::uint8_t { kZero = 0, kOne = 1 };

/// One faultable net: a gate output (or primary input) with its report name.
struct FaultSite {
  std::uint32_t gate = 0;
  std::string net;  ///< gate name, or "n<id>" for unnamed internal gates
};

/// Verdict for both polarities of one net. `equivalent` means the faulty
/// circuit is combinationally equivalent to the golden one — the fault is
/// undetectable by any input assignment.
struct NetFaultResult {
  std::string net;
  std::uint32_t gate = 0;
  bool sa0_equivalent = false;
  bool sa1_equivalent = false;
};

struct CampaignStats {
  std::uint64_t nets = 0;              ///< fault sites selected
  std::uint64_t nets_resolved = 0;     ///< sites with both polarities decided
  std::uint64_t faults_evaluated = 0;  ///< single-polarity faults decided
  std::uint64_t faults_detected = 0;
  std::uint64_t faults_equivalent = 0;
  std::uint64_t waves = 0;             ///< fault waves executed
  std::uint64_t batches = 0;           ///< apply_batch calls issued
  std::uint64_t cone_ops = 0;          ///< gate rebuild operations
  std::uint64_t miter_ops = 0;         ///< XOR + OR-fold operations
  std::uint64_t golden_batches = 0;    ///< batches in the golden build
  bool cancelled = false;              ///< cut short by BatchControl
  /// Per-wave worker utilization: sum of per-active-worker expansion counts
  /// over (active_workers x max per-worker count) for the wave's batches —
  /// 1.0 is a perfectly balanced wave, 1/active_workers is one worker doing
  /// everything. Sampled from the engine's ops_performed counters.
  std::vector<double> wave_utilization;
};

struct FaultSimOptions {
  /// Faults rebuilt concurrently per wave (rounded to whole nets). Each
  /// wave's per-level ops across all its faults merge into one batch — the
  /// knob that trades peak memory for batch width.
  std::size_t batch_faults = 32;
  /// Cap on fault sites; 0 = every net. Sites are sampled by a
  /// deterministic stride over the topological enumeration, so the same
  /// cap always selects the same nets.
  std::size_t max_nets = 0;
  /// Issue each wave as one dependency-carrying batch (cone rebuilds,
  /// miters, and the OR fold chained through BatchOp deps) instead of one
  /// batch per topological round. The lockstep rounds drain the worker pool
  /// at every barrier — a wave of shallow cones is mostly barrier — while
  /// the DAG form keeps every worker busy across the whole wave. Off
  /// reproduces the round-lockstep pipeline (same verdicts either way).
  bool dag_pipeline = true;
  /// Optional cooperative cancellation/deadline, polled between batches and
  /// observed mid-batch at item-claim checkpoints. On cancellation run()
  /// returns the resolved prefix and stats().cancelled is set.
  core::BatchControl* control = nullptr;
  /// Optional hook invoked after each completed wave (with the wave index).
  /// The torture harness uses it to race GC and checkpoints against the
  /// campaign; production leaves it empty.
  std::function<void(std::size_t)> wave_callback;
};

/// Enumerate the faultable nets of a circuit in deterministic (gate id)
/// order: every gate except constants, named by gate name or "n<id>". With
/// `max_nets` > 0 the list is stride-sampled down to at most that many
/// sites, still deterministically.
[[nodiscard]] std::vector<FaultSite> enumerate_fault_sites(
    const circuit::Circuit& circuit, std::size_t max_nets = 0);

/// A fault campaign over one (binarized) circuit. Builds the golden BDD of
/// every gate once, then evaluates stuck-at faults in waves. The circuit
/// and manager must outlive the campaign; like all manager entry points,
/// calls are single-threaded from outside (parallelism lives inside
/// apply_batch).
class FaultCampaign {
 public:
  /// `circuit` must be binarized (fanin <= 2); `input_vars[i]` is the BDD
  /// variable for the i-th primary input, e.g. from order_dfs.
  FaultCampaign(core::BddManager& mgr, const circuit::Circuit& circuit,
                std::vector<unsigned> input_vars);
  ~FaultCampaign();

  FaultCampaign(const FaultCampaign&) = delete;
  FaultCampaign& operator=(const FaultCampaign&) = delete;

  /// Build the golden BDDs (every gate retained). Idempotent; run() and
  /// difference_function() call it on demand.
  void build_golden();

  /// Evaluate stuck-at-0/1 for every enumerated net. Returns one result per
  /// resolved net, in enumeration order; on cancellation the vector is the
  /// resolved prefix and stats().cancelled is true.
  [[nodiscard]] std::vector<NetFaultResult> run(
      const FaultSimOptions& options = {});

  /// The Boolean difference of a single fault: OR over outputs of
  /// XOR(golden, faulty). Zero BDD iff the fault is undetectable. Reuses
  /// the shared golden BDDs.
  [[nodiscard]] core::Bdd difference_function(std::uint32_t gate,
                                              StuckAt value);

  [[nodiscard]] const CampaignStats& stats() const noexcept { return stats_; }
  /// Golden value of every gate (valid after build_golden()).
  [[nodiscard]] const std::vector<core::Bdd>& golden_values() const noexcept {
    return golden_;
  }
  /// Golden primary-output BDDs (valid after build_golden()).
  [[nodiscard]] std::vector<core::Bdd> golden_outputs() const;

 private:
  struct Cone;
  struct Job;

  // The transitive-fanout cone of a net is identical for both stuck-at
  // polarities, so it is computed once per net and shared read-only by the
  // sa0 and sa1 jobs (and any repeated difference_function calls would
  // otherwise redo the BFS + sort per fault).
  [[nodiscard]] std::shared_ptr<const Cone> make_cone(std::uint32_t gate);
  [[nodiscard]] Job make_job(std::size_t site_index,
                             std::shared_ptr<const Cone> cone,
                             bool stuck_one);
  // Each phase returns false on cancellation. A wave = advance all jobs'
  // cone rebuilds in lockstep rounds, build the output miters, OR-fold
  // them, decide detectability. run_wave dispatches to the DAG pipeline
  // (whole wave as one dependency-carrying batch) unless
  // FaultSimOptions::dag_pipeline is off.
  bool advance_cones(std::vector<Job>& jobs, const FaultSimOptions& options);
  bool build_miters(std::vector<Job>& jobs, const FaultSimOptions& options);
  bool run_wave(std::vector<Job>& jobs, const FaultSimOptions& options);
  bool run_wave_dag(std::vector<Job>& jobs, const FaultSimOptions& options);
  [[nodiscard]] bool check_cancel(const FaultSimOptions& options);

  core::BddManager& mgr_;
  const circuit::Circuit& circuit_;
  std::vector<unsigned> input_vars_;
  std::vector<core::Bdd> golden_;
  std::vector<std::vector<std::uint32_t>> fanouts_;
  std::vector<std::uint32_t> levels_;
  CampaignStats stats_;
  bool golden_built_ = false;
};

}  // namespace pbdd::fault
