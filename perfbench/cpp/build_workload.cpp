// Workload `build`: every output of the generated mult-11 multiplier
// (order_dfs), built with circuit::build_parallel at 4 workers and in the
// paper's Seq configuration — the paper's Fig. 7/8 experiment.
//
// A run repeats [Seq, 4w, 4w] until its time budget is spent. Every
// repetition builds everything anew (circuit generation, binarize, order_dfs,
// manager construction: the set-up), then checks the node-count checksum of
// the outputs. The workload's own calls give the latency metrics: each
// 4-worker build_parallel call is a build, and each checksum (node_count of
// every output) is a read.
#include <optional>

#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace pbdd;

namespace {

constexpr unsigned kMultiplierBits = 11;
/// node_count_checksum of mult-11's outputs; identical for every seed.
constexpr std::uint64_t kRecordedChecksum = 8602299074367396904ULL;

}  // namespace

std::uint64_t build_recorded_checksum() { return kRecordedChecksum; }

std::uint64_t build_workload_checksum(std::uint64_t seed) {
  const PreparedCircuit pc =
      prepare_circuit(circuit::multiplier(kMultiplierBits), seed);
  core::BddManager mgr(static_cast<unsigned>(pc.circuit.inputs().size()),
                       engine_config(kWorkers));
  const std::vector<core::Bdd> outputs =
      circuit::build_parallel(mgr, pc.circuit, pc.order);
  return node_count_checksum(mgr, outputs);
}

void run_build_workload(const RunOptions& opts, RunResult& out) {
  Report& report = out.report;
  Checks& checks = out.checks;
  Budget budget(opts.seconds);
  OverheadProbe probe(opts.trace);

  std::vector<double> setup_s, wall_s, seq_s, rss_mb, batches, gate_ops;
  std::vector<double> build_ms, read_ms;
  std::vector<CoreSample> cores;
  double slowest_par = 0, slowest_seq = 0;

  for (std::size_t rep = 0;; ++rep) {
    const bool seq = rep % 3 == 0;
    if (rep >= 3 && !budget.allows(seq ? slowest_seq : slowest_par)) break;
    reset_memory_high_water();
    const Clock::time_point rep_start = Clock::now();
    const bool traced = seq ? (probe.begin_unmeasured(), false)
                            : probe.begin_measured();
    Span rep_span(seq ? "build.seq" : "build.parallel",
                  SpanRecorder::instance().next_request());

    Clock::time_point t0 = Clock::now();
    std::optional<Span> setup_span(std::in_place, "build.setup");
    PreparedCircuit pc =
        prepare_circuit(circuit::multiplier(kMultiplierBits), opts.seed);
    core::BddManager mgr(static_cast<unsigned>(pc.circuit.inputs().size()),
                         engine_config(seq ? 1 : kWorkers, seq));
    setup_s.push_back(seconds_since(t0));
    setup_span.reset();

    circuit::BuildStats stats;
    std::vector<core::Bdd> outputs;
    t0 = Clock::now();
    {
      Span span("circuit.build_parallel");
      outputs = circuit::build_parallel(mgr, pc.circuit, pc.order, &stats);
    }
    const double wall = seconds_since(t0);

    t0 = Clock::now();
    const std::uint64_t checksum = node_count_checksum(mgr, outputs);
    const double read = seconds_since(t0);
    report.note("checksum", std::to_string(checksum));
    checks.expect(checksum == kRecordedChecksum,
                  std::string(seq ? "Seq" : "4-worker") +
                      " checksum " + std::to_string(checksum) +
                      " != recorded " + std::to_string(kRecordedChecksum));
    if (seq) {
      seq_s.push_back(wall);
      slowest_seq = std::max(slowest_seq, seconds_since(rep_start));
      continue;
    }
    probe.end_measured(traced, wall);
    wall_s.push_back(wall);
    build_ms.push_back(wall * 1e3);
    read_ms.push_back(read * 1e3);
    rss_mb.push_back(peak_rss_mb());
    cores.push_back(sample_core(mgr));
    batches.push_back(static_cast<double>(stats.batches));
    gate_ops.push_back(static_cast<double>(stats.gate_ops));
    slowest_par = std::max(slowest_par, seconds_since(rep_start));
  }

  const double wall = median(wall_s);
  const double seq = median(seq_s);
  report.set("setup_s", median(setup_s), setup_s.size());
  report.note("wall_s_reps", wall_s);
  report.note("seq_s_reps", seq_s);
  report.set("wall_s", wall, wall_s.size());
  report.set("seq_s", seq, seq_s.size());
  report.note("peak_rss_mb_reps", rss_mb);
  report.set("peak_rss_mb", median(rss_mb), rss_mb.size());
  set_call_metrics(report, build_ms, read_ms);
  set_core_metrics(report, cores, seq / wall);
  check_parallelism(cores, out);
  report.set("circuit.batches", median(batches), batches.size());
  report.set("circuit.gate_ops", median(gate_ops), gate_ops.size());
  probe.report(report);
}

}  // namespace perfbench
