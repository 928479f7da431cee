// Workload `fault`: a stuck-at campaign (fault::FaultCampaign, DAG
// pipeline) over mult-8 with a stride sample of 56 nets — 112 faults in 4
// waves of dependency-carrying batches over a golden store kept for the
// whole campaign. It drives the same core as `build` through a different
// path: in-batch dependency stalls and the shared completed-results cache
// instead of level barriers and garbage collection.
//
// A run repeats [1 worker, 4w, 4w]. Each repetition constructs the
// circuit, manager and campaign (the set-up), builds the golden BDDs, runs
// the campaign and renders the SHA-sealed report. Every report must verify
// and be byte-identical to the 1-worker one, and the golden outputs' node
// counts must match it too. The workload's own calls give the latency
// metrics: each 4-worker FaultCampaign::run call is a build, and each
// golden checksum (node_count of every golden output) is a read.
#include <optional>

#include "circuit/generators.hpp"
#include "common.hpp"
#include "fault/fault.hpp"
#include "fault/report.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace pbdd;

namespace {

constexpr unsigned kMultiplierBits = 8;
constexpr std::size_t kMaxNets = 56;

}  // namespace

void run_fault_workload(const RunOptions& opts, RunResult& out) {
  Report& report = out.report;
  Checks& checks = out.checks;
  Budget budget(opts.seconds);
  OverheadProbe probe(opts.trace);

  std::vector<double> setup_s, wall_s, seq_s, rss_mb, golden_s, campaign_s;
  std::vector<double> waves, batches, cone_ops, miter_ops, util_mean, util_min;
  std::vector<double> run_ms, read_ms;
  std::vector<CoreSample> cores;
  std::string reference_report;
  std::uint64_t reference_checksum = 0;
  double slowest_par = 0, slowest_seq = 0;

  for (std::size_t rep = 0;; ++rep) {
    const bool single = rep % 3 == 0;
    if (rep >= 3 && !budget.allows(single ? slowest_seq : slowest_par)) break;
    reset_memory_high_water();
    const Clock::time_point rep_start = Clock::now();
    const bool traced = single ? (probe.begin_unmeasured(), false)
                               : probe.begin_measured();
    Span rep_span(single ? "fault.reference" : "fault.parallel",
                  SpanRecorder::instance().next_request());

    Clock::time_point t0 = Clock::now();
    std::optional<Span> setup_span(std::in_place, "fault.setup");
    const PreparedCircuit pc =
        prepare_circuit(circuit::multiplier(kMultiplierBits), opts.seed);
    core::BddManager mgr(static_cast<unsigned>(pc.circuit.inputs().size()),
                         engine_config(single ? 1 : kWorkers));
    fault::FaultCampaign campaign(mgr, pc.circuit, pc.order);
    setup_s.push_back(seconds_since(t0));
    setup_span.reset();

    t0 = Clock::now();
    {
      Span span("fault.build_golden");
      campaign.build_golden();
    }
    const double golden = seconds_since(t0);
    fault::FaultSimOptions fopts;
    fopts.max_nets = kMaxNets;
    t0 = Clock::now();
    std::vector<fault::NetFaultResult> results;
    {
      Span span("fault.run");
      results = campaign.run(fopts);
    }
    const double run = seconds_since(t0);

    fault::ReportInfo info;
    info.circuit = pc.circuit.name();
    info.inputs = pc.circuit.inputs().size();
    info.outputs = pc.circuit.outputs().size();
    info.gates = pc.circuit.num_gates();
    info.total_nets = fault::enumerate_fault_sites(pc.circuit).size();
    info.reported_nets = results.size();
    const std::string text = fault::render_report(info, results);
    std::string error;
    checks.expect(fault::verify_report(text, &error),
                  "fault report fails its SHA-256 self-check: " + error);
    const std::size_t sampled = info.total_nets < kMaxNets
                                    ? info.total_nets
                                    : fault::enumerate_fault_sites(
                                          pc.circuit, kMaxNets).size();
    checks.expect(results.size() == sampled,
                  "campaign resolved " + std::to_string(results.size()) +
                      " of " + std::to_string(sampled) + " sampled nets");
    if (reference_report.empty()) reference_report = text;
    checks.expect(text == reference_report,
                  std::string(single ? "1-worker" : "4-worker") +
                      " report differs from the first repetition's");

    t0 = Clock::now();
    const std::uint64_t checksum =
        node_count_checksum(mgr, campaign.golden_outputs());
    const double read = seconds_since(t0);
    if (reference_checksum == 0) reference_checksum = checksum;
    checks.expect(checksum == reference_checksum,
                  std::string(single ? "1-worker" : "4-worker") +
                      " golden node counts differ from the first repetition's");
    if (single) {
      seq_s.push_back(golden + run);
      slowest_seq = std::max(slowest_seq, seconds_since(rep_start));
      continue;
    }
    probe.end_measured(traced, golden + run);
    wall_s.push_back(golden + run);
    golden_s.push_back(golden);
    campaign_s.push_back(run);
    run_ms.push_back(run * 1e3);
    read_ms.push_back(read * 1e3);
    rss_mb.push_back(peak_rss_mb());
    cores.push_back(sample_core(mgr));
    const fault::CampaignStats& st = campaign.stats();
    waves.push_back(static_cast<double>(st.waves));
    batches.push_back(static_cast<double>(st.batches));
    cone_ops.push_back(static_cast<double>(st.cone_ops));
    miter_ops.push_back(static_cast<double>(st.miter_ops));
    if (!st.wave_utilization.empty()) {
      double sum = 0;
      for (const double u : st.wave_utilization) sum += u;
      util_mean.push_back(sum /
                          static_cast<double>(st.wave_utilization.size()));
      util_min.push_back(*std::min_element(st.wave_utilization.begin(),
                                           st.wave_utilization.end()));
    }
    slowest_par = std::max(slowest_par, seconds_since(rep_start));
  }

  const double wall = median(wall_s);
  const double seq = median(seq_s);
  report.note("report_sha256",
              reference_report.substr(reference_report.rfind(' ') + 1, 64));
  report.set("setup_s", median(setup_s), setup_s.size());
  report.note("wall_s_reps", wall_s);
  report.note("seq_s_reps", seq_s);
  report.set("wall_s", wall, wall_s.size());
  report.set("seq_s", seq, seq_s.size());
  report.note("golden_checksum", std::to_string(reference_checksum));
  report.note("peak_rss_mb_reps", rss_mb);
  report.set("peak_rss_mb", median(rss_mb), rss_mb.size());
  set_call_metrics(report, run_ms, read_ms);
  set_core_metrics(report, cores, seq / wall);
  check_parallelism(cores, out);
  report.set("fault.golden_s", median(golden_s), golden_s.size());
  report.set("fault.campaign_s", median(campaign_s), campaign_s.size());
  report.set("fault.waves", median(waves), waves.size());
  report.set("fault.batches", median(batches), batches.size());
  report.set("fault.cone_ops", median(cone_ops), cone_ops.size());
  report.set("fault.miter_ops", median(miter_ops), miter_ops.size());
  if (!util_mean.empty()) {
    report.set("fault.wave_util_mean", median(util_mean), util_mean.size());
    report.set("fault.wave_util_min", median(util_min), util_min.size());
  }
  probe.report(report);
}

}  // namespace perfbench
