#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "circuit/builder.hpp"
#include "core/fold.hpp"

namespace pbdd::fault {

using circuit::Gate;
using circuit::GateType;
using core::BatchOp;
using core::Bdd;

std::vector<FaultSite> enumerate_fault_sites(const circuit::Circuit& circuit,
                                             std::size_t max_nets) {
  std::vector<FaultSite> sites;
  for (std::uint32_t id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    if (g.type == GateType::Const0 || g.type == GateType::Const1) continue;
    FaultSite site;
    site.gate = id;
    site.net = g.name.empty() ? "n" + std::to_string(id) : g.name;
    sites.push_back(std::move(site));
  }
  if (max_nets != 0 && sites.size() > max_nets) {
    // Deterministic stride sample: same cap -> same nets, every run.
    const std::size_t step = (sites.size() + max_nets - 1) / max_nets;
    std::vector<FaultSite> sampled;
    sampled.reserve(max_nets);
    for (std::size_t i = 0; i < sites.size(); i += step) {
      sampled.push_back(std::move(sites[i]));
    }
    sites = std::move(sampled);
  }
  return sites;
}

/// The recompute region of one fault site: the strict transitive fanout,
/// level-sorted, with per-level round ranges. Polarity-independent, so one
/// cone is shared read-only by the sa0 and sa1 jobs of a net.
struct FaultCampaign::Cone {
  std::uint32_t gate = 0;
  /// Strict transitive fanout of the site, (level, id) sorted.
  std::vector<std::uint32_t> recompute;
  /// [begin, end) ranges into `recompute`, one per topological level.
  std::vector<std::pair<std::size_t, std::size_t>> rounds;
};

/// One in-flight fault: the shared cone to rebuild, the faulty values
/// computed so far, and the output miters.
struct FaultCampaign::Job {
  std::size_t site_index = 0;
  bool stuck_one = false;
  std::shared_ptr<const Cone> cone;
  std::size_t next_round = 0;
  /// Faulty value of every cone gate built so far (site preset to the
  /// stuck constant). Gates outside the map read golden values — the fence.
  std::unordered_map<std::uint32_t, Bdd> value;
  std::vector<Bdd> miters;
  bool detected = false;
};

FaultCampaign::FaultCampaign(core::BddManager& mgr,
                             const circuit::Circuit& circuit,
                             std::vector<unsigned> input_vars)
    : mgr_(mgr), circuit_(circuit), input_vars_(std::move(input_vars)) {
  if (input_vars_.size() != circuit_.inputs().size()) {
    throw std::invalid_argument("FaultCampaign: input_vars size mismatch");
  }
  fanouts_.resize(circuit_.num_gates());
  for (std::uint32_t id = 0; id < circuit_.num_gates(); ++id) {
    const Gate& g = circuit_.gate(id);
    if (g.fanins.size() > 2) {
      throw std::invalid_argument("FaultCampaign: circuit not binarized");
    }
    for (const std::uint32_t f : g.fanins) fanouts_[f].push_back(id);
  }
  levels_ = circuit_.levels();
}

FaultCampaign::~FaultCampaign() = default;

void FaultCampaign::build_golden() {
  if (golden_built_) return;
  circuit::BuildStats build_stats;
  golden_ = circuit::build_parallel_all(mgr_, circuit_, input_vars_,
                                        &build_stats);
  stats_.golden_batches = build_stats.batches;
  golden_built_ = true;
}

std::vector<Bdd> FaultCampaign::golden_outputs() const {
  std::vector<Bdd> outs;
  outs.reserve(circuit_.outputs().size());
  for (const std::uint32_t o : circuit_.outputs()) outs.push_back(golden_[o]);
  return outs;
}

std::shared_ptr<const FaultCampaign::Cone> FaultCampaign::make_cone(
    std::uint32_t gate) {
  auto cone = std::make_shared<Cone>();
  cone->gate = gate;
  // BFS over the fanout adjacency for the strict transitive fanout.
  std::vector<char> in_cone(circuit_.num_gates(), 0);
  in_cone[gate] = 1;
  std::vector<std::uint32_t> frontier{gate};
  while (!frontier.empty()) {
    const std::uint32_t id = frontier.back();
    frontier.pop_back();
    for (const std::uint32_t out : fanouts_[id]) {
      if (!in_cone[out]) {
        in_cone[out] = 1;
        cone->recompute.push_back(out);
        frontier.push_back(out);
      }
    }
  }
  std::sort(cone->recompute.begin(), cone->recompute.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return levels_[a] != levels_[b] ? levels_[a] < levels_[b]
                                              : a < b;
            });
  for (std::size_t i = 0; i < cone->recompute.size();) {
    std::size_t j = i;
    while (j < cone->recompute.size() &&
           levels_[cone->recompute[j]] == levels_[cone->recompute[i]]) {
      ++j;
    }
    cone->rounds.emplace_back(i, j);
    i = j;
  }
  return cone;
}

FaultCampaign::Job FaultCampaign::make_job(std::size_t site_index,
                                           std::shared_ptr<const Cone> cone,
                                           bool stuck_one) {
  Job job;
  job.site_index = site_index;
  job.stuck_one = stuck_one;
  job.value.emplace(cone->gate, stuck_one ? mgr_.one() : mgr_.zero());
  job.cone = std::move(cone);
  return job;
}

// Returns true when the campaign may continue, false once the control has
// fired (and records the cancellation in stats_).
bool FaultCampaign::check_cancel(const FaultSimOptions& options) {
  if (options.control == nullptr) return true;
  if (options.control->expired() ||
      options.control->skipped.load(std::memory_order_relaxed) > 0) {
    stats_.cancelled = true;
    return false;
  }
  return true;
}

bool FaultCampaign::advance_cones(std::vector<Job>& jobs,
                                  const FaultSimOptions& options) {
  const Bdd one = mgr_.one();
  // Faulty value if the gate is in this job's cone, golden fence otherwise.
  auto fo = [&](Job& job, std::uint32_t f) -> const Bdd& {
    const auto it = job.value.find(f);
    return it != job.value.end() ? it->second : golden_[f];
  };
  for (;;) {
    if (!check_cancel(options)) return false;
    std::vector<BatchOp> batch;
    std::vector<std::pair<Job*, std::uint32_t>> targets;
    bool any_rounds_left = false;
    for (Job& job : jobs) {
      if (job.next_round >= job.cone->rounds.size()) continue;
      const auto [begin, end] = job.cone->rounds[job.next_round];
      ++job.next_round;
      if (job.next_round < job.cone->rounds.size()) any_rounds_left = true;
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint32_t id = job.cone->recompute[k];
        const Gate& g = circuit_.gate(id);
        switch (g.type) {
          case GateType::Buf:
            job.value[id] = fo(job, g.fanins[0]);
            break;
          case GateType::Not:
            batch.push_back(BatchOp{Op::Xor, fo(job, g.fanins[0]), one});
            targets.emplace_back(&job, id);
            break;
          default:
            batch.push_back(BatchOp{circuit::gate_op(g.type),
                                    fo(job, g.fanins[0]),
                                    fo(job, g.fanins[1])});
            targets.emplace_back(&job, id);
            break;
        }
      }
    }
    if (!batch.empty()) {
      std::vector<Bdd> results = mgr_.apply_batch(batch, options.control);
      ++stats_.batches;
      stats_.cone_ops += batch.size();
      if (!check_cancel(options)) return false;
      for (std::size_t k = 0; k < targets.size(); ++k) {
        targets[k].first->value[targets[k].second] = std::move(results[k]);
      }
    }
    if (!any_rounds_left) return true;
  }
}

bool FaultCampaign::build_miters(std::vector<Job>& jobs,
                                 const FaultSimOptions& options) {
  // XOR(golden, faulty) for every output inside each job's cone; outputs
  // outside the cone are untouched by the fault and trivially equal.
  std::vector<BatchOp> batch;
  std::vector<Job*> targets;
  for (Job& job : jobs) {
    for (const std::uint32_t o : circuit_.outputs()) {
      const auto it = job.value.find(o);
      if (it == job.value.end()) continue;
      batch.push_back(BatchOp{Op::Xor, golden_[o], it->second});
      targets.push_back(&job);
    }
  }
  if (!batch.empty()) {
    std::vector<Bdd> results = mgr_.apply_batch(batch, options.control);
    ++stats_.batches;
    stats_.miter_ops += batch.size();
    if (!check_cancel(options)) return false;
    for (std::size_t k = 0; k < results.size(); ++k) {
      targets[k]->miters.push_back(std::move(results[k]));
    }
  }
  // The cone values are dead once the miters exist.
  for (Job& job : jobs) job.value.clear();
  return true;
}

// The whole wave — every job's cone rebuild, output miters, and OR fold —
// issued as ONE dependency-carrying batch. The round-lockstep pipeline
// (below) drains the worker pool at a barrier per topological level; here a
// worker finishing one fault's shallow cone immediately moves on to another
// fault's miters, so the pool stays saturated across the wave.
bool FaultCampaign::run_wave_dag(std::vector<Job>& jobs,
                                 const FaultSimOptions& options) {
  if (!check_cancel(options)) return false;
  const Bdd one = mgr_.one();
  std::vector<BatchOp> batch;
  // Per-job root item of the OR fold (-1: no output in the cone).
  std::vector<std::int32_t> root(jobs.size(), -1);
  std::uint64_t cone_ops = 0;
  std::uint64_t miter_ops = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Job& job = jobs[j];
    // Batch item producing each in-cone gate (gates absent from the map and
    // from job.value read the golden fence).
    std::unordered_map<std::uint32_t, std::int32_t> item;
    item.reserve(job.cone->recompute.size() + 1);
    // Operand for a fanin: a dep on the item computing it, the job's preset
    // faulty constant, or the golden fence value.
    auto fanin_op = [&](std::uint32_t f, Bdd& h) -> std::int32_t {
      const auto it = item.find(f);
      if (it != item.end()) return it->second;
      const auto vt = job.value.find(f);
      h = vt != job.value.end() ? vt->second : golden_[f];
      return -1;
    };
    for (const std::uint32_t id : job.cone->recompute) {
      const Gate& g = circuit_.gate(id);
      switch (g.type) {
        case GateType::Buf: {
          Bdd h;
          const std::int32_t dep = fanin_op(g.fanins[0], h);
          if (dep >= 0) {
            item.emplace(id, dep);
          } else {
            job.value[id] = h;
          }
          break;
        }
        case GateType::Not: {
          BatchOp op{Op::Xor, Bdd{}, one, -1, -1};
          op.f_dep = fanin_op(g.fanins[0], op.f);
          item.emplace(id, static_cast<std::int32_t>(batch.size()));
          batch.push_back(std::move(op));
          ++cone_ops;
          break;
        }
        default: {
          BatchOp op{circuit::gate_op(g.type), Bdd{}, Bdd{}, -1, -1};
          op.f_dep = fanin_op(g.fanins[0], op.f);
          op.g_dep = fanin_op(g.fanins[1], op.g);
          item.emplace(id, static_cast<std::int32_t>(batch.size()));
          batch.push_back(std::move(op));
          ++cone_ops;
          break;
        }
      }
    }
    // Miters: XOR(golden, faulty) for every output the cone reaches, chained
    // straight onto the cone items.
    std::vector<std::int32_t> fold;
    for (const std::uint32_t o : circuit_.outputs()) {
      BatchOp op{Op::Xor, golden_[o], Bdd{}, -1, -1};
      const auto it = item.find(o);
      if (it != item.end()) {
        op.g_dep = it->second;
      } else {
        const auto vt = job.value.find(o);
        if (vt == job.value.end()) continue;  // untouched by the fault
        op.g = vt->second;
      }
      fold.push_back(static_cast<std::int32_t>(batch.size()));
      batch.push_back(std::move(op));
      ++miter_ops;
    }
    // Balanced OR fold of the miter items, still inside the same batch.
    while (fold.size() > 1) {
      std::vector<std::int32_t> next;
      next.reserve(fold.size() / 2 + 1);
      for (std::size_t i = 0; i + 1 < fold.size(); i += 2) {
        next.push_back(static_cast<std::int32_t>(batch.size()));
        batch.push_back(BatchOp{Op::Or, Bdd{}, Bdd{}, fold[i], fold[i + 1]});
        ++miter_ops;
      }
      if (fold.size() & 1) next.push_back(fold.back());
      fold = std::move(next);
    }
    if (!fold.empty()) root[j] = fold.front();
  }
  std::vector<Bdd> results;
  if (!batch.empty()) {
    results = mgr_.apply_batch(batch, options.control);
    ++stats_.batches;
    stats_.cone_ops += cone_ops;
    stats_.miter_ops += miter_ops;
    if (!check_cancel(options)) return false;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::int32_t r = root[j];
    jobs[j].detected = r >= 0 && results[static_cast<std::size_t>(r)].valid() &&
                       !results[static_cast<std::size_t>(r)].is_zero();
    jobs[j].value.clear();
  }
  return true;
}

bool FaultCampaign::run_wave(std::vector<Job>& jobs,
                             const FaultSimOptions& options) {
  if (options.dag_pipeline) return run_wave_dag(jobs, options);
  if (!advance_cones(jobs, options)) return false;
  if (!build_miters(jobs, options)) return false;
  // OR-fold every job's miters as balanced trees, all jobs per level merged
  // into one batch (the cross-job generalization of core::or_all).
  for (;;) {
    if (!check_cancel(options)) return false;
    std::vector<BatchOp> batch;
    std::vector<Job*> targets;
    for (Job& job : jobs) {
      for (std::size_t i = 0; i + 1 < job.miters.size(); i += 2) {
        batch.push_back(BatchOp{Op::Or, job.miters[i], job.miters[i + 1]});
        targets.push_back(&job);
      }
    }
    if (batch.empty()) break;
    std::vector<Bdd> results = mgr_.apply_batch(batch, options.control);
    ++stats_.batches;
    stats_.miter_ops += batch.size();
    if (!check_cancel(options)) return false;
    std::size_t k = 0;
    for (Job& job : jobs) {
      if (job.miters.size() < 2) continue;
      std::vector<Bdd> next;
      next.reserve(job.miters.size() / 2 + 1);
      for (std::size_t i = 0; i + 1 < job.miters.size(); i += 2) {
        next.push_back(std::move(results[k++]));
      }
      if (job.miters.size() & 1) next.push_back(std::move(job.miters.back()));
      job.miters = std::move(next);
    }
  }
  // Canonicity: the difference function is nonzero iff some assignment
  // distinguishes faulty from golden, and nonzero means "not the zero
  // terminal" — no graph walk needed.
  for (Job& job : jobs) {
    job.detected = !job.miters.empty() && !job.miters.front().is_zero();
    job.miters.clear();
  }
  return true;
}

std::vector<NetFaultResult> FaultCampaign::run(
    const FaultSimOptions& options) {
  build_golden();
  const std::uint64_t golden_batches = stats_.golden_batches;
  stats_ = CampaignStats{};
  stats_.golden_batches = golden_batches;

  const std::vector<FaultSite> sites =
      enumerate_fault_sites(circuit_, options.max_nets);
  stats_.nets = sites.size();
  const std::size_t sites_per_wave =
      std::max<std::size_t>(1, options.batch_faults / 2);

  std::vector<NetFaultResult> results;
  results.reserve(sites.size());
  std::size_t wave_index = 0;
  for (std::size_t begin = 0; begin < sites.size();
       begin += sites_per_wave) {
    const std::size_t end = std::min(sites.size(), begin + sites_per_wave);
    std::vector<Job> jobs;
    jobs.reserve(2 * (end - begin));
    for (std::size_t s = begin; s < end; ++s) {
      // One BFS + sort per net, shared read-only by both polarities.
      auto cone = make_cone(sites[s].gate);
      jobs.push_back(make_job(s, cone, /*stuck_one=*/false));
      jobs.push_back(make_job(s, std::move(cone), /*stuck_one=*/true));
    }
    // Per-wave utilization: expansion-count deltas across the active pool.
    const unsigned active = mgr_.active_workers();
    std::vector<std::uint64_t> ops_before(active);
    for (unsigned w = 0; w < active; ++w) {
      ops_before[w] = mgr_.worker(w).stats().ops_performed;
    }
    if (!run_wave(jobs, options)) break;
    std::uint64_t ops_sum = 0;
    std::uint64_t ops_max = 0;
    for (unsigned w = 0; w < active; ++w) {
      const std::uint64_t d =
          mgr_.worker(w).stats().ops_performed - ops_before[w];
      ops_sum += d;
      ops_max = std::max(ops_max, d);
    }
    stats_.wave_utilization.push_back(
        ops_max > 0 ? static_cast<double>(ops_sum) /
                          (static_cast<double>(active) *
                           static_cast<double>(ops_max))
                    : 1.0);
    for (std::size_t s = begin; s < end; ++s) {
      const Job& sa0 = jobs[2 * (s - begin)];
      const Job& sa1 = jobs[2 * (s - begin) + 1];
      NetFaultResult r;
      r.net = sites[s].net;
      r.gate = sites[s].gate;
      r.sa0_equivalent = !sa0.detected;
      r.sa1_equivalent = !sa1.detected;
      results.push_back(std::move(r));
      ++stats_.nets_resolved;
      stats_.faults_evaluated += 2;
      stats_.faults_detected +=
          static_cast<std::uint64_t>(sa0.detected) + sa1.detected;
      stats_.faults_equivalent +=
          static_cast<std::uint64_t>(!sa0.detected) + !sa1.detected;
    }
    ++stats_.waves;
    if (options.wave_callback) options.wave_callback(wave_index);
    ++wave_index;
  }
  return results;
}

core::Bdd FaultCampaign::difference_function(std::uint32_t gate,
                                             StuckAt value) {
  if (gate >= circuit_.num_gates()) {
    throw std::invalid_argument("difference_function: gate out of range");
  }
  const GateType t = circuit_.gate(gate).type;
  if (t == GateType::Const0 || t == GateType::Const1) {
    throw std::invalid_argument("difference_function: constant gate");
  }
  build_golden();
  FaultSimOptions options;
  std::vector<Job> jobs;
  jobs.push_back(make_job(0, make_cone(gate), value == StuckAt::kOne));
  advance_cones(jobs, options);
  build_miters(jobs, options);
  return core::or_all(mgr_, jobs.front().miters);
}

}  // namespace pbdd::fault
