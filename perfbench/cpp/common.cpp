#include "common.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "circuit/ordering.hpp"
#include "spans.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace pbdd;

void reset_memory_high_water() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

CpuTimes cpu_times() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double steal_share(const CpuTimes& from, const CpuTimes& to) {
  return ratio(static_cast<double>(to.steal - from.steal),
               static_cast<double>(to.total - from.total));
}

util::Xoshiro256 seeded_rng(std::uint64_t seed, std::uint64_t salt) {
  return util::Xoshiro256(util::mix64(seed * 0x9e3779b97f4a7c15ULL ^ salt));
}

PreparedCircuit prepare_circuit(const circuit::Circuit& raw,
                                std::uint64_t seed) {
  PreparedCircuit pc;
  pc.base = raw.binarized();
  pc.order = circuit::order_dfs(pc.base);

  const std::size_t n = pc.base.inputs().size();
  std::vector<std::size_t> positions(n);
  std::iota(positions.begin(), positions.end(), 0);
  util::Xoshiro256 rng = seeded_rng(seed, 0x706f6c61726974ULL);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(positions[i - 1], positions[rng.below(i)]);
  }
  pc.negated.assign(n, false);
  for (std::size_t i = 0; i < n / 2; ++i) pc.negated[positions[i]] = true;

  // Rebuild in gate-id order (which is topological), putting an inverter
  // right after each negated input and rewiring its fanouts to it.
  circuit::Circuit& out = pc.circuit;
  out.set_name(pc.base.name());
  std::vector<std::uint32_t> map(pc.base.num_gates());
  std::size_t input_pos = 0;
  for (std::uint32_t id = 0; id < pc.base.num_gates(); ++id) {
    const circuit::Gate& g = pc.base.gate(id);
    if (g.type == circuit::GateType::Input) {
      map[id] = out.add_input(g.name);
      if (pc.negated[input_pos]) {
        map[id] = out.add_gate(circuit::GateType::Not, {map[id]});
      }
      ++input_pos;
      continue;
    }
    std::vector<std::uint32_t> fanins;
    fanins.reserve(g.fanins.size());
    for (const std::uint32_t f : g.fanins) fanins.push_back(map[f]);
    map[id] = out.add_gate(g.type, std::move(fanins), g.name);
  }
  for (std::size_t k = 0; k < pc.base.outputs().size(); ++k) {
    out.mark_output(map[pc.base.outputs()[k]], pc.base.output_names()[k]);
  }
  if (input_pos != n) {
    throw std::runtime_error("prepare_circuit: inputs not in gate-id order");
  }
  return pc;
}

std::uint64_t node_count_checksum(core::BddManager& mgr,
                                  const std::vector<core::Bdd>& outputs) {
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const core::Bdd& out : outputs) {
    checksum = (checksum ^ mgr.node_count(out)) * 0x100000001b3ULL;
  }
  return checksum;
}

core::Config engine_config(unsigned workers, bool sequential) {
  core::Config config;
  config.workers = workers;
  config.max_active_workers = workers;
  config.sequential_mode = sequential;
  return config;
}

CoreSample sample_core(const core::BddManager& mgr) {
  const core::ManagerStats st = mgr.stats();
  CoreSample s;
  const core::WorkerStats& t = st.total;
  s.expansions = static_cast<double>(t.ops_performed);
  s.nodes_created = static_cast<double>(t.nodes_created);
  s.cache_lookups = static_cast<double>(t.cache_lookups);
  s.cache_hits = static_cast<double>(t.cache_hits);
  s.shared_hits = static_cast<double>(t.cache_shared_hits);
  s.reduction_stalls = static_cast<double>(t.reduction_stalls);
  s.batch_dep_stalls = static_cast<double>(t.batch_dep_stalls);
  s.cas_retries = static_cast<double>(t.cas_retries);
  s.groups_stolen = static_cast<double>(t.groups_stolen);
  s.groups_created = static_cast<double>(t.groups_created);
  s.gc_runs = static_cast<double>(st.gc_runs);
  s.peak_store_mb = static_cast<double>(mgr.peak_bytes()) / (1024.0 * 1024.0);
  s.active_workers = std::min<unsigned>(
      mgr.active_workers(), static_cast<unsigned>(st.per_worker.size()));

  double max_ops = 0, sum_ops = 0;
  for (unsigned w = 0; w < st.per_worker.size(); ++w) {
    const core::WorkerStats& ws = st.per_worker[w];
    // Stop-the-world collection runs on every worker, active or not.
    s.gc_s = std::max(s.gc_s, util::ns_to_s(ws.gc_ns));
    s.gc_mark_s = std::max(s.gc_mark_s, util::ns_to_s(ws.gc_mark_ns));
    s.gc_fix_s = std::max(s.gc_fix_s, util::ns_to_s(ws.gc_fix_ns));
    s.gc_rehash_s = std::max(s.gc_rehash_s, util::ns_to_s(ws.gc_rehash_ns));
    if (w >= s.active_workers) continue;
    s.expansion_s = std::max(s.expansion_s, util::ns_to_s(ws.expansion_ns));
    s.reduction_s = std::max(s.reduction_s, util::ns_to_s(ws.reduction_ns));
    s.lock_wait_s = std::max(s.lock_wait_s, util::ns_to_s(ws.lock_wait_ns));
    const auto ops = static_cast<double>(ws.ops_performed);
    max_ops = std::max(max_ops, ops);
    sum_ops += ops;
    if (ws.ops_performed == 0) ++s.idle_active_workers;
  }
  const double mean_ops = s.active_workers > 0 ? sum_ops / s.active_workers : 0;
  s.imbalance = mean_ops > 0 ? max_ops / mean_ops : 0;
  return s;
}

namespace {

double median_of(const std::vector<CoreSample>& samples,
                 double CoreSample::*field) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const CoreSample& s : samples) v.push_back(s.*field);
  return median(v);
}

}  // namespace

void set_core_metrics(Report& report, const std::vector<CoreSample>& samples,
                      double speedup) {
  const std::uint64_t n = samples.size();
  const auto med = [&](double CoreSample::*field) {
    return median_of(samples, field);
  };
  const auto put = [&](const char* name, double CoreSample::*field) {
    report.set(name, med(field), n);
  };
  put("core.expansions", &CoreSample::expansions);
  put("core.nodes_created", &CoreSample::nodes_created);

  std::vector<double> hit, shared, steal, private_misses;
  for (const CoreSample& s : samples) {
    hit.push_back(ratio(s.cache_hits, s.cache_lookups));
    private_misses.push_back(s.cache_lookups - s.cache_hits);
    shared.push_back(ratio(s.shared_hits, s.cache_lookups - s.cache_hits));
    steal.push_back(ratio(s.groups_stolen, s.groups_created));
  }
  report.set("core.cache_hit_ratio", median(hit), n,
             med(&CoreSample::cache_lookups));
  report.set("core.shared_hit_ratio", median(shared), n,
             median(private_misses));
  put("core.expansion_s", &CoreSample::expansion_s);
  put("core.reduction_s", &CoreSample::reduction_s);
  put("core.lock_wait_s", &CoreSample::lock_wait_s);
  put("core.reduction_stalls", &CoreSample::reduction_stalls);
  put("core.batch_dep_stalls", &CoreSample::batch_dep_stalls);
  put("core.cas_retries", &CoreSample::cas_retries);
  put("core.groups_stolen", &CoreSample::groups_stolen);
  report.set("core.steal_ratio", median(steal), n,
             med(&CoreSample::groups_created));
  put("core.imbalance", &CoreSample::imbalance);
  put("core.gc_runs", &CoreSample::gc_runs);
  put("core.gc_s", &CoreSample::gc_s);
  put("core.gc_mark_s", &CoreSample::gc_mark_s);
  put("core.gc_fix_s", &CoreSample::gc_fix_s);
  put("core.gc_rehash_s", &CoreSample::gc_rehash_s);
  put("core.peak_store_mb", &CoreSample::peak_store_mb);
  std::vector<double> active;
  for (const CoreSample& s : samples) active.push_back(s.active_workers);
  report.set("core.active_workers", median(active), n);
  report.set("core.speedup", speedup, n);
}

void check_parallelism(const std::vector<CoreSample>& samples,
                       RunResult& out) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].idle_active_workers > 0 && out.valid) {
      out.valid = false;
      out.invalid_reason =
          "repetition " + std::to_string(i) + ": " +
          std::to_string(samples[i].idle_active_workers) + " of " +
          std::to_string(samples[i].active_workers) +
          " active workers did zero expansions";
    }
  }
}

bool OverheadProbe::begin_measured() {
  const bool traced = trace_ && count_++ % 2 == 0;
  SpanRecorder::instance().set_enabled(traced);
  return traced;
}

void OverheadProbe::begin_unmeasured() const {
  SpanRecorder::instance().set_enabled(trace_);
}

void OverheadProbe::end_measured(bool traced, double wall_s) {
  (traced ? traced_ : plain_).push_back(wall_s);
  SpanRecorder::instance().set_enabled(trace_);
}

void OverheadProbe::report(Report& report) const {
  if (traced_.empty() || plain_.empty()) {
    report.set("bench.trace_overhead", 0.0, 0);
    return;
  }
  report.set("bench.trace_overhead", median(traced_) / median(plain_) - 1.0,
             traced_.size() + plain_.size());
}

void set_call_metrics(Report& report, const std::vector<double>& build_ms,
                      const std::vector<double>& read_ms) {
  report.set("build_p50_ms", median(build_ms), build_ms.size());
  report.set("build_p99_ms", max_of(build_ms), build_ms.size());
  report.set("read_p50_ms", median(read_ms), read_ms.size());
  report.set("read_p99_ms", max_of(read_ms), read_ms.size());
}

}  // namespace perfbench
