#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kLayer;

// Keep in step with BENCHMARK.json (tests/test_contract.py checks both ways).
const std::vector<MetricSpec> kCatalog = {
    // End to end: what a user of the engine, the fault simulator or the
    // service sees. Printed by every plain run of every workload.
    {"setup_s", "s", E},
    {"wall_s", "s", E},
    {"seq_s", "s", E},
    {"peak_rss_mb", "MiB", E},
    {"build_p50_ms", "ms", E},
    {"build_p99_ms", "ms", E},
    {"read_p50_ms", "ms", E},
    {"read_p99_ms", "ms", E},
    // Per layer, printed by traced runs. A layer a workload does not use
    // reads 0 with 0 samples.
    {"bench.nproc", "count", L},
    {"bench.trace_overhead", "ratio", L},
    {"core.expansions", "count", L},
    {"core.nodes_created", "count", L},
    {"core.cache_hit_ratio", "ratio", L},
    {"core.shared_hit_ratio", "ratio", L},
    {"core.expansion_s", "s", L},
    {"core.reduction_s", "s", L},
    {"core.lock_wait_s", "s", L},
    {"core.reduction_stalls", "count", L},
    {"core.batch_dep_stalls", "count", L},
    {"core.cas_retries", "count", L},
    {"core.groups_stolen", "count", L},
    {"core.steal_ratio", "ratio", L},
    {"core.imbalance", "ratio", L},
    {"core.gc_runs", "count", L},
    {"core.gc_s", "s", L},
    {"core.gc_mark_s", "s", L},
    {"core.gc_fix_s", "s", L},
    {"core.gc_rehash_s", "s", L},
    {"core.peak_store_mb", "MiB", L},
    {"core.active_workers", "count", L},
    {"core.speedup", "ratio", L},
    {"circuit.batches", "count", L},
    {"circuit.gate_ops", "count", L},
    {"fault.golden_s", "s", L},
    {"fault.campaign_s", "s", L},
    {"fault.waves", "count", L},
    {"fault.batches", "count", L},
    {"fault.cone_ops", "count", L},
    {"fault.miter_ops", "count", L},
    {"fault.wave_util_mean", "ratio", L},
    {"fault.wave_util_min", "ratio", L},
    {"service.queue_p50_ms", "ms", L},
    {"service.queue_p99_ms", "ms", L},
    {"service.exec_p50_ms", "ms", L},
    {"service.exec_p99_ms", "ms", L},
    {"service.batches", "count", L},
    {"service.ops_per_batch", "ratio", L},
    {"service.deferrals", "count", L},
    {"service.governor_gcs", "count", L},
    {"service.rejected", "count", L},
    {"snapshot.saves", "count", L},
    {"snapshot.save_p50_ms", "ms", L},
    {"snapshot.save_max_ms", "ms", L},
    {"snapshot.pause_p95_ms", "ms", L},
    {"snapshot.bytes_per_save", "bytes", L},
    {"replica.ships", "count", L},
    {"replica.ship_p50_ms", "ms", L},
    {"replica.ship_max_ms", "ms", L},
    {"replica.bytes_per_ship", "bytes", L},
    {"replica.delta_ratio", "ratio", L},
    {"replica.splice_ratio", "ratio", L},
    {"replica.naks", "count", L},
    {"router.replica_read_ratio", "ratio", L},
    {"router.failovers", "count", L},
    {"router.stale_fallbacks", "count", L},
    {"router.unknown_root", "count", L},
};

}  // namespace

const std::vector<MetricSpec>& metric_catalog() { return kCatalog; }

const MetricSpec* find_metric(std::string_view name) {
  for (const MetricSpec& m : kCatalog) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0) || samples.empty()) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (n - (index + 1) < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double required_percentile(const std::vector<double>& samples, double q,
                           const std::string& what) {
  const std::optional<double> v = percentile(samples, q);
  if (!v) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: %zu samples cannot support the %.0fth percentile",
                  what.c_str(), samples.size(), q * 100.0);
    throw std::runtime_error(buf);
  }
  return *v;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double max_of(const std::vector<double>& values) {
  if (values.empty()) throw std::runtime_error("max of no values");
  return *std::max_element(values.begin(), values.end());
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

void Report::set(const std::string& name, double value, std::uint64_t samples,
                 std::optional<double> base) {
  if (find_metric(name) == nullptr) {
    throw std::logic_error("metric not in the catalog: " + name);
  }
  values_[name] = Entry{value, samples, base};
}

void Report::note(const std::string& key, const std::string& value) {
  notes_[key] = json_string(value);
}

void Report::note(const std::string& key, double value) {
  notes_[key] = json_number(value);
}

void Report::note(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    out += (out.size() > 1 ? ", " : "") + json_number(v);
  }
  notes_[key] = out + "]";
}

std::string Report::table(MetricKind kind) const {
  std::string out;
  for (const MetricSpec& m : kCatalog) {
    if (m.kind != kind) continue;
    const auto it = values_.find(m.name);
    if (it == values_.end()) continue;
    char line[200];
    std::snprintf(line, sizeof line, "  %-28s %14.6g %-6s n=%llu", m.name,
                  it->second.value, m.unit,
                  static_cast<unsigned long long>(it->second.samples));
    out += line;
    if (it->second.base) {
      std::snprintf(line, sizeof line, " base=%.0f", *it->second.base);
      out += line;
    }
    out += '\n';
  }
  return out;
}

std::string Report::detail_json() const {
  std::string out = "{\"notes\": {";
  bool first = true;
  for (const auto& [k, v] : notes_) {
    out += (first ? "" : ", ") + json_string(k) + ": " + v;
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const MetricSpec& m : kCatalog) {
    const auto it = values_.find(m.name);
    if (it == values_.end()) continue;
    out += (first ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(it->second.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(it->second.samples);
    if (it->second.base) out += ", \"base\": " + json_number(*it->second.base);
    out += "}";
    first = false;
  }
  return out + "}}";
}

std::string Report::result_json(MetricKind kind, bool correct,
                                const Checks& checks) const {
  std::string metrics;
  for (const MetricSpec& m : kCatalog) {
    if (m.kind != kind) continue;
    const auto it = values_.find(m.name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("metric never recorded: ") + m.name);
    }
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + json_number(it->second.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(checks.attempted()) +
         ", \"failed\": " + std::to_string(checks.failed()) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
