// Metric catalog, percentile helper, correctness tally and result printing.
//
// Every metric the benchmark can print is declared once in the catalog with
// its unit and kind; Report refuses names that are not in it, and the
// contract test checks the catalog against BENCHMARK.json, so a printed name
// always matches the checked-in declaration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class MetricKind { kEndToEnd, kLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

[[nodiscard]] const std::vector<MetricSpec>& metric_catalog();
[[nodiscard]] const MetricSpec* find_metric(std::string_view name);

/// A tail percentile needs at least this many samples above its rank;
/// fewer, and the value is one outlier rather than a distribution's tail.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank q-quantile (0 < q < 1) of `samples`. Returns nullopt when
/// fewer than kMinTailSamples samples lie above the rank.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Like percentile(), but throws std::runtime_error naming `what` when the
/// sample count cannot support q: the workload is sized too small.
[[nodiscard]] double required_percentile(const std::vector<double>& samples,
                                         double q, const std::string& what);

/// Median of repeated whole measurements (no tail requirement). Throws on
/// an empty vector.
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double max_of(const std::vector<double>& values);

/// Outcome tally for the correctness checks a run performs. Every check
/// counts as attempted; a failed one also counts as failed and its first
/// few descriptions are printed to stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// Add another tally (a client thread's) to this one.
  void merge(const Checks& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Metric values of one run plus free-form context (nproc, checksums, ...).
class Report {
 public:
  /// Record a metric. `samples` is how many measurements the value
  /// summarizes; `base` is the denominator of a ratio. Throws on a name
  /// missing from the catalog.
  void set(const std::string& name, double value, std::uint64_t samples,
           std::optional<double> base = std::nullopt);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::vector<double>& values);

  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  /// Human-readable table of every metric of `kind` (name, value, unit,
  /// samples, base), one line each.
  [[nodiscard]] std::string table(MetricKind kind) const;
  /// One JSON object with every recorded metric (samples and bases
  /// included) and the notes.
  [[nodiscard]] std::string detail_json() const;
  /// The final result line: {"correct", "attempted", "failed", "metrics"}
  /// holding exactly the catalog's metrics of `kind`. Throws if one of
  /// them was never recorded.
  [[nodiscard]] std::string result_json(MetricKind kind, bool correct,
                                        const Checks& checks) const;

 private:
  struct Entry {
    double value = 0;
    std::uint64_t samples = 0;
    std::optional<double> base;
  };
  std::map<std::string, Entry> values_;
  std::map<std::string, std::string> notes_;  ///< already JSON-encoded
};

/// JSON number with all significant digits (non-finite values become 0).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace perfbench
