// The benchmark's own span recorder: one span per call into a layer (name,
// start, end, parent span, request id, thread), kept in memory and written
// at exit as a Chrome trace that Perfetto and `pbdd_trace` load.
//
// Spans are recorded only while the recorder is enabled (`--trace 1`); a
// disabled Span costs one relaxed load. Tracing inside the engine itself is
// not involved.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Record {
    const char* name;  ///< string literal
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root span
    std::uint64_t request;
    std::uint32_t thread;
    std::int64_t start_ns;  ///< relative to the recorder's origin
    std::int64_t end_ns;
  };

  static SpanRecorder& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Write every record as Chrome trace JSON ("X" events, microseconds).
  /// Returns the number of span events written; throws on I/O failure.
  std::size_t write_chrome_trace(const std::string& path,
                                 const std::string& process_name) const;

  /// A fresh id for a logical request (shared by all spans it causes).
  std::uint64_t next_request() noexcept {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  friend class Span;
  SpanRecorder() = default;
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t now_ns() const noexcept;
  void add(const Record& r);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_request_{1};
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::deque<Record> records_;  ///< guarded by mutex_; never relocates
};

/// RAII span. Nested spans on one thread become children; a span started
/// with request 0 inherits its parent's request id.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecorder::Record rec_{};
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

}  // namespace perfbench
