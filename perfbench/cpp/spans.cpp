#include "spans.hpp"

#include <fstream>
#include <set>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_request = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

std::int64_t SpanRecorder::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::add(const Record& r) {
  std::lock_guard<std::mutex> lk(mutex_);
  records_.push_back(r);
}

std::size_t SpanRecorder::write_chrome_trace(
    const std::string& path, const std::string& process_name) const {
  std::deque<Record> records;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    records = records_;
  }
  std::set<std::uint32_t> threads;
  for (const Record& r : records) threads.insert(r.thread);

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": " +
         json_string(process_name) + "}}";
  for (const std::uint32_t tid : threads) {
    out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": " +
           json_string(tid == 1 ? "main" : "client " + std::to_string(tid)) +
           "}}";
  }
  for (const Record& r : records) {
    out += ",\n{\"name\": " + json_string(r.name) +
           ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(r.thread) +
           ", \"ts\": " + json_number(static_cast<double>(r.start_ns) / 1e3) +
           ", \"dur\": " +
           json_number(static_cast<double>(r.end_ns - r.start_ns) / 1e3) +
           ", \"args\": {\"span\": " + std::to_string(r.id) +
           ", \"parent\": " + std::to_string(r.parent) +
           ", \"request\": " + std::to_string(r.request) + "}}";
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file || !(file << out)) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  return records.size();
}

Span::Span(const char* name, std::uint64_t request) {
  SpanRecorder& rec = SpanRecorder::instance();
  if (!rec.enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.id = rec.next_id();
  rec_.parent = t_current_span;
  rec_.request = request != 0 ? request : t_current_request;
  rec_.thread = thread_index();
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = rec_.id;
  t_current_request = rec_.request;
  rec_.start_ns = rec.now_ns();
}

Span::~Span() {
  if (!active_) return;
  SpanRecorder& rec = SpanRecorder::instance();
  rec_.end_ns = rec.now_ns();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  rec.add(rec_);
}

}  // namespace perfbench
