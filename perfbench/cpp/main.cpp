// perfbench — the repository benchmark program.
//
//   perfbench --workload build|fault|service --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--work-dir DIR]
//   perfbench --list-metrics
//
// Runs one workload for about S seconds, checks every answer, and prints a
// metric table, one `perfbench-detail` JSON line (samples, ratio bases,
// nproc, host steal share, checksums) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1; spans are then written to --trace-out as a Chrome trace).
// Exit status: 0 when every check passed, 1 on a failed check, an invalid
// measurement or an error, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common.hpp"
#include "obs/trace_analysis.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload build|fault|service --seed N "
               "--seconds S --trace 0|1\n"
               "                 [--trace-out FILE] [--work-dir DIR]\n"
               "       perfbench --list-metrics\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage("bad value for " + flag + ": " + text);
  return v;
}

/// Re-read a written trace through the engine's own Chrome-trace parser
/// (the one pbdd_trace uses); returns its event count.
std::size_t validate_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return pbdd::obs::parse_chrome_trace(buf.str()).events.size();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string workload_name, trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const MetricSpec& m : metric_catalog()) {
        std::printf("%s %s %s\n", m.name, m.unit,
                    m.kind == MetricKind::kEndToEnd ? "end_to_end" : "per_layer");
      }
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      opts.seed = parse_uint(arg, value);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = static_cast<double>(parse_uint(arg, value));
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opts.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  void (*workload)(const RunOptions&, RunResult&) = nullptr;
  if (workload_name == "build") workload = run_build_workload;
  if (workload_name == "fault") workload = run_fault_workload;
  if (workload_name == "service") workload = run_service_workload;
  if (workload == nullptr) usage("unknown workload '" + workload_name + "'");
  if (opts.work_dir.empty()) {
    opts.work_dir =
        ".bench_build/perfbench-work/" + std::to_string(::getpid());
  }
  if (opts.trace && trace_out.empty()) {
    trace_out = ".bench_build/perfbench-traces/" + workload_name + "-seed" +
                std::to_string(opts.seed) + ".json";
  }

  try {
    std::filesystem::create_directories(opts.work_dir);
    const unsigned cpus = nproc();
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u workers=%u\n",
                workload_name.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, cpus, kWorkers);
    std::fflush(stdout);
    SpanRecorder::instance().set_enabled(opts.trace);

    RunResult result;
    const CpuTimes cpu_start = cpu_times();
    workload(opts, result);
    const double steal = steal_share(cpu_start, cpu_times());
    Report& report = result.report;
    report.set("bench.nproc", cpus, 1);
    report.note("workload", workload_name);
    report.note("seed", static_cast<double>(opts.seed));
    report.note("nproc", cpus);
    // Time the host gave this VM's CPUs to other guests during the run. A
    // descheduled vCPU stalls every worker at a barrier, so 4-worker times
    // from runs with a few percent of steal are not comparable.
    report.note("host_steal_share", steal);
    report.note("valid", result.valid ? "yes" : result.invalid_reason);
    const double error_rate =
        result.checks.attempted() > 0
            ? static_cast<double>(result.checks.failed()) /
                  static_cast<double>(result.checks.attempted())
            : 0.0;
    report.note("error_rate", error_rate);
    // A layer this workload does not exercise reads 0 from 0 samples.
    for (const MetricSpec& m : metric_catalog()) {
      if (m.kind == MetricKind::kLayer && !report.has(m.name)) {
        report.set(m.name, 0.0, 0);
      }
    }
    SpanRecorder::instance().set_enabled(false);
    if (opts.trace) {
      std::filesystem::create_directories(
          std::filesystem::path(trace_out).parent_path());
      const std::size_t spans = SpanRecorder::instance().write_chrome_trace(
          trace_out, "perfbench " + workload_name);
      const std::size_t parsed = validate_trace(trace_out);
      result.checks.expect(parsed == spans,
                           "trace file does not parse back to its spans");
      report.note("trace_file", trace_out);
      report.note("trace_spans", static_cast<double>(spans));
    }
    std::filesystem::remove_all(opts.work_dir);

    const MetricKind kind =
        opts.trace ? MetricKind::kLayer : MetricKind::kEndToEnd;
    const bool correct = result.valid && result.checks.failed() == 0;
    if (!result.valid) {
      std::fprintf(stderr, "perfbench: INVALID RUN: %s\n",
                   result.invalid_reason.c_str());
    }
    std::printf("%s", report.table(kind).c_str());
    std::printf("checks: %llu attempted, %llu failed, error_rate %g; "
                "host steal %.2f%%\n",
                static_cast<unsigned long long>(result.checks.attempted()),
                static_cast<unsigned long long>(result.checks.failed()),
                error_rate, steal * 100.0);
    std::printf("perfbench-detail %s\n", report.detail_json().c_str());
    std::printf("%s\n", report.result_json(kind, correct, result.checks).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    std::error_code ignored;
    std::filesystem::remove_all(opts.work_dir, ignored);
    return 1;
  }
}
