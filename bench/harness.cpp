#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "circuit/bench_io.hpp"
#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "circuit/ordering.hpp"
#include "core/stats_metrics.hpp"
#include "util/timer.hpp"

namespace pbdd::bench {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\n"
               "flags: --circuits a,b,c  --threads 1,2,4,8  --no-seq\n"
               "       --threshold N  --group N  --cache-log2 N  --gc-min N\n"
               "       --discipline passlock|lockfree  --csv\n"
               "       --json PATH  --warmup N  --repeat N\n"
               "circuit specs: c2670s c2670b c3540s c17 mult-N alu-N cmp-N "
               "add-N par-N rand-N or a .bench file path\n",
               message.c_str());
  std::exit(2);
}

}  // namespace

Cli parse_cli(int argc, char** argv,
              std::vector<std::string> default_circuits) {
  Cli cli;
  cli.circuit_specs = std::move(default_circuits);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--circuits") {
      cli.circuit_specs = split(next(), ',');
    } else if (arg == "--threads") {
      cli.thread_counts.clear();
      for (const std::string& t : split(next(), ',')) {
        cli.thread_counts.push_back(
            static_cast<unsigned>(std::strtoul(t.c_str(), nullptr, 10)));
      }
    } else if (arg == "--no-seq") {
      cli.include_seq = false;
    } else if (arg == "--threshold") {
      cli.eval_threshold = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--group") {
      cli.group_size =
          static_cast<std::uint32_t>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--cache-log2") {
      cli.cache_log2 =
          static_cast<unsigned>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--gc-min") {
      cli.gc_min_nodes = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--discipline") {
      const std::string d = next();
      if (!core::parse_discipline(d, cli.discipline)) {
        usage_error("unknown discipline " + d);
      }
    } else if (arg == "--warmup") {
      cli.warmup =
          static_cast<unsigned>(std::strtoul(next().c_str(), nullptr, 10));
    } else if (arg == "--repeat") {
      cli.repeat = std::max(
          1u, static_cast<unsigned>(std::strtoul(next().c_str(), nullptr, 10)));
    } else if (arg == "--csv") {
      cli.csv = true;
    } else if (arg == "--json") {
      cli.json_path = next();
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (cli.circuit_specs.empty()) usage_error("no circuits selected");
  if (cli.thread_counts.empty()) usage_error("no thread counts selected");
  return cli;
}

namespace {

unsigned suffix_number(const std::string& spec, const std::string& prefix) {
  return static_cast<unsigned>(
      std::strtoul(spec.substr(prefix.size()).c_str(), nullptr, 10));
}

circuit::Circuit make_circuit(const std::string& spec) {
  if (spec == "c2670s") return circuit::c2670_like();
  if (spec == "c2670b") return circuit::c2670_big();
  if (spec == "c3540s") return circuit::c3540_like();
  if (spec == "c17") return circuit::c17();
  if (spec.rfind("mult-", 0) == 0) {
    return circuit::multiplier(suffix_number(spec, "mult-"));
  }
  if (spec.rfind("alu-", 0) == 0) {
    return circuit::alu(suffix_number(spec, "alu-"));
  }
  if (spec.rfind("cmp-", 0) == 0) {
    return circuit::comparator(suffix_number(spec, "cmp-"));
  }
  if (spec.rfind("add-", 0) == 0) {
    return circuit::carry_select_adder(suffix_number(spec, "add-"));
  }
  if (spec.rfind("par-", 0) == 0) {
    return circuit::parity_tree(suffix_number(spec, "par-"));
  }
  if (spec.rfind("henc-", 0) == 0) {
    return circuit::hamming_encoder(suffix_number(spec, "henc-"));
  }
  if (spec.rfind("hdec-", 0) == 0) {
    return circuit::hamming_decoder(suffix_number(spec, "hdec-"));
  }
  if (spec.rfind("bshift-", 0) == 0) {
    return circuit::barrel_shifter(suffix_number(spec, "bshift-"));
  }
  if (spec.rfind("prienc-", 0) == 0) {
    return circuit::priority_encoder(suffix_number(spec, "prienc-"));
  }
  if (spec.rfind("rand-", 0) == 0) {
    const unsigned seed = suffix_number(spec, "rand-");
    return circuit::random_circuit(24, 600, seed);
  }
  if (spec.size() > 6 && spec.substr(spec.size() - 6) == ".bench") {
    return circuit::parse_bench_file(spec);
  }
  throw std::runtime_error("unknown circuit spec '" + spec + "'");
}

}  // namespace

Workload make_workload(const std::string& spec) {
  Workload w;
  const circuit::Circuit raw = make_circuit(spec);
  w.name = raw.name();
  w.binarized = raw.binarized();
  w.order = circuit::order_dfs(w.binarized);
  w.num_vars = static_cast<unsigned>(w.binarized.inputs().size());
  return w;
}

std::vector<Workload> make_workloads(const Cli& cli) {
  std::vector<Workload> result;
  result.reserve(cli.circuit_specs.size());
  for (const std::string& spec : cli.circuit_specs) {
    result.push_back(make_workload(spec));
  }
  return result;
}

core::Config config_for(const Cli& cli, unsigned workers, bool sequential) {
  core::Config config;
  config.workers = sequential ? 1 : workers;
  config.sequential_mode = sequential;
  config.eval_threshold = cli.eval_threshold;
  config.group_size = cli.group_size;
  config.cache_log2 = cli.cache_log2;
  config.gc_min_nodes = cli.gc_min_nodes;
  config.table_discipline = cli.discipline;
  // Benchmarks measure the algorithm, not the scheduler: never run more
  // ready workers than the machine has hardware threads. On a host with
  // fewer cores than the sweep's largest worker count, the extra workers
  // park (Config::max_active_workers) instead of convoying on the pass
  // locks, so oversized points degrade to parity rather than to thrash.
  config.max_active_workers = std::max(1u, std::thread::hardware_concurrency());
  return config;
}

RunResult run_build(const Workload& workload, const core::Config& config) {
  core::BddManager mgr(workload.num_vars, config);
  util::WallTimer timer;
  const std::vector<core::Bdd> outputs =
      circuit::build_parallel(mgr, workload.binarized, workload.order);
  RunResult result;
  result.elapsed_s = timer.elapsed_s();
  result.peak_mb = static_cast<double>(mgr.peak_bytes()) / (1024.0 * 1024.0);
  result.stats = mgr.stats();
  result.total_ops = result.stats.total.ops_performed;
  result.gc_runs = mgr.gc_runs();
  result.final_live_nodes = mgr.live_nodes();
  result.registry = std::make_shared<obs::Registry>();
  core::publish_stats(result.stats, *result.registry,
                      {.per_worker = true, .per_var = true});
  // Canonicity checksum: order-sensitive mix of per-output node counts.
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const core::Bdd& out : outputs) {
    checksum = (checksum ^ mgr.node_count(out)) * 0x100000001b3ULL;
  }
  result.checksum = checksum;
  return result;
}

RunResult run_build_repeated(const Workload& workload,
                             const core::Config& config, unsigned warmup,
                             unsigned repeat) {
  for (unsigned i = 0; i < warmup; ++i) {
    (void)run_build(workload, config);
  }
  RunResult best = run_build(workload, config);
  for (unsigned i = 1; i < repeat; ++i) {
    RunResult r = run_build(workload, config);
    if (r.checksum != best.checksum) {
      throw std::runtime_error("run_build_repeated: checksum varies across "
                               "repeats on " + workload.name);
    }
    // Min-of-N: the least-disturbed run is the best estimate of the
    // algorithm's cost; the others measure the machine's noise.
    if (r.elapsed_s < best.elapsed_s) best = std::move(r);
  }
  return best;
}

std::string config_label(const core::Config& config) {
  return config.sequential_mode ? "Seq" : std::to_string(config.workers);
}

}  // namespace pbdd::bench
