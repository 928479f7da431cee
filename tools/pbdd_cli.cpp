// pbdd — command-line driver: build the BDDs of a circuit and report.
//
//   pbdd_cli <circuit> [options]
//
//   <circuit>            a .bench netlist path or a generator spec
//                        (c2670s, c2670b, c3540s, c17, mult-N, alu-N, cmp-N, add-N,
//                        par-N, rand-N)
//   --threads N          parallel workers (default 1)
//   --seq                dedicated sequential mode (lock elision)
//   --threshold N        evaluation threshold (default 32768; 0 = pure BF)
//   --group N            steal-group size
//   --order dfs|natural  variable order (default dfs = SIS order_dfs)
//   --stats              print the engine statistics report
//   --dot FILE           write the output BDDs as Graphviz DOT
//   --counts             print per-output node counts
//   --sat                print per-output satisfying-assignment counts
//   --save FILE          checkpoint the built store to FILE (docs/FORMAT.md)
//   --trace FILE         record a per-worker event trace of the run and
//                        write Chrome-trace-event JSON (open in
//                        ui.perfetto.dev; analyze with pbdd_trace)
//   --mem-budget N       out-of-core paging: demote cold levels to disk at
//                        each batch barrier until at most N node slots stay
//                        resident (docs/OOC.md); needs --spill-dir
//   --spill-dir DIR      directory for spill segments (must exist)
//
//   pbdd_cli --load FILE [options]
//                        restore a checkpoint instead of building; the
//                        report flags above apply to the restored roots,
//                        and --threads/--save work (restore under a
//                        different worker count, re-save, ...)
//
//   pbdd_cli --inspect FILE
//                        print a snapshot's header and per-level CRC table
//                        (the column the replication tier diffs; two saves
//                        of the same function produce equal rows exactly on
//                        the levels that did not change)
//
// Examples:
//   pbdd_cli mult-12 --threads 8 --stats
//   pbdd_cli /path/C2670.bench --order dfs --counts
//   pbdd_cli mult-12 --threads 8 --save mult12.snap
//   pbdd_cli --load mult12.snap --threads 4 --counts
//   pbdd_cli --inspect mult12.snap
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "circuit/bench_io.hpp"
#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "circuit/ordering.hpp"
#include "core/bdd_manager.hpp"
#include "core/export.hpp"
#include "obs/trace.hpp"
#include "ooc/level_pager.hpp"
#include "snapshot/snapshot.hpp"
#include "util/timer.hpp"

namespace {

using namespace pbdd;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <circuit> [--threads N] [--seq] [--threshold N] "
               "[--group N]\n"
               "          [--order dfs|natural] [--stats] [--dot FILE] "
               "[--counts] [--sat] [--save FILE] [--trace FILE]\n"
               "          [--mem-budget N --spill-dir DIR]\n"
               "       %s --load FILE [--threads N] [--stats] [--dot FILE] "
               "[--counts] [--sat] [--save FILE] [--trace FILE]\n"
               "       %s --inspect FILE\n",
               argv0, argv0, argv0);
  std::exit(2);
}

circuit::Circuit load_circuit(const std::string& spec) {
  if (spec.size() > 6 && spec.substr(spec.size() - 6) == ".bench") {
    return circuit::parse_bench_file(spec);
  }
  auto num = [&](const char* prefix) {
    return static_cast<unsigned>(
        std::strtoul(spec.c_str() + std::strlen(prefix), nullptr, 10));
  };
  if (spec == "c2670s") return circuit::c2670_like();
  if (spec == "c2670b") return circuit::c2670_big();
  if (spec == "c3540s") return circuit::c3540_like();
  if (spec == "c17") return circuit::c17();
  if (spec.rfind("mult-", 0) == 0) return circuit::multiplier(num("mult-"));
  if (spec.rfind("alu-", 0) == 0) return circuit::alu(num("alu-"));
  if (spec.rfind("cmp-", 0) == 0) return circuit::comparator(num("cmp-"));
  if (spec.rfind("add-", 0) == 0) {
    return circuit::carry_select_adder(num("add-"));
  }
  if (spec.rfind("par-", 0) == 0) return circuit::parity_tree(num("par-"));
  if (spec.rfind("henc-", 0) == 0) return circuit::hamming_encoder(num("henc-"));
  if (spec.rfind("hdec-", 0) == 0) return circuit::hamming_decoder(num("hdec-"));
  if (spec.rfind("bshift-", 0) == 0) return circuit::barrel_shifter(num("bshift-"));
  if (spec.rfind("prienc-", 0) == 0) return circuit::priority_encoder(num("prienc-"));
  if (spec.rfind("rand-", 0) == 0) {
    return circuit::random_circuit(24, 600, num("rand-"));
  }
  throw std::runtime_error("unknown circuit spec '" + spec + "'");
}

struct Report {
  bool stats = false, counts = false, sat = false;
  std::string dot_path;
  std::string save_path;
};

// Shared tail of both modes: per-root report, stats, DOT, optional re-save.
void report(core::BddManager& mgr, const std::vector<core::Bdd>& outputs,
            const std::vector<std::string>& names, const Report& rep) {
  if (rep.counts || rep.sat) {
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      std::printf("  %-12s", names[o].c_str());
      if (rep.counts) std::printf(" nodes=%zu", mgr.node_count(outputs[o]));
      if (rep.sat) std::printf(" satcount=%.6g", mgr.sat_count(outputs[o]));
      std::printf("\n");
    }
  }
  if (rep.stats) core::write_stats(std::cout, mgr);
  if (!rep.dot_path.empty()) {
    std::ofstream dot(rep.dot_path);
    if (!dot) throw std::runtime_error("cannot write " + rep.dot_path);
    core::write_dot(dot, mgr, outputs, names);
    std::printf("wrote %s\n", rep.dot_path.c_str());
  }
  if (!rep.save_path.empty()) {
    std::vector<snapshot::NamedRoot> named;
    named.reserve(outputs.size());
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      named.push_back({names[o], outputs[o]});
    }
    const snapshot::SaveStats s = snapshot::save(mgr, rep.save_path, named);
    std::printf("saved %s: %llu bytes, %llu nodes, %u roots in %.1f ms\n",
                rep.save_path.c_str(),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.nodes), s.roots,
                static_cast<double>(s.total_ns) / 1e6);
  }
}

int run_inspect(const std::string& path) {
  const snapshot::LevelDirectory dir = snapshot::inspect_levels(path);
  const snapshot::SnapshotInfo& info = dir.info;
  std::printf("%s: PBDDSNAP v%u, %s%s\n", path.c_str(), info.version,
              info.export_mode() ? "export-roots" : "full-store",
              info.has_chains() ? " (+chains)" : "");
  std::printf(
      "  %u vars, %u workers, %s discipline\n"
      "  %llu nodes, %u roots, %llu file bytes "
      "(meta %llu, root table %llu @ %llu)\n",
      info.num_vars, info.workers, core::discipline_name(info.discipline),
      static_cast<unsigned long long>(info.total_nodes),
      info.root_count, static_cast<unsigned long long>(info.file_bytes),
      static_cast<unsigned long long>(dir.meta_bytes()),
      static_cast<unsigned long long>(dir.root_table_bytes),
      static_cast<unsigned long long>(dir.root_table_offset));
  std::printf("  %-5s %-12s %-12s %-10s %s\n", "level", "offset", "bytes",
              "nodes", "crc32");
  for (std::size_t v = 0; v < dir.levels.size(); ++v) {
    const snapshot::LevelDirEntry& e = dir.levels[v];
    std::printf("  %-5zu %-12llu %-12llu %-10u %08x\n", v,
                static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.byte_size), e.node_count,
                e.crc);
  }
  return 0;
}

int run_load(const std::string& path, const core::Config& config,
             const Report& rep) {
  util::WallTimer timer;
  snapshot::RestoreResult res = snapshot::restore(path, config);
  core::BddManager& mgr = *res.manager;
  std::printf(
      "restored %s in %.3fs: %u vars, %llu nodes (%u roots), "
      "%s restore, %u/%u levels chain-adopted\n",
      path.c_str(), timer.elapsed_s(), mgr.num_vars(),
      static_cast<unsigned long long>(res.stats.nodes),
      res.stats.roots, res.stats.ref_preserving ? "ref-preserving" : "rehashed",
      res.stats.levels_adopted, res.stats.levels);
  std::vector<core::Bdd> outputs;
  std::vector<std::string> names;
  for (snapshot::NamedRoot& nr : res.roots) {
    names.push_back(nr.name);
    outputs.push_back(std::move(nr.bdd));
  }
  report(mgr, outputs, names, rep);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string spec = argv[1];
  core::Config config;
  Report rep;
  std::string load_path;
  std::string trace_path;
  std::string order_kind = "dfs";
  std::string spill_dir;
  std::size_t mem_budget = 0;
  int first_opt = 2;
  if (spec == "--load") {
    if (argc < 3) usage(argv[0]);
    load_path = argv[2];
    first_opt = 3;
  } else if (spec == "--inspect") {
    if (argc != 3) usage(argv[0]);
    try {
      return run_inspect(argv[2]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  for (int i = first_opt; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--threads") {
      config.workers = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--seq") {
      config.workers = 1;
      config.sequential_mode = true;
    } else if (arg == "--threshold") {
      const auto value = std::strtoull(next().c_str(), nullptr, 10);
      config.eval_threshold =
          value == 0 ? core::Config::kUnbounded : value;
    } else if (arg == "--group") {
      config.group_size = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--order") {
      order_kind = next();
    } else if (arg == "--stats") {
      rep.stats = true;
    } else if (arg == "--counts") {
      rep.counts = true;
    } else if (arg == "--sat") {
      rep.sat = true;
    } else if (arg == "--dot") {
      rep.dot_path = next();
    } else if (arg == "--save") {
      rep.save_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--mem-budget") {
      mem_budget = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--spill-dir") {
      spill_dir = next();
    } else {
      usage(argv[0]);
    }
  }

  if (!trace_path.empty()) {
    if (!obs::trace_compiled()) {
      std::fprintf(stderr,
                   "error: --trace needs a build with -DPBDD_TRACE=ON "
                   "(this binary was compiled with tracing off)\n");
      return 2;
    }
    obs::Tracer::instance().start();
  }
  const auto finish_trace = [&] {
    if (trace_path.empty()) return;
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.stop();
    const std::size_t events = tracer.write_chrome_trace_file(trace_path);
    std::printf("wrote %s: %zu trace events from %zu threads\n",
                trace_path.c_str(), events, tracer.collect().threads);
  };

  try {
    if (!load_path.empty()) {
      const int rc = run_load(load_path, config, rep);
      finish_trace();
      return rc;
    }
    const circuit::Circuit raw = load_circuit(spec);
    const circuit::Circuit bin = raw.binarized();
    const std::vector<unsigned> order = order_kind == "natural"
                                            ? circuit::order_natural(bin)
                                            : circuit::order_dfs(bin);
    std::printf("%s: %zu gates, %zu inputs, %zu outputs (%s order)\n",
                raw.name().c_str(), raw.num_gates(), raw.inputs().size(),
                raw.outputs().size(), order_kind.c_str());

    core::BddManager mgr(static_cast<unsigned>(bin.inputs().size()), config);
    std::unique_ptr<ooc::LevelPager> pager;
    if (!spill_dir.empty()) {
      ooc::PagerConfig pc;
      pc.spill_dir = spill_dir;
      pc.node_budget = mem_budget;
      pager = std::make_unique<ooc::LevelPager>(mgr, pc);
      std::printf("paging: spill-dir=%s budget=%zu nodes\n",
                  spill_dir.c_str(), mem_budget);
    } else if (mem_budget != 0) {
      std::fprintf(stderr, "error: --mem-budget needs --spill-dir\n");
      return 2;
    }
    util::WallTimer timer;
    circuit::BuildStats build_stats;
    const std::vector<core::Bdd> outputs =
        circuit::build_parallel(mgr, bin, order, &build_stats);
    const double elapsed = timer.elapsed_s();

    std::size_t total_nodes = 0;
    for (const core::Bdd& out : outputs) total_nodes += mgr.node_count(out);
    std::printf(
        "built %zu output BDDs in %.3fs: %zu summed nodes, %zu live, "
        "%.1f MB peak, %llu ops, %llu batches, %llu collections\n",
        outputs.size(), elapsed, total_nodes, mgr.live_nodes(),
        static_cast<double>(mgr.peak_bytes()) / 1048576.0,
        static_cast<unsigned long long>(mgr.stats().total.ops_performed),
        static_cast<unsigned long long>(build_stats.batches),
        static_cast<unsigned long long>(mgr.gc_runs()));

    if (pager != nullptr) {
      const ooc::PagerStats ps = pager->stats();
      std::printf(
          "paging: %llu demotions, %llu faults (%llu prefetch hits), "
          "%.1f MB written, %.1f MB read, %llu levels on disk\n",
          static_cast<unsigned long long>(ps.demotions),
          static_cast<unsigned long long>(ps.faults),
          static_cast<unsigned long long>(ps.prefetch_hits),
          static_cast<double>(ps.bytes_written) / 1048576.0,
          static_cast<double>(ps.bytes_read) / 1048576.0,
          static_cast<unsigned long long>(ps.spilled_levels));
    }
    if (!rep.save_path.empty()) {
      mgr.gc();  // drop build intermediates so the checkpoint is tight
    }
    report(mgr, outputs, bin.output_names(), rep);
    finish_trace();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
