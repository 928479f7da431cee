// pbdd_fault — stuck-at fault simulation / equivalence checking driver.
//
//   pbdd_fault <circuit> [options]
//
//   <circuit>            a .bench netlist path or a generator spec
//                        (c2670s, c2670b, c3540s, c17, mult-N, add-N, lfsr-N, ...)
//   --workers N          parallel workers (default 1)
//   --discipline D       unique-table discipline: passlock|lockfree
//   --batch N            faults rebuilt concurrently per wave (default 32)
//   --max-nets N         deterministic sample cap on fault sites (0 = all)
//   --threshold N        evaluation threshold (0 = pure BF)
//   --out FILE           write the report to FILE instead of stdout
//   --verify FILE        regenerate the report and require it to be
//                        byte-identical to FILE (the golden); also checks
//                        both SHA-256 footers. Exit 1 on any difference.
//   --stats              print campaign statistics to stderr
//
// The report (docs/FAULTSIM.md) is a pure function of the circuit and
// --max-nets: byte-identical for any --workers / --discipline / --batch,
// which is what the goldens under tests/goldens/ pin down in CI.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "circuit/bench_io.hpp"
#include "circuit/generators.hpp"
#include "circuit/ordering.hpp"
#include "core/bdd_manager.hpp"
#include "fault/fault.hpp"
#include "fault/report.hpp"

namespace {

using namespace pbdd;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <circuit> [--workers N] [--discipline D] "
               "[--batch N] [--max-nets N]\n"
               "          [--threshold N] [--out FILE] [--verify FILE] "
               "[--stats]\n",
               argv0);
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
  if (spec.rfind("henc-", 0) == 0) {
    return circuit::hamming_encoder(num("henc-"));
  }
  if (spec.rfind("hdec-", 0) == 0) {
    return circuit::hamming_decoder(num("hdec-"));
  }
  if (spec.rfind("bshift-", 0) == 0) {
    return circuit::barrel_shifter(num("bshift-"));
  }
  if (spec.rfind("prienc-", 0) == 0) {
    return circuit::priority_encoder(num("prienc-"));
  }
  if (spec.rfind("shreg-", 0) == 0) {
    return circuit::shift_register(num("shreg-"));
  }
  if (spec.rfind("lfsr-", 0) == 0) {
    const unsigned bits = num("lfsr-");
    return circuit::lfsr(bits, {bits - 1, bits - 2});
  }
  if (spec.rfind("gray-", 0) == 0) return circuit::gray_counter(num("gray-"));
  if (spec.rfind("rand-", 0) == 0) {
    return circuit::random_circuit(24, 600, num("rand-"));
  }
  throw std::runtime_error("unknown circuit spec '" + spec + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string spec = argv[1];
  core::Config config;
  fault::FaultSimOptions fopts;
  std::string out_path;
  std::string verify_path;
  bool print_stats = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workers" || arg == "--threads") {
      config.workers = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--discipline") {
      const std::string d = next();
      if (!core::parse_discipline(d, config.table_discipline)) {
        std::fprintf(stderr, "unknown discipline '%s'\n", d.c_str());
        usage(argv[0]);
      }
    } else if (arg == "--batch") {
      fopts.batch_faults = std::strtoul(next().c_str(), nullptr, 10);
      if (fopts.batch_faults == 0) usage(argv[0]);
    } else if (arg == "--max-nets") {
      fopts.max_nets = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--max-active") {
      config.max_active_workers = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--shared-cache") {
      config.shared_cache_log2 = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--shared-levels") {
      config.shared_cache_levels = std::strtoul(next().c_str(), nullptr, 10);
    } else if (arg == "--threshold") {
      const auto value = std::strtoull(next().c_str(), nullptr, 10);
      config.eval_threshold = value == 0 ? core::Config::kUnbounded : value;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--verify") {
      verify_path = next();
    } else if (arg == "--stats") {
      print_stats = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage(argv[0]);
    }
  }

  try {
    const circuit::Circuit raw = load_circuit(spec);
    const circuit::Circuit bin = raw.binarized();
    const std::vector<unsigned> order = circuit::order_dfs(bin);

    std::string report;
    {
      core::BddManager mgr(static_cast<unsigned>(bin.inputs().size()),
                           config);
      fault::FaultCampaign campaign(mgr, bin, order);
      const std::vector<fault::NetFaultResult> results =
          campaign.run(fopts);

      fault::ReportInfo info;
      info.circuit = bin.name();
      info.inputs = bin.inputs().size();
      info.outputs = bin.outputs().size();
      info.gates = bin.num_gates();
      info.total_nets = fault::enumerate_fault_sites(bin).size();
      info.reported_nets = results.size();
      report = fault::render_report(info, results);

      if (print_stats) {
        const fault::CampaignStats& s = campaign.stats();
        std::fprintf(stderr,
                     "%s: %llu nets, %llu faults (%llu detected, %llu "
                     "equivalent), %llu waves, %llu batches (%llu golden), "
                     "%llu cone ops, %llu miter ops\n",
                     bin.name().c_str(),
                     static_cast<unsigned long long>(s.nets),
                     static_cast<unsigned long long>(s.faults_evaluated),
                     static_cast<unsigned long long>(s.faults_detected),
                     static_cast<unsigned long long>(s.faults_equivalent),
                     static_cast<unsigned long long>(s.waves),
                     static_cast<unsigned long long>(s.batches),
                     static_cast<unsigned long long>(s.golden_batches),
                     static_cast<unsigned long long>(s.cone_ops),
                     static_cast<unsigned long long>(s.miter_ops));
        const core::ManagerStats ms = mgr.stats();
        const core::WorkerStats& t = ms.total;
        std::fprintf(stderr,
                     "engine: %llu expansions, %llu/%llu cache hits, "
                     "%llu shared hits, %llu nodes, %llu stalls, "
                     "%llu groups stolen, %llu gc runs | expansion %.2fs "
                     "reduction %.2fs lock-wait %.2fs gc %.2fs\n",
                     static_cast<unsigned long long>(t.ops_performed),
                     static_cast<unsigned long long>(t.cache_hits),
                     static_cast<unsigned long long>(t.cache_lookups),
                     static_cast<unsigned long long>(t.cache_shared_hits),
                     static_cast<unsigned long long>(t.nodes_created),
                     static_cast<unsigned long long>(t.reduction_stalls),
                     static_cast<unsigned long long>(t.groups_stolen),
                     static_cast<unsigned long long>(ms.gc_runs),
                     static_cast<double>(t.expansion_ns) * 1e-9,
                     static_cast<double>(t.reduction_ns) * 1e-9,
                     static_cast<double>(t.lock_wait_ns) * 1e-9,
                     static_cast<double>(t.gc_ns) * 1e-9);
      }
    }

    std::string verify_error;
    if (!fault::verify_report(report, &verify_error)) {
      std::fprintf(stderr, "error: generated report fails self-check: %s\n",
                   verify_error.c_str());
      return 1;
    }

    if (!verify_path.empty()) {
      std::ifstream in(verify_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "error: cannot read %s\n", verify_path.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string golden = std::move(buf).str();
      if (!fault::verify_report(golden, &verify_error)) {
        std::fprintf(stderr, "error: golden %s fails verification: %s\n",
                     verify_path.c_str(), verify_error.c_str());
        return 1;
      }
      if (golden != report) {
        std::fprintf(stderr,
                     "error: report differs from golden %s (%zu vs %zu "
                     "bytes)\n",
                     verify_path.c_str(), report.size(), golden.size());
        return 1;
      }
      std::fprintf(stderr, "verified: report matches %s\n",
                   verify_path.c_str());
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) throw std::runtime_error("cannot write " + out_path);
      out << report;
      std::fprintf(stderr, "wrote %s (%zu bytes)\n", out_path.c_str(),
                   report.size());
    } else if (verify_path.empty()) {
      std::cout << report;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
