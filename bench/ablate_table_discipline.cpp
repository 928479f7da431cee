// Ablation: the two unique-table locking disciplines head to head.
//
// Figs. 16/17 of the paper expose the reduction phase serializing on the
// per-variable locks; Section 6 asks for "a better distributed hashing
// algorithm". This harness sets the paper's discipline against that end
// point — the lock-free CAS table — and reports the quantity the
// disciplines actually compete on: reduction throughput (operations
// retired per second of reduction-phase time, summed over workers).
//
//   passlock  — one mutex per variable, held across a reduction pass
//   lockfree  — atomic bucket heads, CAS publication, no mutex at all
//
// Contention shows up as `lock wait (s)` for the mutex discipline and as
// `cas retries` for the lock-free one. On a single hardware core the wall
// clock cannot show the parallel win (threads time-slice); the wait/retry
// columns still separate the disciplines, and on real cores the removed
// waits become reduction-phase speedup.
#include <cstdio>
#include <iostream>

#include "harness.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pbdd;
  bench::Cli cli = bench::parse_cli(argc, argv, {"mult-10"});
  if (cli.thread_counts == std::vector<unsigned>{1, 2, 4, 8}) {
    cli.thread_counts = {1, 2, 4, 8};
  }
  const bench::Workload w = bench::make_workload(cli.circuit_specs[0]);

  const core::TableDiscipline disciplines[] = {
      core::TableDiscipline::kPassLock, core::TableDiscipline::kLockFree};

  std::printf("Unique-table locking-discipline ablation on %s\n",
              w.name.c_str());
  util::TextTable table({"# procs", "discipline", "elapsed s", "reduction s",
                         "lock wait s", "cas retries", "red. Mops/s"});
  double passlock_mops = 0;  // per worker count, for the relative column
  for (const unsigned workers : cli.thread_counts) {
    for (const core::TableDiscipline discipline : disciplines) {
      const char* name = core::discipline_name(discipline);
      core::Config config = bench::config_for(cli, workers, false);
      config.table_discipline = discipline;
      const bench::RunResult r = bench::run_build(w, config);
      const double wait = util::ns_to_s(r.stats.total.lock_wait_ns);
      double reduction = 0;
      for (const auto& ws : r.stats.per_worker) {
        reduction += util::ns_to_s(ws.reduction_ns);
      }
      // Throughput over the phase the disciplines contend in: every retired
      // operation passes through exactly one find_or_insert-or-forward in
      // the reduction phase.
      const double mops =
          reduction > 0
              ? static_cast<double>(r.total_ops) / reduction * 1e-6
              : 0;
      if (discipline == core::TableDiscipline::kPassLock) {
        passlock_mops = mops;
      }
      table.add_row({std::to_string(workers), name,
                     util::TextTable::num(r.elapsed_s, 3),
                     util::TextTable::num(reduction, 3),
                     util::TextTable::num(wait, 3),
                     std::to_string(r.stats.total.cas_retries),
                     util::TextTable::num(mops, 2) +
                         (passlock_mops > 0
                              ? " (" +
                                    util::TextTable::num(
                                        mops / passlock_mops, 2) +
                                    "x)"
                              : "")});
      if (cli.csv) {
        std::printf("csv,ablate_discipline,%s,%u,%s,%.4f,%.4f,%.4f,%llu\n",
                    w.name.c_str(), workers, name, r.elapsed_s,
                    reduction, wait,
                    static_cast<unsigned long long>(
                        r.stats.total.cas_retries));
      }
      std::fflush(stdout);
    }
  }
  table.print(std::cout);
  std::printf(
      "\npasslock is the paper's discipline (Figs. 16/17 contention);\n"
      "lockfree removes the mutex entirely. The Mops/s column is\n"
      "reduction-phase throughput with the per-worker-count passlock\n"
      "baseline in parentheses.\n");
  return 0;
}
