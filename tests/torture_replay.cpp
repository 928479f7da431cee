// Replay a captured torture seed file (tests/seeds/*.seed) and exit 0 iff
// the run passes validation. Each seed file is wired into ctest as its own
// named test (seed_<name>), so the corpus doubles as a permanent regression
// suite: `ctest -R seed_` reruns every captured failure.
//
// Seed file format: one `key=value` per line; `#` starts a comment. Keys
// split into scheduler knobs (seed, mode, delay_permille, ...), engine
// config (workers, eval_threshold, ...), and workload shape (num_vars,
// steps, program_seed). Unknown keys are an error, so a corpus file cannot
// silently stop exercising what it was captured for.
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/bdd_manager.hpp"
#include "runtime/torture.hpp"
#include "service_driver.hpp"
#include "torture_driver.hpp"

namespace {

struct ReplaySpec {
  pbdd::rt::TortureConfig torture;
  pbdd::core::Config config;
  unsigned num_vars = 4;
  int steps = 40;
  std::uint64_t program_seed = 1;
  int snapshot_every = 0;  // >0: checkpoint/restore cycle every N steps
  int dag_permille = 0;    // fraction of batch steps made dep-carrying
  std::size_t ooc_budget = 0;  // >0: attach a LevelPager with this budget
  bool expect_deterministic = false;  // run twice, require identical logs

  // fault_campaign=1 switches to the stuck-at fault-campaign workload
  // (torture_driver.hpp run_fault_torture): a full campaign over a seeded
  // random circuit with collections / checkpoint writes forced between
  // waves, every verdict checked against the exhaustive oracle.
  bool fault_campaign = false;
  std::size_t fault_batch = 8;    // faults rebuilt concurrently per wave
  int fault_gc_every = 2;         // force mgr.gc() every N waves (0 = off)
  int fault_snapshot_every = 3;   // checkpoint write every N waves (0 = off)

  // service_sessions > 0 switches from the single-manager workload to the
  // multi-session BddService workload (service_driver.hpp): N client
  // threads against one service, canary-validated, store invariants and
  // the governor budget checked afterwards. Perturb mode only — client
  // racing is outside the serialize-mode determinism guarantee.
  unsigned service_sessions = 0;
  unsigned service_requests = 10;
  unsigned service_ops = 5;
  unsigned service_deadline_every = 0;
  unsigned service_cancel_every = 0;
  unsigned service_release_every = 4;
  std::size_t service_queue_capacity = 8;
  std::size_t service_budget = 4096;
};

bool apply_key(ReplaySpec& spec, const std::string& key,
               const std::string& value, std::string& error) try {
  const auto u64 = [&] { return std::stoull(value); };
  const auto u32 = [&] { return static_cast<std::uint32_t>(std::stoul(value)); };

  if (key == "seed") spec.torture.seed = u64();
  else if (key == "mode") {
    if (value == "perturb") {
      spec.torture.mode = pbdd::rt::TortureMode::kPerturb;
    } else if (value == "serialize") {
      spec.torture.mode = pbdd::rt::TortureMode::kSerialize;
    } else {
      error = "mode must be 'perturb' or 'serialize', got '" + value + "'";
      return false;
    }
  }
  else if (key == "delay_permille") spec.torture.delay_permille = u32();
  else if (key == "yield_permille") spec.torture.yield_permille = u32();
  else if (key == "max_delay_spins") spec.torture.max_delay_spins = u32();
  else if (key == "force_gc_permille") spec.torture.force_gc_permille = u32();
  else if (key == "force_spill_permille") {
    spec.torture.force_spill_permille = u32();
  }
  else if (key == "force_table_grow_permille") {
    spec.torture.force_table_grow_permille = u32();
  }
  else if (key == "force_dir_churn_permille") {
    spec.torture.force_dir_churn_permille = u32();
  }
  else if (key == "stall_timeout_ms") spec.torture.stall_timeout_ms = u32();
  else if (key == "workers") spec.config.workers = u32();
  else if (key == "sequential") spec.config.sequential_mode = u64() != 0;
  else if (key == "eval_threshold") spec.config.eval_threshold = u64();
  else if (key == "group_size") spec.config.group_size = u32();
  else if (key == "share_poll_interval") {
    spec.config.share_poll_interval = u32();
  }
  else if (key == "table_discipline") {
    // Seed files are regression captures: the discipline they were captured
    // with is part of the bug, so it is pinned here and deliberately NOT
    // overridable via PBDD_TABLE_DISCIPLINE. The retired "sharded" (and its
    // table_shards key) is an error, never silently remapped.
    if (!pbdd::core::parse_discipline(value, spec.config.table_discipline)) {
      error = "table_discipline must be 'passlock' or 'lockfree', got '" +
              value + "'";
      return false;
    }
  }
  else if (key == "gc_min_nodes") {
    spec.config.gc_min_nodes = static_cast<std::size_t>(u64());
  }
  else if (key == "gc_growth_factor") {
    spec.config.gc_growth_factor = std::stod(value);
  }
  else if (key == "auto_gc") spec.config.auto_gc = u64() != 0;
  else if (key == "num_vars") spec.num_vars = u32();
  else if (key == "steps") spec.steps = static_cast<int>(u64());
  else if (key == "program_seed") spec.program_seed = u64();
  else if (key == "snapshot_every") spec.snapshot_every = static_cast<int>(u64());
  else if (key == "dag_permille") spec.dag_permille = static_cast<int>(u64());
  else if (key == "ooc_budget") {
    spec.ooc_budget = static_cast<std::size_t>(u64());
  }
  else if (key == "expect_deterministic") {
    spec.expect_deterministic = u64() != 0;
  }
  else if (key == "fault_campaign") spec.fault_campaign = u64() != 0;
  else if (key == "fault_batch") {
    spec.fault_batch = static_cast<std::size_t>(u64());
  }
  else if (key == "fault_gc_every") {
    spec.fault_gc_every = static_cast<int>(u64());
  }
  else if (key == "fault_snapshot_every") {
    spec.fault_snapshot_every = static_cast<int>(u64());
  }
  else if (key == "service_sessions") spec.service_sessions = u32();
  else if (key == "service_requests") spec.service_requests = u32();
  else if (key == "service_ops") spec.service_ops = u32();
  else if (key == "service_deadline_every") spec.service_deadline_every = u32();
  else if (key == "service_cancel_every") spec.service_cancel_every = u32();
  else if (key == "service_release_every") spec.service_release_every = u32();
  else if (key == "service_queue_capacity") {
    spec.service_queue_capacity = static_cast<std::size_t>(u64());
  }
  else if (key == "service_budget") {
    spec.service_budget = static_cast<std::size_t>(u64());
  }
  else {
    error = "unknown key '" + key + "'";
    return false;
  }
  return true;
} catch (const std::exception&) {  // stoull/stoul/stod on a malformed value
  error = "bad numeric value '" + value + "' for key '" + key + "'";
  return false;
}

bool parse_seed_file(const char* path, ReplaySpec& spec, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = std::string("cannot open ") + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    // Trim whitespace.
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    line = line.substr(begin, end - begin + 1);

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected key=value";
      return false;
    }
    const auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      if (b == std::string::npos) return std::string();
      return s.substr(b, s.find_last_not_of(" \t") - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    std::string key_error;
    if (!apply_key(spec, key, value, key_error)) {
      error = "line " + std::to_string(lineno) + ": " + key_error;
      return false;
    }
  }
  if (spec.service_sessions == 0 &&
      (spec.num_vars < 1 || spec.num_vars > 6)) {
    error = "num_vars must be in [1, 6] (truth-table oracle limit)";
    return false;
  }
  if (spec.service_sessions > 0 &&
      spec.torture.mode == pbdd::rt::TortureMode::kSerialize) {
    error = "service workloads are perturb-mode only (client racing is "
            "outside the serialize determinism guarantee)";
    return false;
  }
  if (spec.fault_campaign && spec.service_sessions > 0) {
    error = "fault_campaign and service_sessions are mutually exclusive";
    return false;
  }
  if (spec.fault_campaign && spec.fault_batch == 0) {
    error = "fault_batch must be >= 1";
    return false;
  }
  if (spec.ooc_budget > 0 &&
      (spec.fault_campaign || spec.service_sessions > 0)) {
    error = "ooc_budget applies to the single-manager workload only (the "
            "service attaches its own pager via spill_dir)";
    return false;
  }
  return true;
}

/// Fault-campaign replay: a stuck-at campaign with GC/checkpoint writes
/// forced between waves, every verdict oracle-checked
/// (torture_driver.hpp run_fault_torture).
int run_fault(const ReplaySpec& spec, const char* path) {
  pbdd::test::FaultTortureResult result;
  {
    pbdd::test::TortureGuard guard(spec.torture);
    result = pbdd::test::run_fault_torture(
        spec.config, spec.program_seed, spec.fault_batch, spec.fault_gc_every,
        spec.fault_snapshot_every);
  }
  if (!result.error.empty()) {
    std::fprintf(stderr, "FAIL %s\n%s\n", path, result.error.c_str());
    return 1;
  }
  std::printf(
      "PASS %s (fault campaign: %llu faults over %llu waves, %llu gc + %llu "
      "checkpoint interleaves)\n",
      path, static_cast<unsigned long long>(result.faults),
      static_cast<unsigned long long>(result.waves),
      static_cast<unsigned long long>(result.gc_interleaves),
      static_cast<unsigned long long>(result.snapshot_interleaves));
  return 0;
}

/// Service-mode replay: the seed file drives the multi-session workload
/// instead of the single-manager one. Exit-0 condition is the same shape:
/// empty error from the driver (canaries, invariants, governor budget).
int run_service(const ReplaySpec& spec, const char* path) {
  pbdd::service::ServiceConfig cfg;
  cfg.num_vars = spec.num_vars;
  cfg.engine = spec.config;
  cfg.queue_capacity = spec.service_queue_capacity;
  cfg.live_node_budget = spec.service_budget;

  pbdd::test::ServiceWorkload wl;
  wl.sessions = spec.service_sessions;
  wl.requests_per_session = spec.service_requests;
  wl.ops_per_request = spec.service_ops;
  wl.program_seed = spec.program_seed;
  wl.deadline_every = spec.service_deadline_every;
  wl.cancel_every = spec.service_cancel_every;
  wl.release_every = spec.service_release_every;

  pbdd::test::ServiceRunResult result;
  {
    pbdd::test::TortureGuard guard(spec.torture);
    pbdd::service::BddService svc(cfg);
    result = pbdd::test::run_service_workload(svc, wl);
  }
  if (!result.error.empty()) {
    std::fprintf(stderr, "FAIL %s\n%s\n", path, result.error.c_str());
    return 1;
  }
  std::printf(
      "PASS %s (service: %llu ok, %llu non-ok, %llu governor gcs, "
      "max live %zu <= budget %zu)\n",
      path, static_cast<unsigned long long>(result.ok),
      static_cast<unsigned long long>(result.non_ok),
      static_cast<unsigned long long>(result.metrics.governor_gcs),
      result.metrics.max_live_nodes_observed,
      result.metrics.live_node_budget);
  return 0;
}

pbdd::test::TortureRunResult run(const ReplaySpec& spec) {
  pbdd::test::TortureGuard guard(spec.torture);
  return pbdd::test::run_torture_workload(spec.config, spec.num_vars,
                                          spec.steps, spec.program_seed,
                                          spec.snapshot_every,
                                          spec.dag_permille, spec.ooc_budget);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: torture_replay <file.seed>\n");
    return 2;
  }
  ReplaySpec spec;
  std::string error;
  if (!parse_seed_file(argv[1], spec, error)) {
    std::fprintf(stderr, "torture_replay: %s: %s\n", argv[1], error.c_str());
    return 2;
  }

  if (spec.fault_campaign) return run_fault(spec, argv[1]);
  if (spec.service_sessions > 0) return run_service(spec, argv[1]);

  const auto first = run(spec);
  if (!first.error.empty()) {
    std::fprintf(stderr, "FAIL %s\n%s\n--- event log ---\n%s", argv[1],
                 first.error.c_str(), first.event_log.c_str());
    return 1;
  }
  if (first.stall_breaks != 0) {
    std::fprintf(stderr,
                 "FAIL %s: %llu scheduler stall break(s); run is not "
                 "replay-deterministic\n",
                 argv[1], static_cast<unsigned long long>(first.stall_breaks));
    return 1;
  }

  if (spec.expect_deterministic) {
    const auto second = run(spec);
    if (!second.error.empty()) {
      std::fprintf(stderr, "FAIL %s (second run)\n%s\n", argv[1],
                   second.error.c_str());
      return 1;
    }
    if (first.event_log != second.event_log ||
        first.node_counts != second.node_counts) {
      std::fprintf(stderr,
                   "FAIL %s: two runs of the same (seed, config) diverged "
                   "(%llu vs %llu events)\n",
                   argv[1], static_cast<unsigned long long>(first.events),
                   static_cast<unsigned long long>(second.events));
      return 1;
    }
  }

  if (spec.ooc_budget > 0) {
    std::printf(
        "PASS %s (%llu events, %llu stolen groups, %llu collections, "
        "%llu demotions / %llu faults)\n",
        argv[1], static_cast<unsigned long long>(first.events),
        static_cast<unsigned long long>(first.groups_stolen),
        static_cast<unsigned long long>(first.gc_runs),
        static_cast<unsigned long long>(first.ooc_demotions),
        static_cast<unsigned long long>(first.ooc_faults));
    return 0;
  }
  std::printf("PASS %s (%llu events, %llu stolen groups, %llu collections)\n",
              argv[1], static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.groups_stolen),
              static_cast<unsigned long long>(first.gc_runs));
  return 0;
}
