// Workload `service`: a closed loop against BddService with one in-process
// read replica. Four client threads each own a session and build the
// loadgen circuit mix level by level through BddService::execute (the
// writes); after every build one read (eval, sat_count or root info, in
// rotation) goes through the SessionRouter to the replica; every
// kCheckpointEvery completed builds, the client that completed the build
// runs save_all + ReplicationWriter::ship_file. The checkpoint cadence is a
// build count, not a timer, so every script does the same checkpoints.
//
// Engine work per request is microseconds, so this workload measures the
// admission queue, dispatcher, checkpoint pause, ship/apply and the routed
// read path rather than the core.
//
// A run repeats [1 worker, 4w, 4w] scripts. Each script constructs a
// fresh service, replica, writer and router (the set-up) and ends with a
// quiescent writer-vs-replica cross-check of sat_count and eval answers on
// shipped roots. The sat counts of every session's final roots must also
// match the run's 1-worker script, the reference whose time is seq_s.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "common.hpp"
#include "replica/replica_server.hpp"
#include "replica/router.hpp"
#include "replica/writer.hpp"
#include "service/bdd_service.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace pbdd;

namespace {

constexpr unsigned kClients = 4;
/// Each client builds every circuit of the mix at this many variable
/// rotations: 6 x 10 = 60 passes per client.
constexpr unsigned kRotationsPerCircuit = 10;
constexpr std::uint64_t kCheckpointEvery = 100;
constexpr std::size_t kCrossCheckRootsPerSession = 8;

/// The loadgen mix; each client cycles through all of it, so every seed
/// does the same work.
std::vector<circuit::Circuit> make_pool() {
  std::vector<circuit::Circuit> pool;
  pool.push_back(circuit::multiplier(4).binarized());
  pool.push_back(circuit::ripple_adder(8).binarized());
  pool.push_back(circuit::comparator(8).binarized());
  pool.push_back(circuit::parity_tree(12).binarized());
  pool.push_back(circuit::hamming_encoder(8).binarized());
  pool.push_back(circuit::priority_encoder(12).binarized());
  return pool;
}

template <typename T>
void shuffle(std::vector<T>& v, util::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Latency samples of the two request classes, in milliseconds.
struct Latencies {
  std::vector<double> build_ms;
  std::vector<double> read_ms;
};

/// Everything one script measures.
struct ScriptResult {
  double setup_s = 0, wall_s = 0;
  std::uint64_t roots_checksum = 0;  ///< sat counts of the final roots
  Latencies lat;
  std::vector<double> queue_ms, exec_ms, save_ms, ship_ms;
  service::ServiceMetrics service;
  repl::ReplicationWriter::Counters writer;
  repl::ReplicaServer::Counters replica;
  repl::SessionRouter::Counters router;
  std::uint64_t unknown_root = 0;
  std::uint64_t ships = 0;
  CoreSample core;
};

struct ClientState {
  service::SessionId sid = service::kInvalidSession;
  util::Xoshiro256 rng{1};
  /// (circuit, rotation) of each pass, in the seeded order.
  std::vector<std::pair<std::size_t, unsigned>> passes;
  std::size_t registered = 0;  ///< roots registered in this session
  std::size_t readable = 0;    ///< registered as of the last seen epoch
  std::uint64_t seen_epoch = 0;
  std::uint64_t reads = 0;  ///< picks the read kind, in rotation
  Latencies lat;
  std::vector<double> queue_ms, exec_ms, save_ms, ship_ms;
  std::uint64_t unknown_root = 0, ships = 0;
  Checks checks;
};

repl::ReadResp local_read(service::BddService& svc,
                          repl::ReplicationWriter& writer,
                          const repl::ReadReq& rq) {
  using Kind = service::BddService::ReadKind;
  const Kind kind = rq.op == repl::ReadOp::kEval       ? Kind::kEval
                    : rq.op == repl::ReadOp::kSatCount ? Kind::kSatCount
                                                       : Kind::kRootInfo;
  const service::BddService::ReadAnswer ans =
      svc.read_root(rq.root, kind, rq.assignment);
  repl::ReadResp resp;
  resp.req_id = rq.req_id;
  resp.epoch = writer.epoch();
  resp.status = ans.ok ? repl::ReadStatus::kOk : repl::ReadStatus::kError;
  resp.value = ans.value;
  resp.sat = ans.sat;
  resp.error = ans.error;
  return resp;
}

class Script {
 public:
  Script(const std::vector<circuit::Circuit>& pool, unsigned num_vars,
         unsigned workers, std::uint64_t seed, const std::string& dir)
      : pool_(pool), num_vars_(num_vars), workers_(workers), seed_(seed),
        dir_(dir), ship_path_(dir + "/ship.snap") {}

  ScriptResult run(Checks& checks) {
    ScriptResult r;
    std::filesystem::create_directories(dir_ + "/replica");
    {
      Clock::time_point t0 = Clock::now();
      std::optional<Span> setup_span(std::in_place, "service.setup");
      service::ServiceConfig cfg;
      cfg.num_vars = num_vars_;
      cfg.engine = engine_config(workers_);
      svc_.emplace(cfg);
      repl::ReplicaOptions ro;
      ro.dir = dir_ + "/replica";
      // The replica only restores snapshots and answers single reads; one
      // worker keeps every apply from spawning threads that compete with
      // the writer's engine for the same cores.
      ro.config = engine_config(1);
      replica_.emplace(ro);
      replica_->start();
      const std::string endpoint =
          "127.0.0.1:" + std::to_string(replica_->port());
      repl::WriterOptions wo;
      wo.endpoints = {endpoint};
      wo.heartbeat_interval = std::chrono::milliseconds(0);
      writer_.emplace(wo);
      checks.expect(writer_->connect() == 1, "writer could not reach the replica");
      repl::RouterOptions rto;
      rto.endpoints = {endpoint};
      router_.emplace(rto, [this](const repl::ReadReq& rq) {
        return local_read(*svc_, *writer_, rq);
      });
      clients_.assign(kClients, ClientState{});
      // The set of (circuit, rotation) pairs over all clients is fixed, so
      // every seed does the same work; the seed deals the per-client sets
      // to sessions and orders each client's passes.
      util::Xoshiro256 rng = seeded_rng(seed_, 0x73657276696365ULL);
      std::vector<unsigned> deal(kClients);
      for (unsigned c = 0; c < kClients; ++c) deal[c] = c;
      shuffle(deal, rng);
      for (unsigned c = 0; c < kClients; ++c) {
        ClientState& cs = clients_[c];
        cs.sid = svc_->open_session();
        checks.expect(cs.sid != service::kInvalidSession, "open_session failed");
        cs.rng = util::Xoshiro256(rng.next());
        for (std::size_t i = 0; i < pool_.size(); ++i) {
          for (unsigned j = 0; j < kRotationsPerCircuit; ++j) {
            cs.passes.emplace_back(i, (3 * deal[c] + 7 * j) % num_vars_);
          }
        }
        shuffle(cs.passes, rng);
      }
      r.setup_s = seconds_since(t0);
    }

    const Clock::time_point t0 = Clock::now();
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([this, c] { client_loop(clients_[c]); });
      }
      for (std::thread& t : threads) t.join();
    }
    r.wall_s = seconds_since(t0);

    cross_check(checks);
    r.roots_checksum = roots_checksum(checks);
    for (ClientState& cs : clients_) {
      checks.merge(cs.checks);
      r.lat.build_ms.insert(r.lat.build_ms.end(), cs.lat.build_ms.begin(),
                            cs.lat.build_ms.end());
      r.lat.read_ms.insert(r.lat.read_ms.end(), cs.lat.read_ms.begin(),
                           cs.lat.read_ms.end());
      for (auto [dst, src] : {std::pair{&r.queue_ms, &cs.queue_ms},
                              std::pair{&r.exec_ms, &cs.exec_ms},
                              std::pair{&r.save_ms, &cs.save_ms},
                              std::pair{&r.ship_ms, &cs.ship_ms}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
      r.unknown_root += cs.unknown_root;
      r.ships += cs.ships;
    }
    r.service = svc_->metrics();
    r.writer = writer_->counters();
    r.replica = replica_->counters();
    r.router = router_->counters();
    svc_->quiesce_and(
        [&r](core::BddManager& mgr) { r.core = sample_core(mgr); });

    for (const ClientState& cs : clients_) svc_->close_session(cs.sid);
    router_.reset();
    writer_.reset();
    replica_->stop();
    replica_.reset();
    svc_.reset();
    std::filesystem::remove_all(dir_);
    return r;
  }

 private:
  void client_loop(ClientState& cs) {
    for (const auto& [circuit, rotation] : cs.passes) {
      // Each pass replaces the previous pass's registered roots, so every
      // checkpoint holds about one pass per session and costs the same
      // throughout the script. The last pass's roots stay for the
      // cross-check.
      if (cs.registered > 0) {
        svc_->release_session_roots(cs.sid);
        cs.registered = 0;
        cs.readable = 0;
      }
      Span span("client.pass", SpanRecorder::instance().next_request());
      if (!build_pass(cs, pool_[circuit], rotation)) return;
    }
  }

  /// Build one circuit level by level; false once a request failed.
  bool build_pass(ClientState& cs, const circuit::Circuit& circ,
                  unsigned rotation) {
    const std::vector<std::uint32_t> levels = circ.levels();
    const std::uint32_t max_level =
        *std::max_element(levels.begin(), levels.end());
    std::vector<core::Bdd> value(circ.num_gates());
    for (std::size_t i = 0; i < circ.inputs().size(); ++i) {
      value[circ.inputs()[i]] =
          svc_->var(static_cast<unsigned>((i + rotation) % num_vars_));
    }
    for (std::uint32_t level = 0; level <= max_level; ++level) {
      std::vector<core::BatchOp> ops;
      std::vector<std::uint32_t> targets;
      for (std::uint32_t id = 0; id < circ.num_gates(); ++id) {
        if (levels[id] != level) continue;
        const circuit::Gate& g = circ.gate(id);
        switch (g.type) {
          case circuit::GateType::Input: break;  // mapped above
          case circuit::GateType::Const0: value[id] = svc_->zero(); break;
          case circuit::GateType::Const1: value[id] = svc_->one(); break;
          case circuit::GateType::Buf: value[id] = value[g.fanins[0]]; break;
          case circuit::GateType::Not:
            ops.push_back({Op::Nand, value[g.fanins[0]], value[g.fanins[0]]});
            targets.push_back(id);
            break;
          default:
            ops.push_back({circuit::gate_op(g.type), value[g.fanins[0]],
                           value[g.fanins[1]]});
            targets.push_back(id);
            break;
        }
      }
      if (ops.empty()) continue;

      service::RequestResult res;
      {
        Span span("service.execute", SpanRecorder::instance().next_request());
        const Clock::time_point t0 = Clock::now();
        res = svc_->execute(cs.sid, std::move(ops));
        cs.lat.build_ms.push_back(seconds_since(t0) * 1e3);
      }
      const bool ok = res.status == service::RequestStatus::kOk;
      cs.checks.expect(ok, std::string("build request ended ") +
                               service::request_status_name(res.status));
      if (!ok) return false;
      cs.queue_ms.push_back(static_cast<double>(res.queue_ns.count()) / 1e6);
      cs.exec_ms.push_back(static_cast<double>(res.exec_ns.count()) / 1e6);
      for (std::size_t k = 0; k < targets.size(); ++k) {
        value[targets[k]] = res.roots[k];
      }
      cs.registered += targets.size();
      read_one(cs);
      const std::uint64_t done = builds_done_.fetch_add(1) + 1;
      if (done % kCheckpointEvery == 0) checkpoint(cs);
    }
    return true;
  }

  void read_one(ClientState& cs) {
    const std::uint64_t epoch = writer_->epoch();
    if (epoch != cs.seen_epoch) {
      cs.seen_epoch = epoch;
      cs.readable = cs.registered;
    }
    repl::ReadReq rq;
    rq.req_id = SpanRecorder::instance().next_request();
    const std::size_t k =
        cs.readable > 0 ? cs.rng.below(cs.readable) : 0;
    rq.root = "s" + std::to_string(cs.sid) + "/r" + std::to_string(k);
    switch (cs.reads++ % 3) {
      case 0:
        rq.op = repl::ReadOp::kEval;
        rq.assignment.resize(num_vars_);
        for (unsigned v = 0; v < num_vars_; ++v) {
          rq.assignment[v] = cs.rng.coin();
        }
        break;
      case 1: rq.op = repl::ReadOp::kSatCount; break;
      default: rq.op = repl::ReadOp::kRootInfo; break;
    }
    repl::ReadResp resp;
    {
      Span span("router.read", rq.req_id);
      const Clock::time_point t0 = Clock::now();
      resp = router_->read(cs.sid, rq);
      cs.lat.read_ms.push_back(seconds_since(t0) * 1e3);
    }
    if (resp.status == repl::ReadStatus::kUnknownRoot) {
      ++cs.unknown_root;  // not shipped yet: expected, not an error
    } else {
      cs.checks.expect(resp.status == repl::ReadStatus::kOk,
                       "routed read failed: " + resp.error);
    }
  }

  /// save_all + ship_file; serialized so two clients never share the file.
  void checkpoint(ClientState& cs) {
    std::lock_guard<std::mutex> lk(checkpoint_mutex_);
    Span span("service.checkpoint", SpanRecorder::instance().next_request());
    service::RequestResult res;
    {
      Span save("snapshot.save_all");
      const Clock::time_point t0 = Clock::now();
      res = svc_->save_all(ship_path_).get();
      cs.save_ms.push_back(seconds_since(t0) * 1e3);
    }
    cs.checks.expect(res.status == service::RequestStatus::kOk,
                     "save_all failed: " + res.error);
    if (res.status != service::RequestStatus::kOk) return;
    repl::ShipReport report;
    {
      Span ship("replica.ship_file");
      const Clock::time_point t0 = Clock::now();
      report = writer_->ship_file(ship_path_);
      cs.ship_ms.push_back(seconds_since(t0) * 1e3);
    }
    ++cs.ships;
    cs.checks.expect(report.ok_count() == report.replicas.size(),
                     "ship did not reach the replica");
  }

  /// Quiescent check: ship a final epoch, then every sampled root must
  /// give the same sat_count and eval answer on the replica and the writer.
  void cross_check(Checks& checks) {
    Span span("service.crosscheck", SpanRecorder::instance().next_request());
    ClientState final_client;
    checkpoint(final_client);
    checks.merge(final_client.checks);
    const repl::SessionRouter::Counters before = router_->counters();
    std::uint64_t compared = 0;
    for (ClientState& cs : clients_) {
      for (std::size_t j = 0;
           j < std::min(cs.registered, kCrossCheckRootsPerSession); ++j) {
        repl::ReadReq rq;
        rq.root = "s" + std::to_string(cs.sid) + "/r" +
                  std::to_string(cs.rng.below(cs.registered));
        rq.op = repl::ReadOp::kSatCount;
        const repl::ReadResp remote = router_->read(cs.sid, rq);
        const repl::ReadResp local = local_read(*svc_, *writer_, rq);
        checks.expect(remote.status == repl::ReadStatus::kOk &&
                          local.status == repl::ReadStatus::kOk &&
                          remote.sat == local.sat,
                      "replica sat_count differs from the writer on " + rq.root);
        rq.op = repl::ReadOp::kEval;
        rq.assignment.resize(num_vars_);
        for (unsigned v = 0; v < num_vars_; ++v) {
          rq.assignment[v] = cs.rng.coin();
        }
        const repl::ReadResp remote_eval = router_->read(cs.sid, rq);
        const repl::ReadResp local_eval = local_read(*svc_, *writer_, rq);
        checks.expect(remote_eval.status == repl::ReadStatus::kOk &&
                          local_eval.status == repl::ReadStatus::kOk &&
                          remote_eval.value == local_eval.value,
                      "replica eval differs from the writer on " + rq.root);
        compared += 2;
      }
    }
    const repl::SessionRouter::Counters after = router_->counters();
    checks.expect(after.replica_reads - before.replica_reads == compared,
                  "cross-check reads were not all served by the replica");
  }

  /// FNV-1a over the sat counts of every session's final-pass roots, read
  /// from the writer. The final pass of each client is fixed by the seed,
  /// so the value does not depend on the engine's worker count.
  std::uint64_t roots_checksum(Checks& checks) {
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    for (const ClientState& cs : clients_) {
      for (std::size_t k = 0; k < cs.registered; ++k) {
        const service::BddService::ReadAnswer ans = svc_->read_root(
            "s" + std::to_string(cs.sid) + "/r" + std::to_string(k),
            service::BddService::ReadKind::kSatCount);
        checks.expect(ans.ok, "final root read failed: " + ans.error);
        checksum = (checksum ^ static_cast<std::uint64_t>(ans.sat)) *
                   0x100000001b3ULL;
      }
    }
    return checksum;
  }

  const std::vector<circuit::Circuit>& pool_;
  const unsigned num_vars_;
  const unsigned workers_;
  const std::uint64_t seed_;
  const std::string dir_;
  const std::string ship_path_;

  // Declared in construction order; run() tears them down in reverse.
  std::optional<service::BddService> svc_;
  std::optional<repl::ReplicaServer> replica_;
  std::optional<repl::ReplicationWriter> writer_;
  std::optional<repl::SessionRouter> router_;
  std::vector<ClientState> clients_;
  std::atomic<std::uint64_t> builds_done_{0};
  std::mutex checkpoint_mutex_;
};

}  // namespace

void run_service_workload(const RunOptions& opts, RunResult& out) {
  Report& report = out.report;
  Checks& checks = out.checks;
  Budget budget(opts.seconds);
  OverheadProbe probe(opts.trace);
  // Every script starts fresh service, replica and client threads. glibc
  // hands new threads new malloc arenas (up to 8 per core) and keeps their
  // freed pages, so with default arenas the RSS climbed with the number of
  // scripts run (64 -> 128 MiB over 20 scripts) and peak_rss_mb measured
  // run length. One arena keeps every script's peak alike (about 61 MiB);
  // request latencies did not change.
  mallopt(M_ARENA_MAX, 1);

  const std::vector<circuit::Circuit> pool = make_pool();
  unsigned num_vars = 0;
  for (const circuit::Circuit& c : pool) {
    num_vars = std::max(num_vars, static_cast<unsigned>(c.inputs().size()));
  }

  std::vector<ScriptResult> par;
  std::vector<double> seq_s, rss_mb;
  std::uint64_t reference_checksum = 0;
  double slowest_par = 0, slowest_seq = 0;
  for (std::size_t rep = 0;; ++rep) {
    const bool single = rep % 3 == 0;
    if (rep >= 3 && !budget.allows(single ? slowest_seq : slowest_par)) break;
    reset_memory_high_water();
    const Clock::time_point rep_start = Clock::now();
    const bool traced = single ? (probe.begin_unmeasured(), false)
                               : probe.begin_measured();
    Span rep_span(single ? "service.script.1w" : "service.script",
                  SpanRecorder::instance().next_request());
    Script script(pool, num_vars, single ? 1 : kWorkers, opts.seed,
                  opts.work_dir + "/script" + std::to_string(rep));
    ScriptResult r = script.run(checks);
    if (rep == 0) reference_checksum = r.roots_checksum;
    checks.expect(r.roots_checksum == reference_checksum,
                  std::string(single ? "1-worker" : "4-worker") +
                      " script's final roots differ from the 1-worker one's");
    if (single) {
      seq_s.push_back(r.wall_s);
      slowest_seq = std::max(slowest_seq, seconds_since(rep_start));
      continue;
    }
    probe.end_measured(traced, r.wall_s);
    rss_mb.push_back(peak_rss_mb());
    par.push_back(std::move(r));
    slowest_par = std::max(slowest_par, seconds_since(rep_start));
  }

  // End-to-end latency percentiles are taken per script and reported as
  // the median over the run's 4-worker scripts, so a scheduling burst that
  // hits one or two scripts does not set the run's tail. Layer latencies
  // pool every script; counters are medians.
  std::vector<double> build_p50, build_p99, read_p50, read_p99;
  std::uint64_t build_samples = 0, read_samples = 0;
  std::vector<double> queue_ms, exec_ms, save_ms, ship_ms;
  std::vector<CoreSample> cores;
  const auto med = [&par](auto&& field) {
    std::vector<double> v;
    for (const ScriptResult& r : par) v.push_back(static_cast<double>(field(r)));
    return median(v);
  };
  for (const ScriptResult& r : par) {
    build_p50.push_back(required_percentile(r.lat.build_ms, 0.5, "build"));
    build_p99.push_back(required_percentile(r.lat.build_ms, 0.99, "build"));
    read_p50.push_back(required_percentile(r.lat.read_ms, 0.5, "read"));
    read_p99.push_back(required_percentile(r.lat.read_ms, 0.99, "read"));
    build_samples += r.lat.build_ms.size();
    read_samples += r.lat.read_ms.size();
    queue_ms.insert(queue_ms.end(), r.queue_ms.begin(), r.queue_ms.end());
    exec_ms.insert(exec_ms.end(), r.exec_ms.begin(), r.exec_ms.end());
    save_ms.insert(save_ms.end(), r.save_ms.begin(), r.save_ms.end());
    ship_ms.insert(ship_ms.end(), r.ship_ms.begin(), r.ship_ms.end());
    cores.push_back(r.core);
  }
  const std::uint64_t n = par.size();
  const double wall = med([](const ScriptResult& r) { return r.wall_s; });
  const double seq = median(seq_s);
  report.set("setup_s", med([](const ScriptResult& r) { return r.setup_s; }), n);
  std::vector<double> walls;
  for (const ScriptResult& r : par) walls.push_back(r.wall_s);
  report.note("wall_s_reps", walls);
  report.note("seq_s_reps", seq_s);
  report.set("wall_s", wall, n);
  report.set("seq_s", seq, seq_s.size());
  report.note("peak_rss_mb_reps", rss_mb);
  report.set("peak_rss_mb", median(rss_mb), rss_mb.size());
  report.note("roots_checksum", std::to_string(reference_checksum));
  report.set("build_p50_ms", median(build_p50), build_samples);
  report.set("build_p99_ms", median(build_p99), build_samples);
  report.set("read_p50_ms", median(read_p50), read_samples);
  report.set("read_p99_ms", median(read_p99), read_samples);
  report.note("build_p99_ms_per_script", build_p99);
  report.note("read_p99_ms_per_script", read_p99);
  set_core_metrics(report, cores, seq / wall);
  check_parallelism(cores, out);

  report.set("service.queue_p50_ms", required_percentile(queue_ms, 0.5, "queue"),
             queue_ms.size());
  report.set("service.queue_p99_ms", required_percentile(queue_ms, 0.99, "queue"),
             queue_ms.size());
  report.set("service.exec_p50_ms", required_percentile(exec_ms, 0.5, "exec"),
             exec_ms.size());
  report.set("service.exec_p99_ms", required_percentile(exec_ms, 0.99, "exec"),
             exec_ms.size());
  const double batches =
      med([](const ScriptResult& r) { return r.service.batches_executed; });
  report.set("service.batches", batches, n);
  report.set("service.ops_per_batch",
             med([](const ScriptResult& r) {
               return ratio(static_cast<double>(r.service.ops_executed),
                            static_cast<double>(r.service.batches_executed));
             }),
             n, batches);
  report.set("service.deferrals",
             med([](const ScriptResult& r) { return r.service.deferrals; }), n);
  report.set("service.governor_gcs",
             med([](const ScriptResult& r) { return r.service.governor_gcs; }),
             n);
  report.set("service.rejected", med([](const ScriptResult& r) {
               return r.service.rejected_queue_full +
                      r.service.rejected_quota + r.service.rejected_demand +
                      r.service.shed;
             }),
             n);

  const double saves =
      med([](const ScriptResult& r) { return r.service.snapshots_saved; });
  report.set("snapshot.saves", saves, n);
  report.set("snapshot.save_p50_ms", required_percentile(save_ms, 0.5, "save"),
             save_ms.size());
  report.set("snapshot.save_max_ms", max_of(save_ms), save_ms.size());
  report.set("snapshot.pause_p95_ms", med([](const ScriptResult& r) {
               return static_cast<double>(r.service.snapshot_pause_ns_p95) / 1e6;
             }),
             n);
  report.set("snapshot.bytes_per_save", med([](const ScriptResult& r) {
               return ratio(static_cast<double>(r.service.snapshot_bytes_written),
                            static_cast<double>(r.service.snapshots_saved));
             }),
             n, saves);

  const double ships = med([](const ScriptResult& r) { return r.ships; });
  report.set("replica.ships", ships, n);
  report.set("replica.ship_p50_ms", required_percentile(ship_ms, 0.5, "ship"),
             ship_ms.size());
  report.set("replica.ship_max_ms", max_of(ship_ms), ship_ms.size());
  report.set("replica.bytes_per_ship", med([](const ScriptResult& r) {
               return ratio(static_cast<double>(r.writer.bytes_sent),
                            static_cast<double>(r.writer.ships_total));
             }),
             n, ships);
  report.set("replica.delta_ratio", med([](const ScriptResult& r) {
               return ratio(static_cast<double>(r.writer.delta_ships),
                            static_cast<double>(r.writer.delta_ships +
                                                r.writer.full_ships));
             }),
             n, ships);
  const double levels = med([](const ScriptResult& r) {
    return r.replica.levels_spliced + r.replica.levels_received;
  });
  report.set("replica.splice_ratio", med([](const ScriptResult& r) {
               return ratio(static_cast<double>(r.replica.levels_spliced),
                            static_cast<double>(r.replica.levels_spliced +
                                                r.replica.levels_received));
             }),
             n, levels);
  report.set("replica.naks", med([](const ScriptResult& r) { return r.writer.naks; }),
             n);

  const double reads =
      med([](const ScriptResult& r) { return r.router.reads_total; });
  report.set("router.replica_read_ratio", med([](const ScriptResult& r) {
               return ratio(static_cast<double>(r.router.replica_reads),
                            static_cast<double>(r.router.reads_total));
             }),
             n, reads);
  report.set("router.failovers",
             med([](const ScriptResult& r) { return r.router.failovers; }), n);
  report.set("router.stale_fallbacks",
             med([](const ScriptResult& r) { return r.router.stale_fallbacks; }),
             n);
  report.set("router.unknown_root",
             med([](const ScriptResult& r) { return r.unknown_root; }), n);
  probe.report(report);
}

}  // namespace perfbench
