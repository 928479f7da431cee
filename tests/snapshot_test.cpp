// Checkpoint/restore subsystem tests (src/snapshot/, docs/FORMAT.md).
//
// The identity oracle is core::dump_function: a canonical textual dump of a
// function's cofactor structure, independent of NodeRefs and worker
// placement, so a restored root is "the same function" iff its dump is
// byte-identical to the saved root's.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builder.hpp"
#include "circuit/generators.hpp"
#include "circuit/ordering.hpp"
#include "core/bdd_manager.hpp"
#include "core/export.hpp"
#include "service/bdd_service.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"
#include "store_invariants.hpp"
#include "util/crc32.hpp"

namespace {

using namespace pbdd;
using core::TableDiscipline;

std::string tmp_path(const std::string& tag) {
  return testing::TempDir() + "pbdd_snap_" + tag + ".snap";
}

/// Build a multiplier's outputs in `mgr` and return them as named roots.
std::vector<snapshot::NamedRoot> build_roots(core::BddManager& mgr,
                                             unsigned bits = 5) {
  const circuit::Circuit circ = circuit::multiplier(bits).binarized();
  const std::vector<unsigned> order = circuit::order_dfs(circ);
  const std::vector<core::Bdd> outs = circuit::build_parallel(mgr, circ, order);
  std::vector<snapshot::NamedRoot> named;
  for (std::size_t o = 0; o < outs.size(); ++o) {
    named.push_back({"p" + std::to_string(o), outs[o]});
  }
  return named;
}

std::vector<std::string> dumps_of(core::BddManager& mgr,
                                  const std::vector<snapshot::NamedRoot>& rs) {
  std::vector<std::string> d;
  d.reserve(rs.size());
  for (const snapshot::NamedRoot& r : rs) {
    d.push_back(core::dump_function(mgr, r.bdd));
  }
  return d;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

core::Config cfg(unsigned workers, TableDiscipline d) {
  core::Config c;
  c.workers = workers;
  c.table_discipline = d;
  return c;
}

class SnapshotRoundTrip
    : public testing::TestWithParam<std::tuple<TableDiscipline, bool>> {};

// Round-trip identity: every root's dump_function is byte-identical after
// save + restore under the same configuration, in both save modes and under
// both table disciplines. Full-mode same-config restores must also
// take the chain-adoption fast path on every level.
TEST_P(SnapshotRoundTrip, IdentityUnderSameConfig) {
  const auto [disc, export_mode] = GetParam();
  const core::Config config = cfg(4, disc);
  core::BddManager mgr(10, config);
  const std::vector<snapshot::NamedRoot> roots = build_roots(mgr);
  const std::vector<std::string> before = dumps_of(mgr, roots);

  const std::string path = tmp_path(
      "rt_" + std::to_string(static_cast<int>(disc)) +
      (export_mode ? "_x" : "_f"));
  snapshot::SaveOptions opts;
  opts.mode = export_mode ? snapshot::SaveMode::kExportRoots
                          : snapshot::SaveMode::kFullStore;
  const snapshot::SaveStats s = snapshot::save(mgr, path, roots, opts);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_EQ(s.roots, roots.size());

  snapshot::RestoreResult res = snapshot::restore(path, config);
  EXPECT_TRUE(res.stats.ref_preserving);
  if (!export_mode) {
    EXPECT_EQ(res.stats.levels_adopted, res.stats.levels)
        << "same-config full restore must adopt every chain";
  } else {
    EXPECT_EQ(res.stats.levels_adopted, 0u);
  }
  ASSERT_EQ(res.roots.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(res.roots[i].name, roots[i].name);
    EXPECT_EQ(core::dump_function(*res.manager, res.roots[i].bdd), before[i])
        << "root " << roots[i].name;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, SnapshotRoundTrip,
    testing::Combine(testing::Values(TableDiscipline::kPassLock,
                                     TableDiscipline::kLockFree),
                     testing::Bool()));

// Cross-config restore: a snapshot saved at one worker count / discipline
// restores under a different one through the rehash fallback, preserving
// every function.
TEST(Snapshot, CrossConfigRestore) {
  core::BddManager mgr(10, cfg(4, TableDiscipline::kLockFree));
  const std::vector<snapshot::NamedRoot> roots = build_roots(mgr);
  const std::vector<std::string> before = dumps_of(mgr, roots);
  const std::string path = tmp_path("xcfg");
  snapshot::save(mgr, path, roots);

  for (const core::Config& target :
       {cfg(1, TableDiscipline::kPassLock), cfg(2, TableDiscipline::kLockFree),
        cfg(3, TableDiscipline::kPassLock)}) {
    snapshot::RestoreResult res = snapshot::restore(path, target);
    EXPECT_FALSE(res.stats.ref_preserving);
    EXPECT_EQ(res.stats.levels_adopted, 0u);
    ASSERT_EQ(res.roots.size(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(core::dump_function(*res.manager, res.roots[i].bdd),
                before[i]);
    }
  }
  std::remove(path.c_str());
}

// Export-roots snapshots cross table disciplines in both directions — the
// replication tier's exact traffic pattern: a kLockFree writer ships to a
// kPassLock replica, and a snapshot the replica re-exports restores back
// under the writer's discipline. Both restore (fresh manager) and
// import_into (merge into a live manager) must preserve every function.
TEST(Snapshot, ExportCrossesDisciplinesBothWays) {
  const std::pair<core::Config, core::Config> pairings[] = {
      {cfg(4, TableDiscipline::kLockFree), cfg(2, TableDiscipline::kPassLock)},
      {cfg(2, TableDiscipline::kPassLock), cfg(4, TableDiscipline::kLockFree)},
      {cfg(1, TableDiscipline::kPassLock), cfg(3, TableDiscipline::kLockFree)},
  };
  snapshot::SaveOptions opts;
  opts.mode = snapshot::SaveMode::kExportRoots;
  for (const auto& [writer_cfg, replica_cfg] : pairings) {
    core::BddManager writer(10, writer_cfg);
    const std::vector<snapshot::NamedRoot> roots = build_roots(writer);
    const std::vector<std::string> before = dumps_of(writer, roots);
    const std::string fwd = tmp_path("xdisc_fwd");
    const std::string back = tmp_path("xdisc_back");
    snapshot::save(writer, fwd, roots, opts);

    // Writer discipline -> replica discipline.
    snapshot::RestoreResult res = snapshot::restore(fwd, replica_cfg);
    ASSERT_EQ(res.roots.size(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(core::dump_function(*res.manager, res.roots[i].bdd),
                before[i]);
    }

    // Replica's re-export restores back under the writer's discipline.
    snapshot::save(*res.manager, back, res.roots, opts);
    snapshot::RestoreResult round = snapshot::restore(back, writer_cfg);
    ASSERT_EQ(round.roots.size(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(core::dump_function(*round.manager, round.roots[i].bdd),
                before[i]);
    }

    // And the merge path: import the replica-made snapshot into a live
    // manager of the writer's discipline holding the same functions.
    snapshot::RestoreStats rs;
    const std::vector<snapshot::NamedRoot> imported =
        snapshot::import_into(writer, back, &rs);
    ASSERT_EQ(imported.size(), roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      EXPECT_TRUE(imported[i].bdd == roots[i].bdd)
          << "cross-discipline import must dedupe to the canonical handle";
    }
    std::remove(fwd.c_str());
    std::remove(back.c_str());
  }
}

// CRC guard: truncation anywhere and a bit flip anywhere must be rejected
// (every byte of the file is covered by the header, directory, section, or
// root-table checksum).
TEST(Snapshot, CorruptionRejected) {
  core::BddManager mgr(10, cfg(2, TableDiscipline::kPassLock));
  const std::vector<snapshot::NamedRoot> roots = build_roots(mgr, 4);
  const std::string path = tmp_path("corrupt");
  snapshot::save(mgr, path, roots);
  const std::vector<std::uint8_t> good = slurp(path);
  ASSERT_GT(good.size(), snapshot::kHeaderBytes);

  // Sanity: the pristine file restores.
  EXPECT_NO_THROW(snapshot::restore(path, cfg(2, TableDiscipline::kPassLock)));

  // Truncations: mid-header, mid-directory, mid-section, one byte short.
  for (const std::size_t keep :
       {std::size_t{10}, snapshot::kHeaderBytes + 3, good.size() / 2,
        good.size() - 1}) {
    std::vector<std::uint8_t> bad(good.begin(),
                                  good.begin() + static_cast<std::ptrdiff_t>(keep));
    spit(path, bad);
    EXPECT_THROW(snapshot::restore(path, {}), std::runtime_error)
        << "truncated to " << keep;
    EXPECT_THROW(snapshot::import_into(mgr, path), std::runtime_error);
  }

  // Bit flips sampled across the whole file.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{12}, snapshot::kHeaderBytes + 1,
        good.size() / 3, good.size() / 2, good.size() - 2}) {
    std::vector<std::uint8_t> bad = good;
    bad[pos] ^= 0x40;
    spit(path, bad);
    EXPECT_THROW(snapshot::restore(path, {}), std::runtime_error)
        << "bit flip at " << pos;
  }
  std::remove(path.c_str());
}

// Snapshot-of-snapshot: save, restore under the same config, save again —
// the two files must be byte-identical (the format has no timestamps and
// restore preserves slot numbering and chain order).
TEST(Snapshot, SnapshotOfSnapshotIsByteIdentical) {
  for (const bool export_mode : {false, true}) {
    core::BddManager mgr(10, cfg(4, TableDiscipline::kLockFree));
    const std::vector<snapshot::NamedRoot> roots = build_roots(mgr);
    const std::string p1 = tmp_path(export_mode ? "ss1x" : "ss1");
    const std::string p2 = tmp_path(export_mode ? "ss2x" : "ss2");
    snapshot::SaveOptions opts;
    opts.mode = export_mode ? snapshot::SaveMode::kExportRoots
                            : snapshot::SaveMode::kFullStore;
    snapshot::save(mgr, p1, roots, opts);
    snapshot::RestoreResult res =
        snapshot::restore(p1, cfg(4, TableDiscipline::kLockFree));
    snapshot::save(*res.manager, p2, res.roots, opts);
    EXPECT_EQ(slurp(p1), slurp(p2)) << (export_mode ? "export" : "full");
    std::remove(p1.c_str());
    std::remove(p2.c_str());
  }
}

// Export mode piggybacks on the GC mark phase: nodes unreachable from the
// requested roots are not written.
TEST(Snapshot, ExportExcludesDeadNodes) {
  core::BddManager mgr(12, cfg(2, TableDiscipline::kPassLock));
  std::vector<snapshot::NamedRoot> roots = build_roots(mgr);
  // Persist only the middle product bit; everything reachable solely from
  // the other outputs is dead weight the export must not carry.
  const std::vector<snapshot::NamedRoot> subset = {roots[roots.size() / 2]};
  const std::string dump =
      core::dump_function(mgr, subset[0].bdd);
  const std::string full_path = tmp_path("xd_full");
  const std::string export_path = tmp_path("xd_exp");
  snapshot::save(mgr, full_path, roots);
  snapshot::SaveOptions opts;
  opts.mode = snapshot::SaveMode::kExportRoots;
  const snapshot::SaveStats s = snapshot::save(mgr, export_path, subset, opts);
  EXPECT_EQ(s.nodes, mgr.node_count(subset[0].bdd))
      << "export must write exactly the root's internal nodes";
  EXPECT_LT(s.nodes, snapshot::inspect(full_path).total_nodes);

  snapshot::RestoreResult res = snapshot::restore(export_path, {});
  ASSERT_EQ(res.roots.size(), 1u);
  EXPECT_EQ(core::dump_function(*res.manager, res.roots[0].bdd), dump);
  // Saving after the export must leave the source manager fully usable
  // (marks cleared): a full GC keeps every registered root intact.
  mgr.gc();
  EXPECT_EQ(core::dump_function(mgr, subset[0].bdd), dump);
  std::remove(full_path.c_str());
  std::remove(export_path.c_str());
}

// import_into deduplicates against the live store: importing a snapshot of
// functions the manager already holds creates no lasting growth and yields
// handles equal to the existing ones.
TEST(Snapshot, ImportDeduplicates) {
  core::BddManager mgr(10, cfg(2, TableDiscipline::kPassLock));
  const std::vector<snapshot::NamedRoot> roots = build_roots(mgr);
  const std::string path = tmp_path("dedupe");
  snapshot::SaveOptions opts;
  opts.mode = snapshot::SaveMode::kExportRoots;
  snapshot::save(mgr, path, roots, opts);

  mgr.gc();
  const std::size_t live_before = mgr.live_nodes();
  snapshot::RestoreStats rs;
  const std::vector<snapshot::NamedRoot> imported =
      snapshot::import_into(mgr, path, &rs);
  ASSERT_EQ(imported.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_TRUE(imported[i].bdd == roots[i].bdd)
        << "import of an existing function must return the canonical handle";
  }
  mgr.gc();
  EXPECT_EQ(mgr.live_nodes(), live_before);
  std::remove(path.c_str());
}

// import_into also works into a *different* build, merging stores.
TEST(Snapshot, ImportIntoForeignManager) {
  core::BddManager a(10, cfg(2, TableDiscipline::kPassLock));
  const std::vector<snapshot::NamedRoot> ra = build_roots(a, 5);
  const std::vector<std::string> da = dumps_of(a, ra);
  const std::string path = tmp_path("foreign");
  snapshot::save(a, path, ra);

  core::BddManager b(16, cfg(3, TableDiscipline::kLockFree));
  const std::vector<snapshot::NamedRoot> rb = build_roots(b, 4);
  const std::vector<std::string> db = dumps_of(b, rb);
  const std::vector<snapshot::NamedRoot> imported =
      snapshot::import_into(b, path);
  ASSERT_EQ(imported.size(), ra.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(core::dump_function(b, imported[i].bdd), da[i]);
  }
  // The import must not have disturbed b's own functions.
  for (std::size_t i = 0; i < rb.size(); ++i) {
    EXPECT_EQ(core::dump_function(b, rb[i].bdd), db[i]);
  }
  std::remove(path.c_str());
}

TEST(Snapshot, InspectReportsHeader) {
  core::BddManager mgr(10, cfg(4, TableDiscipline::kLockFree));
  const std::vector<snapshot::NamedRoot> roots = build_roots(mgr);
  const std::string path = tmp_path("inspect");
  snapshot::save(mgr, path, roots);
  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  EXPECT_EQ(info.version, snapshot::kFormatVersion);
  EXPECT_EQ(info.num_vars, 10u);
  EXPECT_EQ(info.workers, 4u);
  EXPECT_EQ(info.discipline, TableDiscipline::kLockFree);
  EXPECT_EQ(info.table_shards, 1u);
  EXPECT_EQ(info.root_count, roots.size());
  EXPECT_TRUE(info.has_chains());
  EXPECT_FALSE(info.export_mode());
  std::remove(path.c_str());
}

// Backward compatibility with discipline tag 1. goldens/sharded_v1.snap is
// a full-store snapshot of build_roots(mgr, 4) in an 8-variable manager,
// written with 4 workers by the retired mutex-striped table (tag 1,
// table_shards 4, four bucket segments per level). It must still restore
// with every function intact — through the rehash fallback, because chain
// adoption needs the saving discipline — while a tag past the known range
// stays rejected.
TEST(Snapshot, LegacyShardedSnapshotRestoresThroughRehash) {
  const std::string fixture =
      std::string(PBDD_TEST_GOLDENS_DIR) + "/sharded_v1.snap";
  const snapshot::SnapshotInfo info = snapshot::inspect(fixture);
  EXPECT_EQ(static_cast<unsigned>(info.discipline), 1u);
  EXPECT_EQ(info.table_shards, 4u);
  EXPECT_EQ(info.workers, 4u);
  EXPECT_TRUE(info.has_chains());

  core::BddManager fresh(8, cfg(1, TableDiscipline::kPassLock));
  const std::vector<snapshot::NamedRoot> reference = build_roots(fresh, 4);
  const std::vector<std::string> want = dumps_of(fresh, reference);
  for (const TableDiscipline d :
       {TableDiscipline::kPassLock, TableDiscipline::kLockFree}) {
    SCOPED_TRACE(core::discipline_name(d));
    // Same worker count: references are preserved, so only the discipline
    // mismatch keeps the stored chains from being adopted.
    snapshot::RestoreResult res = snapshot::restore(fixture, cfg(4, d));
    EXPECT_TRUE(res.stats.ref_preserving);
    EXPECT_EQ(res.stats.levels_adopted, 0u);
    ASSERT_EQ(res.roots.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(res.roots[i].name, reference[i].name);
      EXPECT_EQ(core::dump_function(*res.manager, res.roots[i].bdd), want[i])
          << "root " << reference[i].name;
    }
    EXPECT_EQ(test::check_store_invariants(*res.manager), "");
  }

  // Tag 3 under a recomputed header CRC is still an unknown discipline.
  std::vector<std::uint8_t> bytes = slurp(fixture);
  ASSERT_GT(bytes.size(), snapshot::kHeaderBytes);
  bytes[24] = 3;  // discipline field (docs/FORMAT.md, header offset 24)
  const std::uint32_t crc =
      util::crc32(bytes.data(), snapshot::kHeaderBytes - 4);
  std::memcpy(bytes.data() + snapshot::kHeaderBytes - 4, &crc, 4);
  const std::string path = tmp_path("tag3");
  spit(path, bytes);
  try {
    snapshot::restore(path, {});
    ADD_FAILURE() << "tag 3 restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown table discipline tag"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsForeignRootsAndMissingFiles) {
  core::BddManager a(8, cfg(1, TableDiscipline::kPassLock));
  core::BddManager b(8, cfg(1, TableDiscipline::kPassLock));
  const std::vector<snapshot::NamedRoot> foreign = {{"x", b.var(0)}};
  EXPECT_THROW(snapshot::save(a, tmp_path("rf"), foreign), std::runtime_error);
  EXPECT_THROW(snapshot::restore(tmp_path("does_not_exist"), {}),
               std::runtime_error);
  EXPECT_THROW(snapshot::inspect(tmp_path("does_not_exist")),
               std::runtime_error);
}

// ---- Service integration ----------------------------------------------------

namespace svc_helpers {

/// One conjunction batch over the service vars; registers its root.
service::RequestResult build_root(service::BddService& svc,
                                  service::SessionId sid, unsigned seed) {
  std::vector<core::BatchOp> ops;
  ops.push_back(core::BatchOp{Op::And, svc.var(seed % svc.config().num_vars),
                              svc.var((seed + 3) % svc.config().num_vars)});
  ops.push_back(core::BatchOp{Op::Xor, svc.var((seed + 1) % svc.config().num_vars),
                              svc.nvar((seed + 5) % svc.config().num_vars)});
  return svc.execute(sid, std::move(ops), {});
}

}  // namespace svc_helpers

TEST(SnapshotService, SaveAndRestoreSession) {
  const std::string path = tmp_path("svc");
  std::vector<std::string> dumps;
  {
    service::ServiceConfig cfg;
    cfg.num_vars = 12;
    cfg.engine.workers = 2;
    service::BddService svc(cfg);
    const service::SessionId sid = svc.open_session();
    ASSERT_NE(sid, service::kInvalidSession);
    for (unsigned k = 0; k < 4; ++k) {
      const service::RequestResult r = svc_helpers::build_root(svc, sid, k);
      ASSERT_EQ(r.status, service::RequestStatus::kOk);
      for (const core::Bdd& b : r.roots) {
        svc.quiesce_and([&](core::BddManager& m) {
          dumps.push_back(core::dump_function(m, b));
        });
      }
    }
    const service::RequestResult saved =
        svc.save_session(sid, path).get();
    ASSERT_EQ(saved.status, service::RequestStatus::kOk) << saved.error;
    EXPECT_GT(svc.metrics().snapshots_saved, 0u);
    EXPECT_GT(svc.metrics().snapshot_bytes_written, 0u);
  }

  // A fresh service resurrects the session's roots from the file.
  service::ServiceConfig cfg2;
  cfg2.num_vars = 12;
  cfg2.engine.workers = 4;  // different engine shape on purpose
  cfg2.engine.table_discipline = TableDiscipline::kLockFree;
  service::BddService svc2(cfg2);
  const service::SessionId sid2 = svc2.open_session();
  const service::RequestResult restored =
      svc2.restore_session(sid2, path).get();
  ASSERT_EQ(restored.status, service::RequestStatus::kOk) << restored.error;
  ASSERT_EQ(restored.roots.size(), dumps.size());
  for (std::size_t i = 0; i < dumps.size(); ++i) {
    svc2.quiesce_and([&](core::BddManager& m) {
      EXPECT_EQ(core::dump_function(m, restored.roots[i]), dumps[i]);
    });
  }
  EXPECT_EQ(svc2.metrics().snapshots_restored, 1u);
  EXPECT_GT(svc2.metrics().snapshot_nodes_restored, 0u);
  EXPECT_GT(svc2.session_accounted_nodes(sid2), 0u)
      << "restored roots must be accounted against the session quota";
  std::remove(path.c_str());
}

TEST(SnapshotService, SaveFailsCleanlyOnBadPath) {
  service::ServiceConfig cfg;
  cfg.num_vars = 8;
  service::BddService svc(cfg);
  const service::SessionId sid = svc.open_session();
  const service::RequestResult r =
      svc.save_session(sid, "/nonexistent_dir_zz/x.snap").get();
  EXPECT_EQ(r.status, service::RequestStatus::kFailed);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.metrics().snapshot_failures, 1u);
  // The service stays healthy afterwards.
  EXPECT_EQ(svc_helpers::build_root(svc, sid, 1).status,
            service::RequestStatus::kOk);
}

TEST(SnapshotService, PeriodicCheckpointFires) {
  const std::string path = tmp_path("ckpt");
  std::remove(path.c_str());
  service::ServiceConfig cfg;
  cfg.num_vars = 12;
  cfg.engine.workers = 2;
  cfg.checkpoint_every_batches = 2;
  cfg.checkpoint_path = path;
  service::BddService svc(cfg);
  const service::SessionId sid = svc.open_session();
  for (unsigned k = 0; k < 8; ++k) {
    ASSERT_EQ(svc_helpers::build_root(svc, sid, k).status,
              service::RequestStatus::kOk);
  }
  // Checkpoints ride the queue behind the batches; wait for at least one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (svc.metrics().snapshots_saved == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const service::ServiceMetrics m = svc.metrics();
  ASSERT_GT(m.snapshots_saved, 0u);
  EXPECT_EQ(m.snapshot_failures, 0u);
  EXPECT_GT(m.snapshot_pause_ns_max, 0u);
  EXPECT_GT(m.snapshot_pause_ns_p95, 0u);
  EXPECT_NE(svc.metrics_json().find("\"snapshot_pause_ns_p95\""),
            std::string::npos);

  // The checkpoint file is a valid snapshot of the session's roots.
  const snapshot::SnapshotInfo info = snapshot::inspect(path);
  EXPECT_TRUE(info.export_mode());
  std::remove(path.c_str());
}

}  // namespace
