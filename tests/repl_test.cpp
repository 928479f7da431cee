// Replication tier tests (src/net/, src/replica/, docs/REPLICATION.md).
//
// Covers the framed wire protocol, the message codecs, delta planning and
// reassembly, the consistent-hash ring, and the end-to-end loop: one writer
// shipping export-snapshot epochs to an in-process ReplicaServer, a
// SessionRouter serving reads from it, delta ships beating full ships on
// bytes when few levels are dirty, divergence recovering through Nak +
// full-ship retry, and a killed replica failing reads over to the writer
// without a request error.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bdd_manager.hpp"
#include "net/frame.hpp"
#include "net/http.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replica/delta.hpp"
#include "replica/replica_server.hpp"
#include "replica/router.hpp"
#include "replica/wire.hpp"
#include "replica/writer.hpp"
#include "snapshot/snapshot.hpp"
#include "util/crc32.hpp"

namespace {

using namespace pbdd;
using core::TableDiscipline;

std::string tmp_dir(const std::string& tag) {
  const std::string d = testing::TempDir() + "pbdd_repl_" + tag;
  ::mkdir(d.c_str(), 0755);
  return d;
}

core::Config cfg(unsigned workers, TableDiscipline d) {
  core::Config c;
  c.workers = workers;
  c.table_discipline = d;
  return c;
}

snapshot::SaveOptions export_opts() {
  snapshot::SaveOptions o;
  o.mode = snapshot::SaveMode::kExportRoots;
  return o;
}

/// A spread of functions touching every level of a 10-var manager.
std::vector<snapshot::NamedRoot> build_roots(core::BddManager& mgr) {
  std::vector<snapshot::NamedRoot> roots;
  core::Bdd acc = mgr.one();
  for (unsigned v = 0; v + 1 < mgr.num_vars(); ++v) {
    acc = mgr.apply(Op::And, acc,
                    mgr.apply(Op::Xor, mgr.var(v), mgr.var(v + 1)));
    roots.push_back({"f" + std::to_string(v), acc});
  }
  return roots;
}

/// Connected loopback socket pair via an ephemeral listener.
struct SocketPair {
  net::Listener listener;
  net::Socket client;
  net::Socket server;
  SocketPair() : listener(0) {
    client = net::connect_to("127.0.0.1", listener.port());
    server = listener.accept_client();
  }
};

// ---- Framing ----------------------------------------------------------------

TEST(ReplFrame, RoundTripAndCleanEof) {
  SocketPair p;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 42};
  net::send_frame(p.client, 7, payload, 0x11);
  net::send_frame(p.client, 9, std::vector<std::uint8_t>{});
  std::optional<net::Frame> f = net::recv_frame(p.server);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, 7u);
  EXPECT_EQ(f->flags, 0x11u);
  EXPECT_EQ(f->payload, payload);
  f = net::recv_frame(p.server);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, 9u);
  EXPECT_TRUE(f->payload.empty());
  p.client.close();
  EXPECT_FALSE(net::recv_frame(p.server).has_value());  // clean EOF
}

TEST(ReplFrame, ChecksumMismatchThrows) {
  SocketPair p;
  // Handcraft a frame whose payload byte disagrees with its CRC.
  std::uint8_t payload = 0xAB;
  std::uint8_t buf[4 + 2 + 2 + 4 + 1 + 4];
  const std::uint32_t magic = net::kFrameMagic;
  std::memcpy(buf, &magic, 4);
  const std::uint16_t type = 3, flags = 0;
  std::memcpy(buf + 4, &type, 2);
  std::memcpy(buf + 6, &flags, 2);
  const std::uint32_t len = 1;
  std::memcpy(buf + 8, &len, 4);
  buf[12] = payload;
  util::Crc32 crc;
  crc.update(buf + 4, 8);
  crc.update(&payload, 1);
  const std::uint32_t good = crc.value();
  std::memcpy(buf + 13, &good, 4);
  buf[12] ^= 0x40;  // corrupt the payload after sealing the CRC
  p.client.send_all(buf, sizeof(buf));
  EXPECT_THROW((void)net::recv_frame(p.server), std::runtime_error);
}

TEST(ReplFrame, MidFrameEofThrows) {
  SocketPair p;
  const std::uint32_t magic = net::kFrameMagic;
  std::uint8_t head[12] = {};
  std::memcpy(head, &magic, 4);
  const std::uint32_t len = 100;  // promise 100 payload bytes, send none
  std::memcpy(head + 8, &len, 4);
  p.client.send_all(head, sizeof(head));
  p.client.close();
  EXPECT_THROW((void)net::recv_frame(p.server), std::runtime_error);
}

TEST(ReplFrame, PayloadCapEnforced) {
  SocketPair p;
  net::send_frame(p.client, 1, std::vector<std::uint8_t>(64, 0xCC));
  EXPECT_THROW((void)net::recv_frame(p.server, 16), std::runtime_error);
}

// ---- Codecs -----------------------------------------------------------------

TEST(ReplWire, RoundTrips) {
  {
    repl::Hello m;
    m.process_name = "writer";
    m.t_steady_ns = 0x1122334455667788ull;
    const repl::Hello d = repl::decode_hello(repl::encode(m));
    EXPECT_EQ(d.version, repl::kProtocolVersion);
    EXPECT_EQ(d.process_name, m.process_name);
    EXPECT_EQ(d.t_steady_ns, m.t_steady_ns);
  }
  {
    repl::HelloAck m;
    m.applied_epoch = 42;
    m.num_vars = 10;
    m.crc_row = {1, 2, 3, 0xFFFFFFFFu};
    m.process_name = "r0";
    m.t_steady_ns = 987654321;
    const repl::HelloAck d = repl::decode_hello_ack(repl::encode(m));
    EXPECT_EQ(d.applied_epoch, m.applied_epoch);
    EXPECT_EQ(d.num_vars, m.num_vars);
    EXPECT_EQ(d.crc_row, m.crc_row);
    EXPECT_EQ(d.process_name, m.process_name);
    EXPECT_EQ(d.t_steady_ns, m.t_steady_ns);
  }
  {
    repl::ShipBegin m;
    m.epoch = 7;
    m.mode = repl::ShipMode::kDelta;
    m.file_bytes = 123456;
    m.meta = {9, 8, 7};
    m.roots = {1, 2};
    m.dirty = {0, 3, 9};
    m.trace_id = 0xCAFEBABEDEADBEEFull;
    const repl::ShipBegin d = repl::decode_ship_begin(repl::encode(m));
    EXPECT_EQ(d.epoch, m.epoch);
    EXPECT_EQ(d.mode, m.mode);
    EXPECT_EQ(d.file_bytes, m.file_bytes);
    EXPECT_EQ(d.meta, m.meta);
    EXPECT_EQ(d.roots, m.roots);
    EXPECT_EQ(d.dirty, m.dirty);
    EXPECT_EQ(d.trace_id, m.trace_id);
  }
  {
    repl::ShipLevel m;
    m.epoch = 7;
    m.var = 4;
    m.section = std::vector<std::uint8_t>(300, 0x5A);
    const repl::ShipLevel d = repl::decode_ship_level(repl::encode(m));
    EXPECT_EQ(d.epoch, m.epoch);
    EXPECT_EQ(d.var, m.var);
    EXPECT_EQ(d.section, m.section);
  }
  {
    repl::ShipNak m;
    m.epoch = 9;
    m.reason = "splice precondition failed";
    const repl::ShipNak d = repl::decode_ship_nak(repl::encode(m));
    EXPECT_EQ(d.epoch, m.epoch);
    EXPECT_EQ(d.reason, m.reason);
  }
  {
    repl::ReadReq m;
    m.req_id = 11;
    m.op = repl::ReadOp::kEval;
    m.root = "s3/r7";
    m.assignment = {true, false, false, true, true, false, true, false, true};
    m.trace_id = 0x0123456789ABCDEFull;
    const repl::ReadReq d = repl::decode_read_req(repl::encode(m));
    EXPECT_EQ(d.req_id, m.req_id);
    EXPECT_EQ(d.op, m.op);
    EXPECT_EQ(d.root, m.root);
    EXPECT_EQ(d.assignment, m.assignment);
    EXPECT_EQ(d.trace_id, m.trace_id);
  }
  {
    repl::ReadResp m;
    m.req_id = 11;
    m.status = repl::ReadStatus::kOk;
    m.epoch = 3;
    m.value = 1;
    m.sat = 1234.5;
    const repl::ReadResp d = repl::decode_read_resp(repl::encode(m));
    EXPECT_EQ(d.req_id, m.req_id);
    EXPECT_EQ(d.status, m.status);
    EXPECT_EQ(d.epoch, m.epoch);
    EXPECT_EQ(d.value, m.value);
    EXPECT_EQ(d.sat, m.sat);
  }
  {
    repl::Ping m;
    m.nonce = 76;
    m.t_send_ns = 111222333;
    const repl::Ping d = repl::decode_ping(repl::encode(m));
    EXPECT_EQ(d.nonce, m.nonce);
    EXPECT_EQ(d.t_send_ns, m.t_send_ns);
  }
  {
    repl::Pong m;
    m.nonce = 77;
    m.epoch = 5;
    m.t_steady_ns = 444555666;
    const repl::Pong d = repl::decode_pong(repl::encode(m));
    EXPECT_EQ(d.nonce, m.nonce);
    EXPECT_EQ(d.epoch, m.epoch);
    EXPECT_EQ(d.t_steady_ns, m.t_steady_ns);
  }
}

TEST(ReplWire, MalformedPayloadThrows) {
  repl::HelloAck m;
  m.crc_row = {1, 2, 3};
  m.process_name = "r1";
  m.t_steady_ns = 42;
  std::vector<std::uint8_t> good = repl::encode(m);
  // Truncation anywhere must throw, not read garbage.
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    const std::vector<std::uint8_t> bad(good.begin(),
                                        good.begin() +
                                            static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW((void)repl::decode_hello_ack(bad), std::runtime_error)
        << "truncated to " << keep;
  }
  // Trailing garbage is rejected too.
  good.push_back(0);
  EXPECT_THROW((void)repl::decode_hello_ack(good), std::runtime_error);
}

// ---- Delta planning ---------------------------------------------------------

TEST(ReplDelta, PlanDelta) {
  snapshot::LevelDirectory dir;
  dir.info.num_vars = 4;
  dir.levels = {{0, 0, 0, 10}, {0, 0, 0, 20}, {0, 0, 0, 30}, {0, 0, 0, 40}};
  const std::vector<std::uint32_t> row = repl::crc_row_of(dir);
  EXPECT_EQ(row, (std::vector<std::uint32_t>{10, 20, 30, 40}));

  // No epoch applied yet: must ship full.
  EXPECT_FALSE(repl::plan_delta(dir, 0, 4, row).has_value());
  // Variable-count mismatch: row unusable.
  EXPECT_FALSE(repl::plan_delta(dir, 1, 5, row).has_value());
  EXPECT_FALSE(
      repl::plan_delta(dir, 1, 4, {10, 20, 30}).has_value());
  // Identical row: nothing to ship.
  const auto clean = repl::plan_delta(dir, 1, 4, row);
  ASSERT_TRUE(clean.has_value());
  EXPECT_TRUE(clean->empty());
  // Two changed levels travel, the rest splice.
  const auto dirty = repl::plan_delta(dir, 1, 4, {10, 99, 30, 77});
  ASSERT_TRUE(dirty.has_value());
  EXPECT_EQ(*dirty, (std::vector<std::uint32_t>{1, 3}));
}

TEST(ReplDelta, AssemblerRejectsDivergedSplice) {
  // Two unrelated snapshots with the same shape: shipping B as a delta of
  // "nothing dirty" against applied A must fail the splice re-check, not
  // produce a franken-file.
  const std::string dir = tmp_dir("diverge");
  const std::string a_path = dir + "/a.snap";
  const std::string b_path = dir + "/b.snap";
  core::BddManager mgr_a(6, cfg(1, TableDiscipline::kPassLock));
  core::BddManager mgr_b(6, cfg(1, TableDiscipline::kPassLock));
  std::vector<snapshot::NamedRoot> ra = build_roots(mgr_a);
  std::vector<snapshot::NamedRoot> rb = build_roots(mgr_b);
  // Different functions in B so the sections genuinely differ.
  rb[0].bdd = mgr_b.apply(Op::Or, rb[0].bdd, mgr_b.var(5));
  snapshot::save(mgr_a, a_path, ra, export_opts());
  snapshot::save(mgr_b, b_path, rb, export_opts());

  const snapshot::LevelDirectory bdir = snapshot::inspect_levels(b_path);
  std::ifstream in(b_path, std::ios::binary);
  repl::ShipBegin begin;
  begin.epoch = 2;
  begin.mode = repl::ShipMode::kDelta;
  begin.file_bytes = bdir.info.file_bytes;
  begin.meta.resize(bdir.meta_bytes());
  in.read(reinterpret_cast<char*>(begin.meta.data()),
          static_cast<std::streamsize>(begin.meta.size()));
  begin.roots.resize(bdir.root_table_bytes);
  in.seekg(static_cast<std::streamoff>(bdir.root_table_offset));
  in.read(reinterpret_cast<char*>(begin.roots.data()),
          static_cast<std::streamsize>(begin.roots.size()));
  ASSERT_TRUE(in.good());

  repl::Assembler assembler(begin, dir + "/incoming.snap", a_path);
  EXPECT_THROW(assembler.finish(0), std::runtime_error);
  // The unfinished temp file is cleaned up by the destructor; the applied
  // file is untouched.
  EXPECT_NO_THROW(snapshot::inspect_levels(a_path));
}

// ---- Consistent-hash ring ---------------------------------------------------

TEST(ReplRing, DeterministicAndStableUnderGrowth) {
  const repl::SessionRouter::LocalRead local = [](const repl::ReadReq& rq) {
    repl::ReadResp r;
    r.req_id = rq.req_id;
    return r;
  };
  repl::RouterOptions three;
  three.endpoints = {"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"};
  repl::SessionRouter r1(three, local);
  repl::SessionRouter r2(three, local);
  repl::RouterOptions four = three;
  four.endpoints.push_back("10.0.0.4:7000");
  repl::SessionRouter r3(four, local);

  std::size_t moved = 0, to_new = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const std::size_t e1 = r1.endpoint_of(key);
    ASSERT_LT(e1, three.endpoints.size());
    // The ring layout is a pure function of the endpoint list.
    EXPECT_EQ(e1, r2.endpoint_of(key));
    const std::size_t e3 = r3.endpoint_of(key);
    if (e3 != e1) {
      ++moved;
      if (e3 == 3) ++to_new;
    }
  }
  // Consistent hashing: adding one endpoint moves roughly 1/4 of the keys,
  // and everything that moves lands on the new endpoint.
  EXPECT_EQ(moved, to_new);
  EXPECT_GT(moved, 4096u / 16);
  EXPECT_LT(moved, 4096u / 2);
}

// ---- End-to-end: ship, serve, delta, diverge, recover -----------------------

TEST(ReplEndToEnd, ShipServeDeltaAndNakRecovery) {
  const std::string dir = tmp_dir("e2e");
  const std::string replica_dir = dir + "/replica";
  ::mkdir(replica_dir.c_str(), 0755);
  const std::string ship_path = dir + "/ship.snap";

  // Writer and replica deliberately disagree on discipline and workers:
  // the ship/apply path must restore across table disciplines.
  core::BddManager mgr(10, cfg(2, TableDiscipline::kLockFree));
  std::vector<snapshot::NamedRoot> roots = build_roots(mgr);

  repl::ReplicaOptions ro;
  ro.port = 0;
  ro.dir = replica_dir;
  ro.config = cfg(1, TableDiscipline::kPassLock);
  repl::ReplicaServer replica(ro);
  replica.start();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(replica.port());

  repl::WriterOptions wo;
  wo.endpoints = {endpoint};
  repl::ReplicationWriter writer(wo);
  EXPECT_EQ(writer.connect(), 1u);

  // Epoch 1 must ship full (the replica acked nothing).
  snapshot::save(mgr, ship_path, roots, export_opts());
  const repl::ShipReport rep1 = writer.ship_file(ship_path);
  ASSERT_EQ(rep1.replicas.size(), 1u);
  ASSERT_TRUE(rep1.replicas[0].ok) << rep1.replicas[0].error;
  EXPECT_EQ(rep1.replicas[0].mode, repl::ShipMode::kFull);
  EXPECT_EQ(replica.applied_epoch(), 1u);

  // Reads: every answer must match the writer's manager, at epoch 1, and
  // be served by the replica (the local fallback fails the test).
  repl::RouterOptions rto;
  rto.endpoints = {endpoint};
  repl::SessionRouter router(rto, [](const repl::ReadReq& rq) {
    ADD_FAILURE() << "unexpected local fallback for " << rq.root;
    repl::ReadResp r;
    r.req_id = rq.req_id;
    return r;
  });
  std::uint64_t req_id = 0;
  std::vector<bool> assignment(mgr.num_vars());
  for (unsigned v = 0; v < mgr.num_vars(); ++v) assignment[v] = (v % 3) == 0;
  for (const snapshot::NamedRoot& r : roots) {
    repl::ReadReq rq;
    rq.req_id = ++req_id;
    rq.op = repl::ReadOp::kSatCount;
    rq.root = r.name;
    repl::ReadResp resp = router.read(1, rq);
    ASSERT_EQ(resp.status, repl::ReadStatus::kOk) << resp.error;
    EXPECT_EQ(resp.epoch, 1u);
    EXPECT_EQ(resp.sat, mgr.sat_count(r.bdd)) << r.name;

    rq.req_id = ++req_id;
    rq.op = repl::ReadOp::kEval;
    rq.assignment = assignment;
    resp = router.read(1, rq);
    ASSERT_EQ(resp.status, repl::ReadStatus::kOk) << resp.error;
    EXPECT_EQ(resp.value, mgr.eval(r.bdd, assignment) ? 1u : 0u) << r.name;

    rq.req_id = ++req_id;
    rq.op = repl::ReadOp::kRootInfo;
    rq.assignment.clear();
    resp = router.read(1, rq);
    ASSERT_EQ(resp.status, repl::ReadStatus::kOk) << resp.error;
    EXPECT_EQ(resp.value, mgr.node_count(r.bdd)) << r.name;
  }
  EXPECT_EQ(router.counters().replica_reads, req_id);
  EXPECT_EQ(router.counters().failovers, 0u);

  // Unknown root is a typed status, not an error or a failover.
  {
    repl::ReadReq rq;
    rq.req_id = ++req_id;
    rq.op = repl::ReadOp::kSatCount;
    rq.root = "no-such-root";
    const repl::ReadResp resp = router.read(1, rq);
    EXPECT_EQ(resp.status, repl::ReadStatus::kUnknownRoot);
  }

  // Epoch 2: one extra root over the top two variables dirties at most a
  // couple of levels, so the delta must ship far fewer bytes than the full.
  roots.push_back(
      {"extra", mgr.apply(Op::And, mgr.var(0), !mgr.var(1))});
  snapshot::save(mgr, ship_path, roots, export_opts());
  const repl::ShipReport rep2 = writer.ship_file(ship_path);
  ASSERT_TRUE(rep2.replicas[0].ok) << rep2.replicas[0].error;
  EXPECT_EQ(rep2.replicas[0].mode, repl::ShipMode::kDelta);
  EXPECT_FALSE(rep2.replicas[0].retried_full);
  EXPECT_LE(rep2.replicas[0].levels_shipped, mgr.num_vars() / 2);
  EXPECT_LT(rep2.replicas[0].bytes_sent, rep1.replicas[0].bytes_sent);
  EXPECT_EQ(replica.applied_epoch(), 2u);
  {
    repl::ReadReq rq;
    rq.req_id = ++req_id;
    rq.op = repl::ReadOp::kSatCount;
    rq.root = "extra";
    const repl::ReadResp resp = router.read(1, rq);
    ASSERT_EQ(resp.status, repl::ReadStatus::kOk) << resp.error;
    EXPECT_EQ(resp.epoch, 2u);
    EXPECT_EQ(resp.sat, mgr.sat_count(roots.back().bdd));
  }

  // Diverge the replica: corrupt a byte inside a level section of its
  // applied file that the next delta will try to splice. The splice
  // re-check must Nak, and the writer must recover with a full retry in
  // the same ship call.
  {
    const std::string applied = replica_dir + "/applied.snap";
    const snapshot::LevelDirectory adir = snapshot::inspect_levels(applied);
    std::uint64_t off = 0;
    for (std::size_t v = adir.levels.size(); v-- > 0;) {
      if (adir.levels[v].byte_size > 0) {
        off = adir.levels[v].offset;
        break;
      }
    }
    ASSERT_GT(off, 0u);
    std::fstream f(applied,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(off));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(static_cast<std::streamoff>(off));
    f.write(&byte, 1);
    f.close();
  }
  roots.push_back({"extra2", mgr.apply(Op::Or, mgr.var(0), mgr.var(1))});
  snapshot::save(mgr, ship_path, roots, export_opts());
  const repl::ShipReport rep3 = writer.ship_file(ship_path);
  ASSERT_TRUE(rep3.replicas[0].ok) << rep3.replicas[0].error;
  EXPECT_TRUE(rep3.replicas[0].retried_full);
  EXPECT_GE(replica.counters().ship_naks, 1u);
  EXPECT_EQ(replica.applied_epoch(), 3u);
  {
    repl::ReadReq rq;
    rq.req_id = ++req_id;
    rq.op = repl::ReadOp::kSatCount;
    rq.root = "extra2";
    const repl::ReadResp resp = router.read(1, rq);
    ASSERT_EQ(resp.status, repl::ReadStatus::kOk) << resp.error;
    EXPECT_EQ(resp.epoch, 3u);
    EXPECT_EQ(resp.sat, mgr.sat_count(roots.back().bdd));
  }

  // Heartbeat reports the applied epoch.
  const std::vector<std::optional<std::uint64_t>> beats = writer.heartbeat();
  ASSERT_EQ(beats.size(), 1u);
  ASSERT_TRUE(beats[0].has_value());
  EXPECT_EQ(*beats[0], 3u);

  replica.stop();
}

// ---- Failover ---------------------------------------------------------------

TEST(ReplFailover, NotReadyFallsBackLocally) {
  const std::string dir = tmp_dir("notready");
  repl::ReplicaOptions ro;
  ro.dir = dir;
  repl::ReplicaServer replica(ro);
  replica.start();

  repl::RouterOptions rto;
  rto.endpoints = {"127.0.0.1:" + std::to_string(replica.port())};
  repl::SessionRouter router(rto, [](const repl::ReadReq& rq) {
    repl::ReadResp r;
    r.req_id = rq.req_id;
    r.status = repl::ReadStatus::kOk;
    r.value = 123;
    return r;
  });
  repl::ReadReq rq;
  rq.req_id = 1;
  rq.op = repl::ReadOp::kRootInfo;
  rq.root = "anything";
  const repl::ReadResp resp = router.read(5, rq);
  EXPECT_EQ(resp.status, repl::ReadStatus::kOk);
  EXPECT_EQ(resp.value, 123u);  // the local answer
  EXPECT_EQ(router.counters().stale_fallbacks, 1u);
  EXPECT_EQ(router.counters().replica_reads, 0u);
  replica.stop();
}

TEST(ReplFailover, KilledReplicaFailsOverWithoutError) {
  const std::string dir = tmp_dir("kill");
  const std::string replica_dir = dir + "/replica";
  ::mkdir(replica_dir.c_str(), 0755);
  const std::string ship_path = dir + "/ship.snap";

  core::BddManager mgr(8, cfg(1, TableDiscipline::kPassLock));
  const std::vector<snapshot::NamedRoot> roots = build_roots(mgr);

  repl::ReplicaOptions ro;
  ro.dir = replica_dir;
  repl::ReplicaServer replica(ro);
  replica.start();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(replica.port());

  repl::WriterOptions wo;
  wo.endpoints = {endpoint};
  repl::ReplicationWriter writer(wo);
  ASSERT_EQ(writer.connect(), 1u);
  snapshot::save(mgr, ship_path, roots, export_opts());
  ASSERT_EQ(writer.ship_file(ship_path).ok_count(), 1u);

  repl::RouterOptions rto;
  rto.endpoints = {endpoint};
  repl::SessionRouter router(rto, [&](const repl::ReadReq& rq) {
    // The writer-side fallback: answer from the live manager.
    repl::ReadResp r;
    r.req_id = rq.req_id;
    r.status = repl::ReadStatus::kOk;
    r.sat = mgr.sat_count(roots[0].bdd);
    return r;
  });

  repl::ReadReq rq;
  rq.req_id = 1;
  rq.op = repl::ReadOp::kSatCount;
  rq.root = roots[0].name;
  repl::ReadResp resp = router.read(9, rq);
  ASSERT_EQ(resp.status, repl::ReadStatus::kOk);
  const double expected = mgr.sat_count(roots[0].bdd);
  EXPECT_EQ(resp.sat, expected);
  EXPECT_EQ(router.counters().replica_reads, 1u);

  // Kill the replica mid-run: the very next read must still succeed (via
  // the writer) — no request error escapes the router.
  replica.stop();
  for (int i = 0; i < 3; ++i) {
    rq.req_id = 2 + static_cast<std::uint64_t>(i);
    resp = router.read(9, rq);
    ASSERT_EQ(resp.status, repl::ReadStatus::kOk);
    EXPECT_EQ(resp.sat, expected);
  }
  EXPECT_GE(router.counters().failovers, 3u);
}

// ---- HTTP telemetry endpoints -----------------------------------------------

/// Raw request/response over one connection; the server closes after each
/// response (Connection: close), so read-until-EOF captures the whole reply.
std::string http_roundtrip(std::uint16_t port, const std::string& request) {
  net::Socket s = net::connect_to("127.0.0.1", port);
  s.send_all(request.data(), request.size());
  std::string out;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(s.fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

TEST(ReplHttp, EndpointsServeMetricsAndRejectUnknown) {
  net::HttpServer http;
  http.handle("/metrics", [] {
    net::HttpResponse r;
    r.content_type = net::kPrometheusContentType;
    obs::Registry reg;
    reg.gauge("pbdd_http_test_up", "test gauge").set(1.0);
    r.body = reg.prometheus_text();
    return r;
  });
  http.handle("/healthz", [] {
    net::HttpResponse r;
    r.content_type = "application/json";
    r.body = "{\"status\": \"ok\"}\n";
    return r;
  });
  http.handle("/boom", []() -> net::HttpResponse {
    throw std::runtime_error("handler exploded");
  });
  http.start(0);  // ephemeral
  ASSERT_GT(http.port(), 0);

  const std::string ok = http_roundtrip(
      http.port(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("version=0.0.4"), std::string::npos) << ok;
  EXPECT_NE(ok.find("pbdd_http_test_up 1"), std::string::npos) << ok;

  // Query strings resolve to the bare path.
  const std::string q = http_roundtrip(
      http.port(), "GET /healthz?verbose=1 HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(q.find("HTTP/1.1 200 OK"), std::string::npos) << q;
  EXPECT_NE(q.find("\"status\": \"ok\""), std::string::npos) << q;

  const std::string missing = http_roundtrip(
      http.port(), "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;

  const std::string post = http_roundtrip(
      http.port(), "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos) << post;

  const std::string boom = http_roundtrip(
      http.port(), "GET /boom HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(boom.find("HTTP/1.1 500"), std::string::npos) << boom;

  http.stop();
  // Stopped server refuses connections.
  EXPECT_THROW((void)net::connect_to("127.0.0.1", http.port()),
               std::runtime_error);
}

// ---- Clock-offset handshake -------------------------------------------------

TEST(ReplClock, HandshakeRecordsPeerOffset) {
  // Writer and replica share this process's Tracer, so the replica's
  // HelloAck identity is the process name we set here and the measured
  // steady-clock offset must be ~0 (same clock, loopback RTT).
  obs::Tracer::instance().set_process_name("fleet-node");
  const std::string dir = tmp_dir("clock");
  repl::ReplicaOptions ro;
  ro.port = 0;
  ro.dir = dir;
  ro.config = cfg(1, TableDiscipline::kPassLock);
  repl::ReplicaServer server(ro);
  server.start();

  repl::WriterOptions wo;
  wo.endpoints = {"127.0.0.1:" + std::to_string(server.port())};
  repl::ReplicationWriter writer(wo);
  ASSERT_EQ(writer.connect(), 1u);

  const std::map<std::string, std::int64_t> offsets =
      obs::Tracer::instance().clock_offsets();
  const auto it = offsets.find("fleet-node");
  ASSERT_NE(it, offsets.end());
  // Same physical clock: anything beyond scheduling noise means the
  // midpoint math is wrong.
  EXPECT_LT(std::llabs(it->second), 100'000'000ll) << it->second;
  server.stop();
}

}  // namespace
