// Parallel checkpoint/restore implementation (see snapshot.hpp and
// docs/FORMAT.md for the contracts and the byte-level layout).
//
// Parallelization mirrors the engine's own phase structure: variables are
// dealt round-robin to the manager's worker pool, so a level's section is
// produced (save) or consumed (restore) by exactly one thread, keeping the
// per-(worker, variable) arenas and the per-variable unique tables
// single-writer without any new locks. Cross-level references never block
// restore: the local-id -> NodeRef mapping is arithmetic over the per-level
// worker counts stored in the level directory, known before any node is
// materialized.
#include "snapshot/snapshot.hpp"

#include "snapshot/level_codec.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/node.hpp"
#include "runtime/inject.hpp"
#include "snapshot/format.hpp"
#include "util/crc32.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace pbdd::snapshot {

using core::BddManager;
using core::BddNode;
using core::NodeRef;
using core::TableDiscipline;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

[[noreturn]] void fail_errno(const std::string& what) {
  fail(what + ": " + std::strerror(errno));
}

struct Fd {
  int fd = -1;
  Fd() = default;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

void pwrite_all(int fd, const void* data, std::size_t size,
                std::uint64_t offset) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

void pread_all(int fd, void* data, std::size_t size, std::uint64_t offset) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::pread(fd, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("read");
    }
    if (n == 0) fail("truncated file");
    p += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

[[nodiscard]] std::uint32_t read_u32_at(const std::uint8_t* buf,
                                        std::size_t offset) {
  std::uint32_t v;
  std::memcpy(&v, buf + offset, 4);
  return v;
}

/// Hashes the header's table_shards field too, which writers fill with 1.
[[nodiscard]] std::uint64_t config_fingerprint(unsigned num_vars,
                                               unsigned workers,
                                               TableDiscipline discipline) {
  return util::hash_pair(
      util::hash_pair(num_vars, workers),
      util::hash_pair(static_cast<std::uint64_t>(discipline), 1));
}

constexpr std::size_t kExportRecordBytes = 8 + 8;

// ---- Parsed file metadata ---------------------------------------------------

struct DirEntry {
  std::uint64_t offset = 0;
  std::uint64_t byte_size = 0;
  std::uint32_t node_count = 0;
  std::uint32_t crc = 0;
};

struct FileMeta {
  SnapshotInfo info;
  std::vector<DirEntry> dir;
  /// Per level, per *saved* worker: how many node records that worker
  /// contributed (level-local ids concatenate in this order).
  std::vector<std::vector<std::uint32_t>> saved_counts;
  std::vector<std::pair<std::string, std::uint64_t>> roots;
  [[nodiscard]] bool has_chains() const noexcept {
    return (info.flags & kFlagChains) != 0;
  }
};

[[nodiscard]] std::size_t dir_bytes(unsigned num_vars, unsigned workers) {
  return std::size_t{num_vars} * kDirEntryBytes +
         std::size_t{num_vars} * workers * 4 + 4;
}

SnapshotInfo read_header(int fd, std::uint64_t file_size) {
  if (file_size < kHeaderBytes) fail("truncated header");
  std::uint8_t raw[kHeaderBytes];
  pread_all(fd, raw, sizeof(raw), 0);
  if (util::crc32(raw, kHeaderBytes - 4) !=
      read_u32_at(raw, kHeaderBytes - 4)) {
    fail("header checksum mismatch");
  }
  ByteReader rd(raw, sizeof(raw));
  char magic[8];
  rd.bytes(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) fail("not a snapshot file");
  SnapshotInfo info;
  info.version = rd.u32();
  if (info.version != kFormatVersion) {
    fail("unsupported format version " + std::to_string(info.version));
  }
  info.flags = rd.u32();
  if ((info.flags & ~kKnownFlags) != 0) fail("unknown format flags");
  info.num_vars = rd.u32();
  info.workers = rd.u32();
  // Tags 0 and 2 are the live disciplines. Tag 1 (the retired striped
  // kSharded table, with its shard count in table_shards) still reads:
  // chain adoption needs the saving discipline, so such a file restores
  // through the rehash fallback.
  const std::uint32_t discipline = rd.u32();
  if (discipline > static_cast<std::uint32_t>(TableDiscipline::kLockFree)) {
    fail("unknown table discipline tag");
  }
  info.discipline = static_cast<TableDiscipline>(discipline);
  info.table_shards = rd.u32();
  info.total_nodes = rd.u64();
  const std::uint64_t root_offset = rd.u64();
  const std::uint64_t root_bytes = rd.u64();
  (void)rd.u64();  // config fingerprint: informational
  if (info.num_vars == 0 || info.num_vars >= core::kTermLevel) {
    fail("bad variable count");
  }
  if (info.workers == 0 || info.workers > 0x3FFFu) fail("bad worker count");
  if (root_offset > file_size || root_bytes > file_size - root_offset) {
    fail("root table out of bounds");
  }
  // Stash the root-table window in the info for read_meta (not part of the
  // public struct fields that matter to callers).
  info.file_bytes = file_size;
  info.root_count = 0;  // filled by read_meta
  return info;
}

FileMeta read_meta(int fd, std::uint64_t file_size) {
  // Re-parse the header here to recover the root-table window (read_header
  // validates it but only returns the public fields).
  std::uint8_t raw[kHeaderBytes];
  pread_all(fd, raw, sizeof(raw), 0);
  FileMeta meta;
  meta.info = read_header(fd, file_size);
  ByteReader hr(raw, sizeof(raw));
  char magic[8];
  hr.bytes(magic, 8);
  for (int i = 0; i < 6; ++i) (void)hr.u32();
  (void)hr.u64();  // total_nodes
  const std::uint64_t root_offset = hr.u64();
  const std::uint64_t root_bytes = hr.u64();

  const unsigned num_vars = meta.info.num_vars;
  const unsigned workers = meta.info.workers;
  const std::size_t dsize = dir_bytes(num_vars, workers);
  if (file_size < kHeaderBytes + dsize) fail("truncated level directory");
  std::vector<std::uint8_t> dbuf(dsize);
  pread_all(fd, dbuf.data(), dsize, kHeaderBytes);
  if (util::crc32(dbuf.data(), dsize - 4) !=
      read_u32_at(dbuf.data(), dsize - 4)) {
    fail("level directory checksum mismatch");
  }
  ByteReader rd(dbuf.data(), dsize);
  meta.dir.resize(num_vars);
  std::uint64_t total = 0;
  for (DirEntry& e : meta.dir) {
    e.offset = rd.u64();
    e.byte_size = rd.u64();
    e.node_count = rd.u32();
    e.crc = rd.u32();
    if (e.offset > file_size || e.byte_size > file_size - e.offset) {
      fail("level section out of bounds");
    }
    total += e.node_count;
  }
  if (total != meta.info.total_nodes) fail("node count mismatch");
  meta.saved_counts.assign(num_vars, {});
  for (unsigned v = 0; v < num_vars; ++v) {
    auto& row = meta.saved_counts[v];
    row.resize(workers);
    std::uint64_t sum = 0;
    for (std::uint32_t& c : row) {
      c = rd.u32();
      sum += c;
    }
    if (sum != meta.dir[v].node_count) fail("worker count matrix mismatch");
  }

  if (root_bytes < 8) fail("root table too small");
  std::vector<std::uint8_t> rbuf(root_bytes);
  pread_all(fd, rbuf.data(), root_bytes, root_offset);
  if (util::crc32(rbuf.data(), root_bytes - 4) !=
      read_u32_at(rbuf.data(), root_bytes - 4)) {
    fail("root table checksum mismatch");
  }
  ByteReader rr(rbuf.data(), root_bytes - 4);
  const std::uint32_t count = rr.u32();
  meta.roots.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t len = rr.u16();
    std::string name(len, '\0');
    rr.bytes(name.data(), len);
    const std::uint64_t ref = rr.u64();
    if (!disk_ref_is_terminal(ref)) {
      const unsigned v = disk_ref_var(ref);
      if (v >= num_vars || disk_ref_local(ref) >= meta.dir[v].node_count) {
        fail("root reference out of bounds");
      }
    }
    meta.roots.emplace_back(std::move(name), ref);
  }
  if (rr.remaining() != 0) fail("trailing bytes in root table");
  meta.info.root_count = count;
  return meta;
}

[[nodiscard]] std::uint64_t file_size_of(int fd) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) fail_errno("stat");
  return static_cast<std::uint64_t>(st.st_size);
}

void rethrow_level_errors(const std::vector<std::string>& errs) {
  for (std::size_t v = 0; v < errs.size(); ++v) {
    if (!errs[v].empty()) {
      fail("level " + std::to_string(v) + ": " + errs[v]);
    }
  }
}

std::string json_common(std::uint64_t bytes, std::uint32_t levels,
                        std::uint64_t nodes, std::uint32_t roots) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"bytes\":%llu,\"levels\":%u,\"nodes\":%llu,\"roots\":%u",
                static_cast<unsigned long long>(bytes), levels,
                static_cast<unsigned long long>(nodes), roots);
  return buf;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

bool SnapshotInfo::export_mode() const noexcept {
  return (flags & kFlagExportRoots) != 0;
}
bool SnapshotInfo::has_chains() const noexcept {
  return (flags & kFlagChains) != 0;
}

std::string SaveStats::to_json() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%s,\"nonempty_levels\":%u,\"mark_ms\":%.3f,"
                "\"layout_ms\":%.3f,\"write_ms\":%.3f,\"total_ms\":%.3f}",
                json_common(bytes, levels, nodes, roots).c_str(),
                nonempty_levels, ms(mark_ns), ms(layout_ns), ms(write_ns),
                ms(total_ns));
  return buf;
}

std::string RestoreStats::to_json() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%s,\"ref_preserving\":%s,\"levels_adopted\":%u,"
                "\"read_ms\":%.3f,\"build_ms\":%.3f,\"total_ms\":%.3f}",
                json_common(bytes, levels, nodes, roots).c_str(),
                ref_preserving ? "true" : "false", levels_adopted,
                ms(read_ns), ms(build_ns), ms(total_ns));
  return buf;
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

SaveStats save(BddManager& mgr, const std::string& path,
               const std::vector<NamedRoot>& roots, const SaveOptions& opts) {
  util::WallTimer total;
  util::WallTimer phase;
  SaveStats stats;
  const unsigned num_vars = mgr.num_vars();
  const unsigned workers = mgr.workers();
  const bool export_mode = opts.mode == SaveMode::kExportRoots;
  // The layout and write phases walk every arena directly; nothing may stay
  // on disk in the paging tier while they run.
  mgr.ensure_all_resident();

  std::vector<NodeRef> root_refs;
  root_refs.reserve(roots.size());
  for (const NamedRoot& r : roots) {
    if (!r.bdd.valid() || r.bdd.manager() != &mgr) {
      fail("root '" + r.name + "' does not belong to this manager");
    }
    if (r.name.size() > 0xFFFFu) fail("root name too long: " + r.name);
    root_refs.push_back(r.bdd.ref());
  }

  // --- Mark phase (export mode): standalone GC mark from the roots.
  if (export_mode) mgr.snapshot_mark(root_refs);
  stats.mark_ns = phase.elapsed_ns();
  phase.reset();

  // --- Layout phase: per-(level, worker) included-node counts; in export
  // mode the pool also stashes dense level-local ids in the aux words
  // (mark bit | local, exactly gc_forward's encoding).
  std::vector<std::vector<std::uint32_t>> counts(num_vars);
  for (auto& row : counts) row.assign(workers, 0);
  if (export_mode) {
    mgr.run_on_workers([&](unsigned id) {
      for (unsigned v = id; v < num_vars; v += workers) {
        std::uint32_t local = 0;
        for (unsigned w = 0; w < workers; ++w) {
          const core::NodeArena& arena = mgr.worker(w).node_arena(v);
          const std::uint32_t allocated = arena.size();
          std::uint32_t included = 0;
          for (std::uint32_t s = 0; s < allocated; ++s) {
            BddNode& n = arena.at(s);
            if ((n.aux.load(std::memory_order_relaxed) &
                 BddNode::kMarkBit) == 0) {
              continue;
            }
            n.aux.store(BddNode::kMarkBit | (local + included),
                        std::memory_order_relaxed);
            ++included;
          }
          counts[v][w] = included;
          local += included;
        }
      }
    });
  } else {
    for (unsigned v = 0; v < num_vars; ++v) {
      for (unsigned w = 0; w < workers; ++w) {
        counts[v][w] = mgr.worker(w).node_arena(v).size();
      }
    }
  }

  std::vector<std::vector<std::uint32_t>> prefix(num_vars);
  std::vector<std::uint32_t> level_nodes(num_vars, 0);
  for (unsigned v = 0; v < num_vars; ++v) {
    prefix[v].assign(workers + 1, 0);
    for (unsigned w = 0; w < workers; ++w) {
      prefix[v][w + 1] = prefix[v][w] + counts[v][w];
    }
    level_nodes[v] = prefix[v][workers];
    stats.nodes += level_nodes[v];
    if (level_nodes[v] > 0) ++stats.nonempty_levels;
  }

  const TableDiscipline discipline = mgr.config().table_discipline;

  const std::size_t record_bytes =
      export_mode ? kExportRecordBytes : kFullRecordBytes;
  std::vector<DirEntry> dir(num_vars);
  std::uint64_t cursor = kHeaderBytes + dir_bytes(num_vars, workers);
  for (unsigned v = 0; v < num_vars; ++v) {
    std::size_t section = 4;  // var sanity field
    if (!export_mode) {
      // Chain structure: one segment, then its bucket heads.
      section += 4 + 16 + mgr.unique(v).buckets() * 4;
    }
    section += std::size_t{level_nodes[v]} * record_bytes;
    dir[v].offset = cursor;
    dir[v].byte_size = section;
    dir[v].node_count = level_nodes[v];
    cursor += section;
  }
  const std::uint64_t root_table_offset = cursor;

  // Disk encoding of a reference under this save's local-id assignment.
  auto disk_ref_of = [&](NodeRef r) -> std::uint64_t {
    if (core::is_terminal(r)) return r;
    const unsigned v = core::var_of(r);
    const std::uint32_t local =
        export_mode
            ? static_cast<std::uint32_t>(
                  mgr.node(r).aux.load(std::memory_order_relaxed))
            : prefix[v][core::worker_of(r)] + core::slot_of(r);
    return make_disk_ref(v, local);
  };

  // Root disk refs must be computed before the marks are cleared.
  std::vector<std::uint64_t> root_disk;
  root_disk.reserve(root_refs.size());
  for (const NodeRef r : root_refs) root_disk.push_back(disk_ref_of(r));
  stats.layout_ns = phase.elapsed_ns();
  phase.reset();

  // --- Write phase: one pool worker per group of variables serializes its
  // sections into private buffers and pwrites them at precomputed offsets.
  Fd fd(::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644));
  if (fd.fd < 0) fail_errno("open " + path);
  std::vector<std::string> level_errs(num_vars);
  mgr.run_on_workers([&](unsigned id) {
    for (unsigned v = id; v < num_vars; v += workers) {
      PBDD_INJECT(kSnapshotWrite);
      try {
        ByteWriter out(dir[v].byte_size);
        out.u32(v);
        if (!export_mode) {
          const core::VarUniqueTable& table = mgr.unique(v);
          LevelChains chains;
          chains.seg_buckets = {table.buckets()};
          chains.seg_counts = {table.count()};
          const std::vector<NodeRef> heads = table.bucket_heads();
          chains.head_locals.reserve(heads.size());
          for (const NodeRef head : heads) {
            chains.head_locals.push_back(
                head == core::kZero
                    ? kNilLocal
                    : prefix[v][core::worker_of(head)] +
                          core::slot_of(head));
          }
          encode_chains(out, chains);
        }
        for (unsigned w = 0; w < workers; ++w) {
          const core::NodeArena& arena = mgr.worker(w).node_arena(v);
          const std::uint32_t allocated = arena.size();
          for (std::uint32_t s = 0; s < allocated; ++s) {
            const BddNode& n = arena.at(s);
            if (export_mode) {
              if ((n.aux.load(std::memory_order_relaxed) &
                   BddNode::kMarkBit) == 0) {
                continue;
              }
              out.u64(disk_ref_of(n.low));
              out.u64(disk_ref_of(n.high));
              continue;
            }
            if (n.low == core::kInvalid && n.high == core::kInvalid) {
              // Tombstone (lock-free losing racer): chained nowhere.
              out.u64(kTombstoneField);
              out.u64(kTombstoneField);
              out.u32(kNilLocal);
              continue;
            }
            out.u64(disk_ref_of(n.low));
            out.u64(disk_ref_of(n.high));
            const NodeRef next = n.next.load(std::memory_order_relaxed);
            out.u32(next == core::kZero
                        ? kNilLocal
                        : prefix[v][core::worker_of(next)] +
                              core::slot_of(next));
          }
        }
        if (out.size() != dir[v].byte_size) {
          throw std::runtime_error("section size mismatch (internal)");
        }
        dir[v].crc = util::crc32(out.data().data(), out.size());
        pwrite_all(fd.fd, out.data().data(), out.size(), dir[v].offset);
      } catch (const std::exception& e) {
        level_errs[v] = e.what();
      }
    }
  });
  if (export_mode) mgr.snapshot_clear_marks();
  rethrow_level_errors(level_errs);

  // --- Directory, root table, header (caller thread).
  ByteWriter dout(dir_bytes(num_vars, workers));
  for (const DirEntry& e : dir) {
    dout.u64(e.offset);
    dout.u64(e.byte_size);
    dout.u32(e.node_count);
    dout.u32(e.crc);
  }
  for (unsigned v = 0; v < num_vars; ++v) {
    for (unsigned w = 0; w < workers; ++w) dout.u32(counts[v][w]);
  }
  dout.u32(util::crc32(dout.data().data(), dout.size()));
  pwrite_all(fd.fd, dout.data().data(), dout.size(), kHeaderBytes);

  ByteWriter rout;
  rout.u32(static_cast<std::uint32_t>(roots.size()));
  for (std::size_t i = 0; i < roots.size(); ++i) {
    rout.u16(static_cast<std::uint16_t>(roots[i].name.size()));
    rout.bytes(roots[i].name.data(), roots[i].name.size());
    rout.u64(root_disk[i]);
  }
  rout.u32(util::crc32(rout.data().data(), rout.size()));
  pwrite_all(fd.fd, rout.data().data(), rout.size(), root_table_offset);

  ByteWriter hout(kHeaderBytes);
  hout.bytes(kMagic, 8);
  hout.u32(kFormatVersion);
  hout.u32(export_mode ? kFlagExportRoots : kFlagChains);
  hout.u32(num_vars);
  hout.u32(workers);
  hout.u32(static_cast<std::uint32_t>(discipline));
  hout.u32(1);  // table_shards: informational, always 1
  hout.u64(stats.nodes);
  hout.u64(root_table_offset);
  hout.u64(rout.size());
  hout.u64(config_fingerprint(num_vars, workers, discipline));
  hout.u32(util::crc32(hout.data().data(), hout.size()));
  pwrite_all(fd.fd, hout.data().data(), hout.size(), 0);

  if (opts.sync && ::fsync(fd.fd) != 0) fail_errno("fsync");

  stats.bytes = root_table_offset + rout.size();
  stats.levels = num_vars;
  stats.roots = static_cast<std::uint32_t>(roots.size());
  stats.write_ns = phase.elapsed_ns();
  stats.total_ns = total.elapsed_ns();
  return stats;
}

// ---------------------------------------------------------------------------
// Restore (fresh manager)
// ---------------------------------------------------------------------------

RestoreResult restore(const std::string& path, core::Config config) {
  util::WallTimer total;
  util::WallTimer phase;
  RestoreResult result;
  RestoreStats& stats = result.stats;

  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.fd < 0) fail_errno("open " + path);
  const std::uint64_t file_size = file_size_of(fd.fd);
  const FileMeta meta = read_meta(fd.fd, file_size);
  stats.read_ns = phase.elapsed_ns();
  phase.reset();

  auto mgr = std::make_unique<BddManager>(meta.info.num_vars, config);
  const unsigned num_vars = meta.info.num_vars;
  const unsigned workers = mgr->workers();
  const bool ref_preserving = workers == meta.info.workers;
  stats.ref_preserving = ref_preserving;

  // Node distribution across the restoring manager's workers. When the
  // worker count matches the saved one, reusing the saved per-worker counts
  // reproduces every NodeRef bit-identically (slots allocate densely in
  // order), which is what validates the stored chains. Otherwise nodes are
  // dealt in contiguous even chunks and everything rehashes.
  std::vector<std::vector<std::uint32_t>> prefix(num_vars);
  for (unsigned v = 0; v < num_vars; ++v) {
    prefix[v].assign(workers + 1, 0);
    if (ref_preserving) {
      for (unsigned w = 0; w < workers; ++w) {
        prefix[v][w + 1] = prefix[v][w] + meta.saved_counts[v][w];
      }
    } else {
      const std::uint32_t n = meta.dir[v].node_count;
      const std::uint32_t base = n / workers;
      const std::uint32_t rem = n % workers;
      for (unsigned w = 0; w < workers; ++w) {
        prefix[v][w + 1] = prefix[v][w] + base + (w < rem ? 1 : 0);
      }
    }
  }
  auto local_to_ref = [&](unsigned v, std::uint32_t local) -> NodeRef {
    unsigned w = 0;
    while (prefix[v][w + 1] <= local) ++w;
    return core::make_node_ref(w, v, local - prefix[v][w]);
  };

  std::vector<std::string> level_errs(num_vars);
  std::atomic<std::uint32_t> adopted{0};
  std::atomic<std::uint64_t> built{0};
  mgr->run_on_workers([&](unsigned id) {
    for (unsigned v = id; v < num_vars; v += workers) {
      PBDD_INJECT(kSnapshotRestore);
      try {
        const DirEntry& e = meta.dir[v];
        std::vector<std::uint8_t> buf(e.byte_size);
        pread_all(fd.fd, buf.data(), buf.size(), e.offset);
        if (util::crc32(buf.data(), buf.size()) != e.crc) {
          throw std::runtime_error("section checksum mismatch");
        }
        ByteReader rd(buf.data(), buf.size());
        if (rd.u32() != v) throw std::runtime_error("level tag mismatch");

        LevelChains chains;
        if (meta.has_chains()) chains = decode_chains(rd);

        // Materialize this level's nodes; slots come out 0..count-1 per
        // worker because the arenas are untouched until now.
        std::uint64_t live = 0;
        for (unsigned w = 0; w < workers; ++w) {
          core::NodeArena& arena = mgr->worker(w).node_arena(v);
          const std::uint32_t n = prefix[v][w + 1] - prefix[v][w];
          for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint64_t dlow = rd.u64();
            const std::uint64_t dhigh = rd.u64();
            const std::uint32_t dnext =
                meta.has_chains() ? rd.u32() : kNilLocal;
            const std::uint32_t slot = arena.alloc();
            BddNode& node = arena.at_own(slot);
            node.aux.store(0, std::memory_order_relaxed);
            if (dlow == kTombstoneField && dhigh == kTombstoneField) {
              node.low = core::kInvalid;
              node.high = core::kInvalid;
              node.next.store(core::kZero, std::memory_order_relaxed);
              continue;
            }
            auto decode = [&](std::uint64_t d) -> NodeRef {
              if (disk_ref_is_terminal(d)) return d;
              const unsigned cv = disk_ref_var(d);
              if (cv >= num_vars || cv <= v ||
                  disk_ref_local(d) >= meta.dir[cv].node_count) {
                throw std::runtime_error("child reference out of bounds");
              }
              return local_to_ref(cv, disk_ref_local(d));
            };
            node.low = decode(dlow);
            node.high = decode(dhigh);
            if (node.low == node.high) {
              throw std::runtime_error("redundant node in snapshot");
            }
            node.next.store(
                dnext == kNilLocal ? core::kZero : local_to_ref(v, dnext),
                std::memory_order_relaxed);
            ++live;
          }
        }
        if (rd.remaining() != 0) {
          throw std::runtime_error("trailing bytes in level section");
        }
        built.fetch_add(live, std::memory_order_relaxed);

        // Unique-table rebuild: adopt the stored chains when the restored
        // references are bit-identical to the saved ones and the table
        // shape still hashes the same way; otherwise presize and rehash.
        core::VarUniqueTable& table = mgr->unique(v);
        bool level_adopted = false;
        if (meta.has_chains() && ref_preserving) {
          std::vector<NodeRef> heads;
          heads.reserve(chains.head_locals.size());
          for (const std::uint32_t h : chains.head_locals) {
            heads.push_back(h == kNilLocal ? core::kZero
                                           : local_to_ref(v, h));
          }
          level_adopted =
              chains.seg_counts.size() == 1 &&
              table.adopt_chains(meta.info.discipline, chains.seg_counts[0],
                                 heads);
        }
        if (!level_adopted && live > 0) {
          table.reset_chains(live);
          for (unsigned w = 0; w < workers; ++w) {
            core::NodeArena& arena = mgr->worker(w).node_arena(v);
            const std::uint32_t n = arena.size();
            for (std::uint32_t s = 0; s < n; ++s) {
              const BddNode& node = arena.at_own(s);
              if (node.low == core::kInvalid &&
                  node.high == core::kInvalid) {
                continue;
              }
              table.reinsert(w, core::make_node_ref(w, v, s), node.low,
                             node.high);
            }
          }
        }
        if (level_adopted) adopted.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& ex) {
        level_errs[v] = ex.what();
      }
    }
  });
  rethrow_level_errors(level_errs);

  stats.build_ns = phase.elapsed_ns();
  stats.bytes = file_size;
  stats.levels = num_vars;
  stats.nodes = built.load(std::memory_order_relaxed);
  stats.levels_adopted = adopted.load(std::memory_order_relaxed);

  result.roots.reserve(meta.roots.size());
  for (const auto& [name, dref] : meta.roots) {
    const NodeRef r = disk_ref_is_terminal(dref)
                          ? dref
                          : local_to_ref(disk_ref_var(dref),
                                         disk_ref_local(dref));
    result.roots.push_back({name, mgr->make_root(r)});
  }
  stats.roots = static_cast<std::uint32_t>(result.roots.size());
  stats.total_ns = total.elapsed_ns();
  result.manager = std::move(mgr);
  return result;
}

// ---------------------------------------------------------------------------
// Import into a live manager
// ---------------------------------------------------------------------------

std::vector<NamedRoot> import_into(BddManager& mgr, const std::string& path,
                                   RestoreStats* out_stats) {
  util::WallTimer total;
  util::WallTimer phase;
  RestoreStats stats;

  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.fd < 0) fail_errno("open " + path);
  const std::uint64_t file_size = file_size_of(fd.fd);
  const FileMeta meta = read_meta(fd.fd, file_size);
  if (meta.info.num_vars > mgr.num_vars()) {
    fail("snapshot has more variables than the manager");
  }
  stats.read_ns = phase.elapsed_ns();
  phase.reset();

  // Levels stream bottom-up (deepest variable first) so every child is
  // already materialized; nodes go through the normal find-or-insert path,
  // deduplicating against whatever the manager already holds.
  const unsigned num_vars = meta.info.num_vars;
  std::vector<std::vector<NodeRef>> local2ref(num_vars);
  for (unsigned step = 0; step < num_vars; ++step) {
    const unsigned v = num_vars - 1 - step;
    PBDD_INJECT(kSnapshotRestore);
    const DirEntry& e = meta.dir[v];
    std::vector<std::uint8_t> buf(e.byte_size);
    pread_all(fd.fd, buf.data(), buf.size(), e.offset);
    if (util::crc32(buf.data(), buf.size()) != e.crc) {
      fail("level " + std::to_string(v) + ": section checksum mismatch");
    }
    ByteReader rd(buf.data(), buf.size());
    if (rd.u32() != v) fail("level " + std::to_string(v) + ": tag mismatch");
    if (meta.has_chains()) {
      // Chain structure is meaningless across managers; skip it.
      skip_chains(rd);
    }
    local2ref[v].assign(e.node_count, core::kInvalid);
    for (std::uint32_t i = 0; i < e.node_count; ++i) {
      const std::uint64_t dlow = rd.u64();
      const std::uint64_t dhigh = rd.u64();
      if (meta.has_chains()) (void)rd.u32();
      if (dlow == kTombstoneField && dhigh == kTombstoneField) continue;
      auto decode = [&](std::uint64_t d) -> NodeRef {
        if (disk_ref_is_terminal(d)) return d;
        const unsigned cv = disk_ref_var(d);
        if (cv >= num_vars || cv <= v ||
            disk_ref_local(d) >= local2ref[cv].size()) {
          fail("level " + std::to_string(v) + ": child out of bounds");
        }
        const NodeRef r = local2ref[cv][disk_ref_local(d)];
        if (r == core::kInvalid) {
          fail("level " + std::to_string(v) + ": dangling child");
        }
        return r;
      };
      const NodeRef low = decode(dlow);
      const NodeRef high = decode(dhigh);
      if (low == high) fail("level " + std::to_string(v) + ": redundant node");
      local2ref[v][i] = mgr.mk_node(v, low, high);
      ++stats.nodes;
    }
    if (rd.remaining() != 0) {
      fail("level " + std::to_string(v) + ": trailing bytes");
    }
  }
  stats.build_ns = phase.elapsed_ns();

  std::vector<NamedRoot> out;
  out.reserve(meta.roots.size());
  for (const auto& [name, dref] : meta.roots) {
    NodeRef r;
    if (disk_ref_is_terminal(dref)) {
      r = dref;
    } else {
      r = local2ref[disk_ref_var(dref)][disk_ref_local(dref)];
      if (r == core::kInvalid) fail("root '" + name + "' is dangling");
    }
    out.push_back({name, mgr.make_root(r)});
  }
  stats.bytes = file_size;
  stats.levels = num_vars;
  stats.roots = static_cast<std::uint32_t>(out.size());
  stats.total_ns = total.elapsed_ns();
  if (out_stats != nullptr) *out_stats = stats;
  return out;
}

SnapshotInfo inspect(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.fd < 0) fail_errno("open " + path);
  const std::uint64_t file_size = file_size_of(fd.fd);
  const FileMeta meta = read_meta(fd.fd, file_size);
  return meta.info;
}

std::uint64_t LevelDirectory::meta_bytes() const noexcept {
  return kHeaderBytes + dir_bytes(info.num_vars, info.workers);
}

LevelDirectory inspect_levels(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.fd < 0) fail_errno("open " + path);
  const std::uint64_t file_size = file_size_of(fd.fd);
  const FileMeta meta = read_meta(fd.fd, file_size);
  LevelDirectory out;
  out.info = meta.info;
  out.levels.reserve(meta.dir.size());
  for (const DirEntry& e : meta.dir) {
    out.levels.push_back({e.offset, e.byte_size, e.node_count, e.crc});
  }
  // Recover the root-table window from the (already CRC-validated) header.
  std::uint8_t raw[kHeaderBytes];
  pread_all(fd.fd, raw, sizeof(raw), 0);
  ByteReader hr(raw, sizeof(raw));
  char magic[8];
  hr.bytes(magic, 8);
  for (int i = 0; i < 6; ++i) (void)hr.u32();
  (void)hr.u64();  // total_nodes
  out.root_table_offset = hr.u64();
  out.root_table_bytes = hr.u64();
  return out;
}

LevelDirectory parse_meta_blob(const std::uint8_t* data, std::size_t size,
                               std::uint64_t file_bytes) {
  if (size < kHeaderBytes) fail("truncated header");
  if (util::crc32(data, kHeaderBytes - 4) !=
      read_u32_at(data, kHeaderBytes - 4)) {
    fail("header checksum mismatch");
  }
  ByteReader rd(data, kHeaderBytes);
  char magic[8];
  rd.bytes(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) fail("not a snapshot meta blob");
  LevelDirectory out;
  SnapshotInfo& info = out.info;
  info.version = rd.u32();
  if (info.version != kFormatVersion) {
    fail("unsupported format version " + std::to_string(info.version));
  }
  info.flags = rd.u32();
  if ((info.flags & ~kKnownFlags) != 0) fail("unknown format flags");
  info.num_vars = rd.u32();
  info.workers = rd.u32();
  const std::uint32_t discipline = rd.u32();
  if (discipline > static_cast<std::uint32_t>(TableDiscipline::kLockFree)) {
    fail("unknown table discipline tag");
  }
  info.discipline = static_cast<TableDiscipline>(discipline);
  info.table_shards = rd.u32();
  info.total_nodes = rd.u64();
  out.root_table_offset = rd.u64();
  out.root_table_bytes = rd.u64();
  if (info.num_vars == 0 || info.num_vars >= core::kTermLevel) {
    fail("bad variable count");
  }
  if (info.workers == 0 || info.workers > 0x3FFFu) fail("bad worker count");
  if (out.root_table_offset > file_bytes ||
      out.root_table_bytes > file_bytes - out.root_table_offset) {
    fail("root table out of bounds");
  }
  info.file_bytes = file_bytes;

  const std::size_t dsize = dir_bytes(info.num_vars, info.workers);
  if (size < kHeaderBytes + dsize) fail("truncated level directory");
  const std::uint8_t* dbuf = data + kHeaderBytes;
  if (util::crc32(dbuf, dsize - 4) != read_u32_at(dbuf, dsize - 4)) {
    fail("level directory checksum mismatch");
  }
  ByteReader dr(dbuf, dsize);
  out.levels.resize(info.num_vars);
  std::uint64_t total = 0;
  for (LevelDirEntry& e : out.levels) {
    e.offset = dr.u64();
    e.byte_size = dr.u64();
    e.node_count = dr.u32();
    e.crc = dr.u32();
    if (e.offset > file_bytes || e.byte_size > file_bytes - e.offset) {
      fail("level section out of bounds");
    }
    total += e.node_count;
  }
  if (total != info.total_nodes) fail("node count mismatch");
  return out;
}

}  // namespace pbdd::snapshot
