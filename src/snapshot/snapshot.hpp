// Parallel checkpoint/restore of a BDD store (docs/FORMAT.md).
//
// The paper's per-(worker, variable) node clustering makes a level-ordered
// file the natural disk representation: each variable's nodes serialize as
// one contiguous section with dense level-local ids, sections are written in
// parallel by the manager's own worker pool (variables dealt round-robin,
// like the reduction phase), and restore rebuilds every level concurrently
// because the local-id -> NodeRef mapping is pure arithmetic over the
// per-level worker counts stored in the directory.
//
// Two save modes:
//  * kFullStore — every allocated slot, plus the unique-table bucket
//    structure and chain links. A shape-compatible restore (same worker
//    count and discipline) adopts the stored chains without hashing a
//    single node; anything else falls back to rehashing.
//  * kExportRoots — only nodes reachable from the given roots, renumbered
//    dense per level (the GC mark phase run standalone), so snapshots
//    exclude dead nodes. Restore always rehashes.
//
// All entry points follow the manager's external-call contract (one thread
// at a time, no batch in flight) and report failures as std::runtime_error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bdd_manager.hpp"

namespace pbdd::snapshot {

/// A root to persist, addressable by name at restore time.
struct NamedRoot {
  std::string name;
  core::Bdd bdd;
};

enum class SaveMode : std::uint8_t {
  kFullStore,
  kExportRoots,
};

struct SaveOptions {
  SaveMode mode = SaveMode::kFullStore;
  /// fsync before closing (periodic service checkpoints leave this off).
  bool sync = false;
};

/// Writer-side counters, one save. to_json emits a flat object (the shape
/// ServiceMetrics and the CLI embed).
struct SaveStats {
  std::uint64_t bytes = 0;
  std::uint32_t levels = 0;          ///< levels written (== num_vars)
  std::uint32_t nonempty_levels = 0;
  std::uint64_t nodes = 0;           ///< node records written
  std::uint32_t roots = 0;
  std::uint64_t mark_ns = 0;    ///< reachability mark (export mode only)
  std::uint64_t layout_ns = 0;  ///< counting, local-id assignment, offsets
  std::uint64_t write_ns = 0;   ///< parallel section serialization + I/O
  std::uint64_t total_ns = 0;

  [[nodiscard]] std::string to_json() const;
};

/// Reader-side counters, one restore/import.
struct RestoreStats {
  std::uint64_t bytes = 0;
  std::uint32_t levels = 0;
  std::uint64_t nodes = 0;  ///< nodes materialized (tombstones excluded)
  std::uint32_t roots = 0;
  bool ref_preserving = false;    ///< restored refs bit-identical to saved
  std::uint32_t levels_adopted = 0;  ///< levels rebuilt without hashing
  std::uint64_t read_ns = 0;   ///< header/directory/root-table validation
  std::uint64_t build_ns = 0;  ///< parallel arena + table rebuild
  std::uint64_t total_ns = 0;

  [[nodiscard]] std::string to_json() const;
};

/// Write a snapshot of `mgr` to `path`. `roots` become the file's root
/// table; in export mode they also select what is saved. Roots must belong
/// to `mgr`. Overwrites `path` atomically enough for our purposes (plain
/// truncate + write; callers wanting crash-safe replacement write to a temp
/// name and rename).
SaveStats save(core::BddManager& mgr, const std::string& path,
               const std::vector<NamedRoot>& roots,
               const SaveOptions& opts = {});

struct RestoreResult {
  std::unique_ptr<core::BddManager> manager;
  std::vector<NamedRoot> roots;  ///< same order as saved
  RestoreStats stats;
};

/// Build a fresh manager from a snapshot. `config` may differ from the
/// saved configuration (worker count, table discipline); the
/// chain-adoption fast path then degrades to the rehash fallback, and the
/// restored store is re-canonicalized under the new configuration.
RestoreResult restore(const std::string& path, core::Config config = {});

/// Import a snapshot's roots into an existing manager, deduplicating
/// against its live store through the normal find-or-insert path (levels
/// stream bottom-up so children always resolve first). The manager must
/// have at least the snapshot's variable count. Returns the root table as
/// live handles.
std::vector<NamedRoot> import_into(core::BddManager& mgr,
                                   const std::string& path,
                                   RestoreStats* stats = nullptr);

/// Header-only peek (no node data touched beyond validation of the header
/// checksum).
struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  unsigned num_vars = 0;
  unsigned workers = 0;
  /// Tag 1 marks a file written by the retired striped table; it restores
  /// through the rehash fallback.
  core::TableDiscipline discipline = core::TableDiscipline::kPassLock;
  unsigned table_shards = 1;  ///< informational; 1 unless tag 1
  std::uint64_t total_nodes = 0;
  std::uint32_t root_count = 0;
  std::uint64_t file_bytes = 0;
  [[nodiscard]] bool export_mode() const noexcept;
  [[nodiscard]] bool has_chains() const noexcept;
};
SnapshotInfo inspect(const std::string& path);

/// One validated level-directory row (docs/FORMAT.md, "Level directory").
/// The per-level CRC column is what makes delta shipping possible: a level
/// whose encoded bytes did not change between two export saves keeps its
/// CRC, so only changed levels need to travel (src/replica/, ROADMAP item 5).
struct LevelDirEntry {
  std::uint64_t offset = 0;     ///< absolute file offset of the section
  std::uint64_t byte_size = 0;  ///< section size in bytes
  std::uint32_t node_count = 0;
  std::uint32_t crc = 0;        ///< CRC-32 of the entire section
};

struct LevelDirectory {
  SnapshotInfo info;
  std::vector<LevelDirEntry> levels;  ///< one per variable, in order
  std::uint64_t root_table_offset = 0;
  std::uint64_t root_table_bytes = 0;
  /// Byte size of header + level directory (the "meta" prefix a delta ship
  /// sends verbatim: everything before the first level section).
  [[nodiscard]] std::uint64_t meta_bytes() const noexcept;
};

/// Parse and CRC-validate the header + level directory + root-table window
/// of a snapshot (no node data touched). The delta shipper's and
/// `pbdd_cli --inspect`'s view of a file.
LevelDirectory inspect_levels(const std::string& path);

/// Same parse, but over an in-memory meta prefix (the first
/// `meta_bytes()` of a file) as shipped by the replication tier before the
/// receiving side has any file to open. `file_bytes` is the size the
/// complete file will have; section and root-table windows are
/// bounds-checked against it. The root table itself is not present in the
/// blob, so `info.root_count` stays 0.
LevelDirectory parse_meta_blob(const std::uint8_t* data, std::size_t size,
                               std::uint64_t file_bytes);

}  // namespace pbdd::snapshot
