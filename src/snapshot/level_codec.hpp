// Shared per-level codec: the pieces of the snapshot format that serialize
// one variable level, factored out so the out-of-core pager (src/ooc/) and
// the whole-store snapshot writer speak the same encoding.
//
// Two layers live here:
//
//  1. The *chain-structure* codec — unique-table bucket shapes and heads as
//     level-local ids — used verbatim by both the snapshot's full-store mode
//     and spill segments (docs/FORMAT.md).
//
//  2. The *spill segment*: a self-contained, CRC-guarded serialization of a
//     single resident level (node records, recycled-slot lists, chain
//     structure) that LevelPager writes when it demotes the level and reads
//     back on fault. Unlike a snapshot section, child references are stored
//     as raw 64-bit NodeRefs: slots in *other* levels do not move between
//     collections, so no cross-level local-id table is needed — and the
//     collector invalidates every segment anyway (PagerHook contract).
#pragma once

#include <cstdint>
#include <vector>

#include "core/bdd_manager.hpp"
#include "snapshot/format.hpp"

namespace pbdd::snapshot {

/// Full-mode node record: u64 low, u64 high, u32 next-local (docs/FORMAT.md).
inline constexpr std::size_t kFullRecordBytes = 8 + 8 + 4;

// ---- Chain-structure codec (shared with the snapshot writer) ---------------

/// Unique-table chain structure of one level, with bucket heads as
/// level-local dense ids (kNilLocal = empty bucket), segment-major.
/// Writers emit one segment, the layout of VarUniqueTable::bucket_heads();
/// files from the retired striped table carry several.
struct LevelChains {
  std::vector<std::size_t> seg_buckets;   ///< bucket-array size per segment
  std::vector<std::size_t> seg_counts;    ///< chained-node count per segment
  std::vector<std::uint32_t> head_locals; ///< per-bucket head local ids
};

void encode_chains(ByteWriter& out, const LevelChains& chains);
/// Throws std::runtime_error on malformed input (ByteReader range check).
[[nodiscard]] LevelChains decode_chains(ByteReader& in);
/// Advance past an encoded chain structure without materializing it
/// (import_into: chains are meaningless across managers).
void skip_chains(ByteReader& in);

// ---- Spill segments (out-of-core pager) -------------------------------------

inline constexpr char kSpillMagic[8] = {'P', 'B', 'D', 'D',
                                        'S', 'P', 'I', 'L'};
inline constexpr std::uint32_t kSpillFormatVersion = 1;

struct SpillStats {
  std::uint64_t nodes = 0;  ///< allocated slots serialized (incl. tombstones)
  std::uint64_t bytes = 0;  ///< encoded segment size
};

/// Serialize level `var` of a quiet manager into a self-contained spill
/// segment (header, per-worker slot counts and recycled-slot lists, chain
/// structure, node records, trailing CRC32). Read-only; the caller releases
/// the arenas (truncate(0)) and resets the level's chains afterwards.
[[nodiscard]] SpillStats encode_spill_level(core::BddManager& mgr,
                                            unsigned var,
                                            std::vector<std::uint8_t>& out);

/// Rebuild level `var` from a segment produced by encode_spill_level. The
/// level must be empty (arenas released, chains reset). Validates the CRC,
/// magic, version, and shape *before* touching the manager and throws
/// std::runtime_error on any mismatch, so a corrupt segment never
/// half-applies. Returns the node count restored.
std::uint64_t decode_spill_level(core::BddManager& mgr, unsigned var,
                                 const std::uint8_t* data, std::size_t size);

/// Cheap integrity probe (magic + version + CRC only) used by the prefetch
/// thread to avoid staging a corrupt buffer.
[[nodiscard]] bool spill_payload_ok(const std::uint8_t* data,
                                    std::size_t size) noexcept;

}  // namespace pbdd::snapshot
