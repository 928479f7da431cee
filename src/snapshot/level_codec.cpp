#include "snapshot/level_codec.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/crc32.hpp"

namespace pbdd::snapshot {

using core::BddManager;
using core::BddNode;
using core::NodeRef;

// ---------------------------------------------------------------------------
// Chain-structure codec
// ---------------------------------------------------------------------------

void encode_chains(ByteWriter& out, const LevelChains& chains) {
  out.u32(static_cast<std::uint32_t>(chains.seg_buckets.size()));
  for (std::size_t si = 0; si < chains.seg_buckets.size(); ++si) {
    out.u64(chains.seg_buckets[si]);
    out.u64(chains.seg_counts[si]);
  }
  for (const std::uint32_t h : chains.head_locals) out.u32(h);
}

LevelChains decode_chains(ByteReader& in) {
  LevelChains chains;
  const std::uint32_t segs = in.u32();
  chains.seg_buckets.resize(segs);
  chains.seg_counts.resize(segs);
  std::size_t total_buckets = 0;
  for (std::uint32_t si = 0; si < segs; ++si) {
    chains.seg_buckets[si] = in.u64();
    chains.seg_counts[si] = in.u64();
    total_buckets += chains.seg_buckets[si];
  }
  chains.head_locals.resize(total_buckets);
  for (std::uint32_t& h : chains.head_locals) h = in.u32();
  return chains;
}

void skip_chains(ByteReader& in) {
  const std::uint32_t segs = in.u32();
  std::size_t total_buckets = 0;
  for (std::uint32_t si = 0; si < segs; ++si) {
    total_buckets += in.u64();
    (void)in.u64();
  }
  for (std::size_t i = 0; i < total_buckets; ++i) (void)in.u32();
}

// ---------------------------------------------------------------------------
// Spill segments
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void spill_fail(unsigned var, const std::string& what) {
  throw std::runtime_error("spill segment (level " + std::to_string(var) +
                           "): " + what);
}

/// Level-local dense id of an in-level reference (chain next pointers and
/// bucket heads): prefix over per-worker allocated-slot counts, covering
/// tombstones too so the mapping is invertible without a side table.
std::uint32_t local_of(NodeRef r, const std::vector<std::uint32_t>& prefix) {
  return prefix[core::worker_of(r)] + core::slot_of(r);
}

NodeRef local_to_ref(std::uint32_t local, unsigned var,
                     const std::vector<std::uint32_t>& prefix) {
  unsigned w = 0;
  while (w + 1 < prefix.size() && prefix[w + 1] <= local) ++w;
  return core::make_node_ref(w, var, local - prefix[w]);
}

}  // namespace

SpillStats encode_spill_level(BddManager& mgr, unsigned var,
                              std::vector<std::uint8_t>& out_bytes) {
  const unsigned workers = mgr.workers();
  std::vector<std::uint32_t> prefix(workers + 1, 0);
  for (unsigned w = 0; w < workers; ++w) {
    prefix[w + 1] = prefix[w] + mgr.worker(w).node_arena(var).size();
  }
  const std::uint32_t total = prefix[workers];

  ByteWriter out(64 + std::size_t{total} * kFullRecordBytes);
  out.bytes(kSpillMagic, 8);
  out.u32(kSpillFormatVersion);
  out.u32(var);
  out.u32(workers);
  out.u32(total);
  for (unsigned w = 0; w < workers; ++w) {
    out.u32(mgr.worker(w).node_arena(var).size());
  }
  // Recycled-slot lists, bottom-to-top: alloc() pops from the back, so the
  // order decides slot reuse and must survive the round trip verbatim.
  for (unsigned w = 0; w < workers; ++w) {
    const auto& free_slots = mgr.worker(w).node_arena(var).free_slots();
    out.u32(static_cast<std::uint32_t>(free_slots.size()));
    for (const std::uint32_t s : free_slots) out.u32(s);
  }

  const core::VarUniqueTable& table = mgr.unique(var);
  LevelChains chains;
  chains.seg_buckets = {table.buckets()};
  chains.seg_counts = {table.count()};
  const std::vector<NodeRef> heads = table.bucket_heads();
  chains.head_locals.reserve(heads.size());
  for (const NodeRef h : heads) {
    chains.head_locals.push_back(h == core::kZero ? kNilLocal
                                                  : local_of(h, prefix));
  }
  encode_chains(out, chains);

  for (unsigned w = 0; w < workers; ++w) {
    const core::NodeArena& arena = mgr.worker(w).node_arena(var);
    const std::uint32_t allocated = arena.size();
    for (std::uint32_t s = 0; s < allocated; ++s) {
      const BddNode& n = arena.at(s);
      if (n.low == core::kInvalid && n.high == core::kInvalid) {
        out.u64(kTombstoneField);
        out.u64(kTombstoneField);
        out.u32(kNilLocal);
        continue;
      }
      // Raw NodeRefs: children live in other levels, whose slots are stable
      // until the next collection — which discards this segment.
      out.u64(n.low);
      out.u64(n.high);
      const NodeRef next = n.next.load(std::memory_order_relaxed);
      out.u32(next == core::kZero ? kNilLocal : local_of(next, prefix));
    }
  }
  out.u32(util::crc32(out.data().data(), out.size()));

  out_bytes = out.data();
  return SpillStats{total, out_bytes.size()};
}

bool spill_payload_ok(const std::uint8_t* data, std::size_t size) noexcept {
  if (size < 8 + 4 + 4) return false;
  if (std::memcmp(data, kSpillMagic, 8) != 0) return false;
  std::uint32_t version;
  std::memcpy(&version, data + 8, 4);
  if (version != kSpillFormatVersion) return false;
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, data + size - 4, 4);
  return util::crc32(data, size - 4) == stored_crc;
}

std::uint64_t decode_spill_level(BddManager& mgr, unsigned var,
                                 const std::uint8_t* data, std::size_t size) {
  // Validate the envelope before any manager mutation: a corrupt segment
  // must fault loudly, not half-apply.
  if (size < 8 + 4 + 4 + 4) spill_fail(var, "truncated");
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, data + size - 4, 4);
  if (util::crc32(data, size - 4) != stored_crc) {
    spill_fail(var, "checksum mismatch");
  }
  ByteReader in(data, size - 4);
  char magic[8];
  in.bytes(magic, 8);
  if (std::memcmp(magic, kSpillMagic, 8) != 0) spill_fail(var, "bad magic");
  const std::uint32_t version = in.u32();
  if (version != kSpillFormatVersion) {
    spill_fail(var, "format version skew (" + std::to_string(version) +
                        " != " + std::to_string(kSpillFormatVersion) + ")");
  }
  if (in.u32() != var) spill_fail(var, "level tag mismatch");
  const unsigned workers = in.u32();
  if (workers != mgr.workers()) spill_fail(var, "worker count mismatch");
  const std::uint32_t total = in.u32();

  std::vector<std::uint32_t> prefix(workers + 1, 0);
  for (unsigned w = 0; w < workers; ++w) {
    const std::uint32_t n = in.u32();
    prefix[w + 1] = prefix[w] + n;
    if (mgr.worker(w).node_arena(var).size() != 0) {
      spill_fail(var, "level not empty at fault-in");
    }
  }
  if (prefix[workers] != total) spill_fail(var, "slot count mismatch");

  std::vector<std::vector<std::uint32_t>> free_lists(workers);
  for (unsigned w = 0; w < workers; ++w) {
    const std::uint32_t n = in.u32();
    const std::uint32_t allocated = prefix[w + 1] - prefix[w];
    if (n > allocated) spill_fail(var, "free list longer than arena");
    free_lists[w].resize(n);
    for (std::uint32_t& s : free_lists[w]) {
      s = in.u32();
      if (s >= allocated) spill_fail(var, "free slot out of range");
    }
  }

  const LevelChains chains = decode_chains(in);

  // The records region must account for exactly the declared slots.
  if (in.remaining() != std::size_t{total} * kFullRecordBytes) {
    spill_fail(var, "record region size mismatch");
  }

  // --- Mutation starts here; everything above was read-only. -----------------
  std::uint64_t live = 0;
  for (unsigned w = 0; w < workers; ++w) {
    core::NodeArena& arena = mgr.worker(w).node_arena(var);
    const std::uint32_t allocated = prefix[w + 1] - prefix[w];
    for (std::uint32_t i = 0; i < allocated; ++i) {
      const std::uint64_t low = in.u64();
      const std::uint64_t high = in.u64();
      const std::uint32_t next_local = in.u32();
      const std::uint32_t slot = arena.alloc();
      BddNode& node = arena.at_own(slot);
      node.aux.store(0, std::memory_order_relaxed);
      if (low == kTombstoneField && high == kTombstoneField) {
        node.low = core::kInvalid;
        node.high = core::kInvalid;
        node.next.store(core::kZero, std::memory_order_relaxed);
        continue;
      }
      node.low = low;
      node.high = high;
      node.next.store(next_local == kNilLocal
                          ? core::kZero
                          : local_to_ref(next_local, var, prefix),
                      std::memory_order_relaxed);
      ++live;
    }
    arena.restore_free_slots(std::move(free_lists[w]));
  }

  // Chain adoption always succeeds here — same manager, same discipline,
  // one segment — but keep the rehash fallback for belt and braces.
  core::VarUniqueTable& table = mgr.unique(var);
  std::vector<NodeRef> heads;
  heads.reserve(chains.head_locals.size());
  for (const std::uint32_t h : chains.head_locals) {
    heads.push_back(h == kNilLocal ? core::kZero
                                   : local_to_ref(h, var, prefix));
  }
  if (chains.seg_counts.size() != 1 ||
      !table.adopt_chains(mgr.config().table_discipline, chains.seg_counts[0],
                          heads)) {
    table.reset_chains(static_cast<std::size_t>(live));
    for (unsigned w = 0; w < workers; ++w) {
      core::NodeArena& arena = mgr.worker(w).node_arena(var);
      const std::uint32_t n = arena.size();
      for (std::uint32_t s = 0; s < n; ++s) {
        const BddNode& node = arena.at_own(s);
        if (node.low == core::kInvalid && node.high == core::kInvalid) {
          continue;
        }
        table.reinsert(w, core::make_node_ref(w, var, s), node.low,
                       node.high);
      }
    }
  }
  return live;
}

}  // namespace pbdd::snapshot
