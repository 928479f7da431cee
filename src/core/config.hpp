// Configuration and statistics for the partial breadth-first engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pbdd::core {

/// Locking discipline of the per-variable unique tables (see
/// core/unique_table.hpp for the protocols). The values are the tags that
/// snapshot headers store (docs/FORMAT.md); tag 1 belonged to a retired
/// mutex-striped discipline and only ever comes back from old files.
enum class TableDiscipline : std::uint8_t {
  /// The paper's layout: one mutex per variable, acquired once per
  /// (worker, variable) reduction pass.
  kPassLock = 0,
  /// Lock-free: atomic bucket heads, CAS publication with speculative
  /// allocation, epoch-claimed growth. No mutex anywhere on the insert
  /// path.
  kLockFree = 2,
};

/// Spelling used by the tools, seed files and PBDD_TABLE_DISCIPLINE. The
/// legacy tag 1 of an old snapshot header prints as "legacy sharded".
[[nodiscard]] inline const char* discipline_name(TableDiscipline d) noexcept {
  switch (d) {
    case TableDiscipline::kPassLock: return "passlock";
    case TableDiscipline::kLockFree: return "lockfree";
  }
  return "legacy sharded";
}

/// Inverse of discipline_name(): "passlock" or "lockfree". Any other
/// spelling — the retired "sharded" included — returns false and leaves
/// `out` untouched, so callers report it rather than guess a substitute.
[[nodiscard]] inline bool parse_discipline(std::string_view name,
                                           TableDiscipline& out) noexcept {
  for (const TableDiscipline d :
       {TableDiscipline::kPassLock, TableDiscipline::kLockFree}) {
    if (name == discipline_name(d)) {
      out = d;
      return true;
    }
  }
  return false;
}

/// What to do when an evaluation context exceeds the threshold.
enum class OverflowPolicy : std::uint8_t {
  /// The paper's partial breadth-first algorithm: push the context, spill
  /// the remaining operations into stealable groups, continue in a child
  /// context (Section 3.1).
  kContextStack,
  /// The hybrid predecessor [Chen-Yang-Bryant 97]: switch to depth-first
  /// recursion for the remaining operations. Bounds memory like the
  /// context stack but loses the structured per-variable access pattern —
  /// the drawback Section 3.1 calls out ("when a BDD operation is much
  /// larger than the threshold, this hybrid approach will be dominated by
  /// the depth-first portion"). Kept as an ablation.
  kDepthFirst,
};

struct Config {
  /// Number of workers (threads). The calling thread is worker 0.
  unsigned workers = 1;

  /// Cap on how many of those workers actively claim top-level operations
  /// and steal groups (0 = all of them). Workers past the cap keep their
  /// arenas and participate in GC, but return from each batch immediately,
  /// parking on the pool's condition variable. The benchmark harness sets
  /// this to the hardware thread count: running more ready threads than the
  /// machine has cores turns every unique-table pass lock into a scheduler
  /// convoy (the holder is descheduled while waiters burn their slices) and
  /// measures the OS, not the algorithm. Tests deliberately leave it at 0 —
  /// oversubscribed runs are exactly where cross-worker interleavings live.
  unsigned max_active_workers = 0;

  /// Paper's "Seq" configuration: single worker, unique-table locking
  /// elided, GC condition checked aggressively after every top-level
  /// operation rather than only at batch barriers (Section 4.1 explains the
  /// sequential build checks the collection condition more eagerly).
  /// Requires workers == 1.
  bool sequential_mode = false;

  /// Evaluation threshold: operator expansions per evaluation context
  /// before the context is pushed and a child context starts (Fig. 5,
  /// line 10). Set to a small fraction of memory in the paper; here an
  /// explicit knob. kUnbounded degenerates to pure breadth-first.
  std::uint64_t eval_threshold = std::uint64_t{1} << 15;
  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  /// Threshold-overflow strategy (see OverflowPolicy). Hungry-worker
  /// context switches always use the context stack regardless.
  OverflowPolicy overflow = OverflowPolicy::kContextStack;

  /// Operations per stealable group when a context is pushed ("partition
  /// the remaining operators into small groups").
  std::uint32_t group_size = 512;

  /// Scale the steal granularity with the spill size: when a context is
  /// pushed with far more queued operations than the workers could drain at
  /// `group_size` apiece, partition into proportionally larger groups
  /// (capped at kMaxAdaptiveGroup) so one steal amortizes its lock and
  /// cache-migration cost over more work. `group_size` stays the floor; off
  /// reproduces the paper's fixed partitioning exactly.
  bool adaptive_group_size = true;
  static constexpr std::uint32_t kMaxAdaptiveGroup = 1u << 15;

  /// log2 of per-worker compute-cache entries.
  unsigned cache_log2 = 17;

  /// log2 of entries in the shared completed-results cache
  /// (core/shared_cache.hpp), which recovers the work one worker re-derives
  /// because another already finished it. 0 disables it; it is also
  /// disabled automatically for single-worker managers, where the private
  /// cache alone is strictly cheaper.
  unsigned shared_cache_log2 = 18;

  /// Only operations rooted in the top this-many variable levels go through
  /// the shared cache (0 = every level). A duplicate caught high in the
  /// order saves its whole subtree of expansions, while the vastly more
  /// numerous near-terminal operations are cheaper to recompute than to
  /// probe for — sharing them is all coherence traffic and no saved work.
  /// On the c2670s fault campaign the cross-worker duplicate mass sits
  /// above level ~96: gating there keeps ~98% of the shared hits of an
  /// ungated cache at a fraction of its probe/publish traffic.
  unsigned shared_cache_levels = 96;

  /// Initial buckets per variable's unique table (power of two).
  unsigned initial_buckets_log2 = 8;

  /// Unique-table locking discipline. Sequential mode forces kPassLock,
  /// whose lock is then elided entirely.
  TableDiscipline table_discipline = TableDiscipline::kPassLock;

  /// Automatic GC at a batch barrier when allocated node slots exceed this
  /// multiple of the live count after the previous collection.
  double gc_growth_factor = 2.0;
  /// Never auto-collect below this many allocated nodes.
  std::size_t gc_min_nodes = 1u << 20;
  bool auto_gc = true;

  /// Expansion polls the "hungry thief" flag every this many operations to
  /// decide whether to context-switch and expose sharable groups.
  std::uint32_t share_poll_interval = 256;
};

/// Per-worker counters. Plain (non-atomic): each worker writes only its own
/// copy; aggregation happens after barriers.
///
/// False-sharing audit: each WorkerStats lives inside its own heap-allocated
/// Worker (never in a shared array), so adjacent counters are only ever
/// touched by one thread and need no per-field padding. The structure is
/// still line-aligned so the hot counters of a worker cannot straddle into
/// a neighbouring allocation's line. Shared per-worker arrays (the unique
/// tables' wait/retry meters) use util::PaddedCounter instead.
struct alignas(64) WorkerStats {
  std::uint64_t ops_performed = 0;      ///< Shannon expansions (Fig. 11)
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_op_hits = 0;      ///< hits returning in-flight op nodes
  std::uint64_t cache_cross_ctx_misses = 0;  ///< uncomputed hit, wrong context
  std::uint64_t cache_shared_hits = 0;  ///< shared-cache hits after private miss
  std::uint64_t nodes_created = 0;
  std::uint64_t contexts_pushed = 0;
  std::uint64_t groups_created = 0;
  std::uint64_t groups_taken = 0;       ///< taken back by the owner
  std::uint64_t groups_stolen = 0;      ///< stolen by this worker
  std::uint64_t tasks_stolen = 0;
  std::uint64_t reduction_stalls = 0;   ///< waits on thief results
  std::uint64_t batch_dep_stalls = 0;   ///< waits on in-batch dependencies
  std::uint64_t top_ops = 0;

  // Phase wall-clock accounting (Figs. 13/14, 18/19).
  std::uint64_t expansion_ns = 0;
  std::uint64_t reduction_ns = 0;
  std::uint64_t lock_wait_ns = 0;       ///< total unique-table lock waits
  std::uint64_t cas_retries = 0;        ///< lock-free table CAS retries/waits
  std::uint64_t gc_ns = 0;
  std::uint64_t gc_mark_ns = 0;
  std::uint64_t gc_fix_ns = 0;
  std::uint64_t gc_rehash_ns = 0;

  WorkerStats& operator+=(const WorkerStats& o) noexcept {
    ops_performed += o.ops_performed;
    cache_lookups += o.cache_lookups;
    cache_hits += o.cache_hits;
    cache_op_hits += o.cache_op_hits;
    cache_cross_ctx_misses += o.cache_cross_ctx_misses;
    cache_shared_hits += o.cache_shared_hits;
    nodes_created += o.nodes_created;
    contexts_pushed += o.contexts_pushed;
    groups_created += o.groups_created;
    groups_taken += o.groups_taken;
    groups_stolen += o.groups_stolen;
    tasks_stolen += o.tasks_stolen;
    reduction_stalls += o.reduction_stalls;
    batch_dep_stalls += o.batch_dep_stalls;
    top_ops += o.top_ops;
    expansion_ns += o.expansion_ns;
    reduction_ns += o.reduction_ns;
    lock_wait_ns += o.lock_wait_ns;
    cas_retries += o.cas_retries;
    gc_ns += o.gc_ns;
    gc_mark_ns += o.gc_mark_ns;
    gc_fix_ns += o.gc_fix_ns;
    gc_rehash_ns += o.gc_rehash_ns;
    return *this;
  }

  /// JSON object with every counter (stats_json.cpp). One serialization
  /// shared by the benchmark harness dumps, the BENCH_* CI artifacts, and
  /// the service metrics endpoint — keep it in sync with the fields above.
  [[nodiscard]] std::string to_json() const;
};

struct ManagerStats {
  WorkerStats total;                       ///< sum over workers
  std::vector<WorkerStats> per_worker;
  std::uint64_t gc_runs = 0;
  std::size_t live_nodes = 0;              ///< after the last collection
  std::size_t allocated_nodes = 0;
  std::size_t bytes = 0;
  /// Per-variable unique-table high-water marks (Fig. 15).
  std::vector<std::size_t> max_nodes_per_var;
  /// Per-variable lock wait, summed over workers, in ns (Fig. 16).
  std::vector<std::uint64_t> lock_wait_per_var_ns;

  /// JSON object: totals, per-worker counters, store/GC gauges, and the
  /// per-variable arrays. The shared machine-readable form of this struct.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace pbdd::core
