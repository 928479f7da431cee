#include "core/bdd_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace_points.hpp"
#include "runtime/backoff.hpp"
#include "runtime/inject.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace pbdd::core {

namespace {
/// Enforce the configuration invariants up front (also in release builds):
/// sequential mode means exactly one worker, and at least one worker runs.
Config normalized(Config config) {
  if (config.workers == 0) config.workers = 1;
  if (config.sequential_mode) {
    config.workers = 1;
    // Lock elision needs the pass-level discipline: the engine simply never
    // takes the (uncontended) lock, and the atomics of the lock-free path
    // would be pure overhead with one thread.
    config.table_discipline = TableDiscipline::kPassLock;
  }
  if (config.group_size == 0) config.group_size = 1;
  return config;
}
}  // namespace

BddManager::BddManager(unsigned num_vars, Config config)
    : num_vars_(num_vars),
      config_(normalized(config)),
      locking_(!config_.sequential_mode),
      unique_(num_vars),
      pool_(config_.workers),
      gc_barrier_(pool_.size(),
                  /*spin=*/pool_.size() <=
                      std::max(1u, std::thread::hardware_concurrency())) {
  assert(num_vars_ >= 1 && num_vars_ < kTermLevel);
  const unsigned workers = pool_.size();
  oversubscribed_ =
      workers > std::max(1u, std::thread::hardware_concurrency());
  active_workers_ = config_.max_active_workers == 0
                        ? workers
                        : std::max(1u, std::min(workers,
                                                config_.max_active_workers));
  // Initialized before the workers: each Worker caches the pointer. A
  // single active worker never duplicates its own work, so it keeps the
  // strictly cheaper private-cache-only path.
  if (active_workers_ > 1 && config_.shared_cache_log2 > 0) {
    shared_cache_.init(config_.shared_cache_log2);
  }
  workers_.reserve(workers);
  for (unsigned id = 0; id < workers; ++id) {
    workers_.push_back(std::make_unique<Worker>(this, id, num_vars_, config_));
  }
  for (unsigned v = 0; v < num_vars_; ++v) {
    std::vector<NodeArena*> arenas;
    arenas.reserve(workers);
    for (unsigned id = 0; id < workers; ++id) {
      arenas.push_back(&workers_[id]->node_arena(v));
    }
    unique_[v].init(v, std::move(arenas),
                    std::size_t{1} << config_.initial_buckets_log2,
                    config_.table_discipline);
  }
}

BddManager::~BddManager() {
#ifndef NDEBUG
  std::size_t live_handles = 0;
  for (const RootEntry& entry : roots_) {
    if (entry.ref != kInvalid) ++live_handles;
  }
  assert(live_handles == 0 &&
         "Bdd handles must be destroyed before their BddManager");
#endif
}

// ---------------------------------------------------------------------------
// Root registry
// ---------------------------------------------------------------------------

Bdd BddManager::make_root(NodeRef ref) {
  assert(is_bdd(ref) && ref != kInvalid);
  std::lock_guard lock(roots_mutex_);
  std::uint32_t index;
  if (roots_free_head_ != kNilSlot) {
    index = roots_free_head_;
    roots_free_head_ = roots_[index].next_free;
  } else {
    index = static_cast<std::uint32_t>(roots_.size());
    roots_.emplace_back();
  }
  RootEntry& entry = roots_[index];
  entry.ref = ref;
  entry.rc.store(1, std::memory_order_relaxed);
  return Bdd(this, index);
}

// Every registry access (including plain indexing) takes the mutex: the
// deque's element references are stable, but its internal block map is
// reallocated by emplace_back, so lock-free indexing would race with
// concurrent make_root calls from other workers.

void BddManager::root_incref(std::uint32_t root) noexcept {
  std::lock_guard lock(roots_mutex_);
  roots_[root].rc.fetch_add(1, std::memory_order_relaxed);
}

void BddManager::root_decref(std::uint32_t root) noexcept {
  std::lock_guard lock(roots_mutex_);
  RootEntry& entry = roots_[root];
  if (entry.rc.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    entry.ref = kInvalid;
    entry.next_free = roots_free_head_;
    roots_free_head_ = root;
  }
}

NodeRef BddManager::root_ref(std::uint32_t root) const noexcept {
  std::lock_guard lock(roots_mutex_);
  return roots_[root].ref;
}

// ---------------------------------------------------------------------------
// Sequential node construction (variables, restrict, quantifiers)
// ---------------------------------------------------------------------------

NodeRef BddManager::mk_node(unsigned var, NodeRef low, NodeRef high) {
  if (low == high) return low;
  touch_level(var);  // find_or_insert walks this level's chains
  VarUniqueTable& table = unique_[var];
  const bool pass_lock = locking_ && table.pass_locked();
  if (pass_lock) table.acquire(0);
  bool created = false;
  const NodeRef r = table.find_or_insert(0, low, high, created);
  if (created) ++workers_[0]->stats().nodes_created;
  if (pass_lock) table.release();
  return r;
}

Bdd BddManager::var(unsigned v) {
  assert(v < num_vars_);
  return make_root(mk_node(v, kZero, kOne));
}

Bdd BddManager::nvar(unsigned v) {
  assert(v < num_vars_);
  return make_root(mk_node(v, kOne, kZero));
}

// ---------------------------------------------------------------------------
// Top-level operation batches
// ---------------------------------------------------------------------------

void BddManager::register_batch_result(std::size_t index, NodeRef ref) {
  // Root the result immediately so a sequential-mode collection between
  // top-level operations keeps it alive (and gets its reference fixed).
  batch_state_.result_handles[index] = make_root(ref);
  // Publish after the handle is in place: dependent items acquire-load the
  // state word, then read the handle (never the raw ref — a sequential-mode
  // collection between items may have moved the node).
  batch_state_.item_state[index].store(BatchState::kItemDone,
                                       std::memory_order_release);
}

void BddManager::execute_batch(std::vector<BatchState::Item> items,
                               std::vector<Bdd>& out, BatchControl* control) {
  const std::size_t n = items.size();
  out.clear();
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    const BatchState::Item& item = items[i];
    // Each operand is either a materialized handle of this manager or a
    // backward reference to an earlier item of the same batch; anything
    // else (empty handle, foreign manager, forward or self dependency)
    // would corrupt the engine or deadlock the DAG.
    const auto operand_ok = [&](const Bdd& h, std::int32_t dep) {
      if (dep >= 0) return static_cast<std::size_t>(dep) < i;
      return h.valid() && h.manager() == this;
    };
    if (!operand_ok(item.f, item.f_dep) || !operand_ok(item.g, item.g_dep)) {
      throw std::invalid_argument(
          "apply_batch: operand is empty, from another manager, or a "
          "non-backward dependency");
    }
  }
  batch_state_.items = std::move(items);
  batch_state_.result_handles.assign(n, Bdd{});
  if (batch_state_.item_state_capacity < n) {
    batch_state_.item_state = std::make_unique<std::atomic<std::uint8_t>[]>(n);
    batch_state_.item_state_capacity = n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    batch_state_.item_state[i].store(BatchState::kItemPending,
                                     std::memory_order_relaxed);
  }
  batch_state_.control = control;
  batch_state_.next.store(0, std::memory_order_relaxed);
  batch_state_.completed.store(0, std::memory_order_relaxed);

  PBDD_TRACE_INSTANT(kBatchStart, n, 0);
  pool_.run([this](unsigned id) { workers_[id]->run_batch(); });
  PBDD_TRACE_INSTANT(kBatchEnd, 0, 0);

  out = std::move(batch_state_.result_handles);
  batch_state_.result_handles.clear();
  batch_state_.items.clear();
  batch_state_.control = nullptr;

  // Batch barrier epilogue: recycle operator nodes and retire their cache
  // generation, then apply the paper's batch-boundary GC check.
  peak_bytes_ = std::max(peak_bytes_, bytes());
  ++op_generation_;
  for (auto& w : workers_) w->end_of_batch_reset();
  // Quiet point: no operation in flight, so the pager may demote cold
  // levels before the GC check (which would fault everything back in).
  if (pager_ != nullptr) pager_->batch_barrier();
  PBDD_INJECT(kBatchBarrier);
  maybe_gc();
}

Bdd BddManager::apply(Op op, const Bdd& f, const Bdd& g) {
  // Operand validation happens in execute_batch (throws, not asserts).
  std::vector<BatchState::Item> items;
  items.push_back({op, f, g});
  std::vector<Bdd> out;
  execute_batch(std::move(items), out);
  return std::move(out[0]);
}

std::vector<Bdd> BddManager::apply_batch(std::span<const BatchOp> batch) {
  return apply_batch(batch, nullptr);
}

std::vector<Bdd> BddManager::apply_batch(std::span<const BatchOp> batch,
                                         BatchControl* control) {
  std::vector<BatchState::Item> items;
  items.reserve(batch.size());
  for (const BatchOp& req : batch) {
    items.push_back({req.op, req.f, req.g, req.f_dep, req.g_dep});
  }
  std::vector<Bdd> out;
  execute_batch(std::move(items), out, control);
  return out;
}

Bdd BddManager::not_(const Bdd& f) {
  return apply(Op::Xor, f, one());
}

Bdd BddManager::ite(const Bdd& c, const Bdd& t, const Bdd& e) {
  // ITE(c, t, e) = (c AND t) OR (e AND NOT c); the two conjuncts are
  // independent top-level operations and the combining OR names them as
  // in-batch dependencies, so the whole ITE goes out as one batch with no
  // barrier between the rounds.
  std::vector<BatchState::Item> items;
  items.push_back({Op::And, c, t});
  items.push_back({Op::Diff, e, c});
  items.push_back({Op::Or, Bdd{}, Bdd{}, 0, 1});
  std::vector<Bdd> parts;
  execute_batch(std::move(items), parts);
  return std::move(parts[2]);
}

// ---------------------------------------------------------------------------
// Cofactor / quantification / composition (sequential utility operations)
// ---------------------------------------------------------------------------

namespace {
NodeRef restrict_rec(BddManager& mgr, NodeRef r, unsigned v, bool value,
                     std::unordered_map<NodeRef, NodeRef>& memo) {
  if (is_terminal(r) || var_of(r) > v) return r;
  mgr.touch_level(var_of(r));
  const BddNode& n = mgr.node(r);
  if (var_of(r) == v) return value ? n.high : n.low;
  if (auto it = memo.find(r); it != memo.end()) return it->second;
  const NodeRef low = restrict_rec(mgr, n.low, v, value, memo);
  const NodeRef high = restrict_rec(mgr, n.high, v, value, memo);
  const NodeRef result = mgr.mk_node(var_of(r), low, high);
  memo.emplace(r, result);
  return result;
}
}  // namespace

Bdd BddManager::restrict_(const Bdd& f, unsigned v, bool value) {
  assert(v < num_vars_);
  std::unordered_map<NodeRef, NodeRef> memo;
  return make_root(restrict_rec(*this, f.ref(), v, value, memo));
}

Bdd BddManager::exists(const Bdd& f, const std::vector<unsigned>& vars) {
  Bdd result = f;
  for (const unsigned v : vars) {
    result = apply(Op::Or, restrict_(result, v, false),
                   restrict_(result, v, true));
  }
  return result;
}

Bdd BddManager::forall(const Bdd& f, const std::vector<unsigned>& vars) {
  Bdd result = f;
  for (const unsigned v : vars) {
    result = apply(Op::And, restrict_(result, v, false),
                   restrict_(result, v, true));
  }
  return result;
}

Bdd BddManager::compose(const Bdd& f, unsigned v, const Bdd& g) {
  // f[v := g] = ITE(g, f|v=1, f|v=0)
  return ite(g, restrict_(f, v, true), restrict_(f, v, false));
}

namespace {
/// Memo key for binary recursions over commutatively-normalized operand
/// pairs (and_exists, its OR combiner).
struct RefPairHash {
  std::size_t operator()(const std::pair<NodeRef, NodeRef>& p) const noexcept {
    return static_cast<std::size_t>(util::hash_pair(p.first, p.second));
  }
};
}  // namespace

Bdd BddManager::and_exists(const Bdd& f, const Bdd& g,
                           const std::vector<unsigned>& vars) {
  if (!f.valid() || f.manager() != this || !g.valid() ||
      g.manager() != this) {
    throw std::invalid_argument(
        "and_exists: operand is empty or from another manager");
  }
  std::vector<bool> quantified(num_vars_, false);
  unsigned last_q = 0;
  bool any_q = false;
  for (const unsigned v : vars) {
    assert(v < num_vars_);
    quantified[v] = true;
    last_q = std::max(last_q, v);
    any_q = true;
  }

  using Key = std::pair<NodeRef, NodeRef>;
  std::unordered_map<Key, NodeRef, RefPairHash> and_memo;
  std::unordered_map<Key, NodeRef, RefPairHash> or_memo;
  std::unordered_map<NodeRef, NodeRef> ex_memo;

  // Sequential OR used to combine the two quantified cofactors. Separate
  // from the batch machinery on purpose: the recursion interleaves with the
  // AND-EXISTS walk and must not hit a batch barrier (GC would invalidate
  // the unrooted intermediates in the memo tables).
  auto or_rec = [&](auto&& self, NodeRef a, NodeRef b) -> NodeRef {
    if (a == kOne || b == kOne) return kOne;
    if (a == kZero) return b;
    if (b == kZero || a == b) return a;
    if (a > b) std::swap(a, b);
    if (const auto it = or_memo.find(Key{a, b}); it != or_memo.end()) {
      return it->second;
    }
    const unsigned v = std::min(level_of(a), level_of(b));
    touch_level(v);
    const NodeRef r0 = self(self, cofactor(a, v, false),
                            cofactor(b, v, false));
    const NodeRef r1 = self(self, cofactor(a, v, true),
                            cofactor(b, v, true));
    const NodeRef res = mk_node(v, r0, r1);
    or_memo.emplace(Key{a, b}, res);
    return res;
  };

  // Single-operand tail: exists(vars, r) once the other conjunct collapsed
  // to 1. Levels below the deepest quantified variable pass through.
  auto ex_rec = [&](auto&& self, NodeRef r) -> NodeRef {
    if (is_terminal(r) || !any_q || var_of(r) > last_q) return r;
    if (const auto it = ex_memo.find(r); it != ex_memo.end()) {
      return it->second;
    }
    const unsigned v = var_of(r);
    touch_level(v);
    const BddNode& n = node(r);
    const NodeRef low = n.low;
    const NodeRef high = n.high;
    NodeRef res;
    if (quantified[v]) {
      const NodeRef r0 = self(self, low);
      res = r0 == kOne ? kOne : or_rec(or_rec, r0, self(self, high));
    } else {
      res = mk_node(v, self(self, low), self(self, high));
    }
    ex_memo.emplace(r, res);
    return res;
  };

  auto rec = [&](auto&& self, NodeRef a, NodeRef b) -> NodeRef {
    if (a == kZero || b == kZero) return kZero;
    if (a == kOne) return ex_rec(ex_rec, b);
    if (b == kOne || a == b) return ex_rec(ex_rec, a);
    if (a > b) std::swap(a, b);  // AND is commutative
    if (const auto it = and_memo.find(Key{a, b}); it != and_memo.end()) {
      return it->second;
    }
    const unsigned v = std::min(level_of(a), level_of(b));
    touch_level(v);
    const NodeRef f0 = cofactor(a, v, false);
    const NodeRef g0 = cofactor(b, v, false);
    const NodeRef f1 = cofactor(a, v, true);
    const NodeRef g1 = cofactor(b, v, true);
    NodeRef res;
    if (quantified[v]) {
      const NodeRef r0 = self(self, f0, g0);
      // Early exit: 1 OR anything is 1, so the high cofactor pair — often
      // the bulk of the work — is never expanded.
      res = r0 == kOne ? kOne : or_rec(or_rec, r0, self(self, f1, g1));
    } else {
      res = mk_node(v, self(self, f0, g0), self(self, f1, g1));
    }
    and_memo.emplace(Key{a, b}, res);
    return res;
  };

  return make_root(rec(rec, f.ref(), g.ref()));
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

double BddManager::sat_count(const Bdd& f) {
  ensure_all_resident();
  std::unordered_map<NodeRef, double> memo;
  auto level = [&](NodeRef r) -> unsigned {
    return is_terminal(r) ? num_vars_ : var_of(r);
  };
  auto rec = [&](auto&& self, NodeRef r) -> double {
    if (r == kZero) return 0.0;
    if (r == kOne) return 1.0;
    if (auto it = memo.find(r); it != memo.end()) return it->second;
    const BddNode& n = node(r);
    const double lo =
        self(self, n.low) *
        std::exp2(static_cast<double>(level(n.low) - var_of(r) - 1));
    const double hi =
        self(self, n.high) *
        std::exp2(static_cast<double>(level(n.high) - var_of(r) - 1));
    const double result = lo + hi;
    memo.emplace(r, result);
    return result;
  };
  return rec(rec, f.ref()) * std::exp2(static_cast<double>(level(f.ref())));
}

std::optional<std::vector<std::int8_t>> BddManager::sat_one(const Bdd& f) {
  ensure_all_resident();
  if (f.ref() == kZero) return std::nullopt;
  std::vector<std::int8_t> assignment(num_vars_, -1);
  NodeRef r = f.ref();
  while (!is_terminal(r)) {
    const BddNode& n = node(r);
    if (n.low != kZero) {
      assignment[var_of(r)] = 0;
      r = n.low;
    } else {
      assignment[var_of(r)] = 1;
      r = n.high;
    }
  }
  return assignment;
}

bool BddManager::eval(const Bdd& f, const std::vector<bool>& assignment) {
  assert(assignment.size() >= num_vars_);
  ensure_all_resident();
  NodeRef r = f.ref();
  while (!is_terminal(r)) {
    const BddNode& n = node(r);
    r = assignment[var_of(r)] ? n.high : n.low;
  }
  return r == kOne;
}

std::vector<unsigned> BddManager::support(const Bdd& f) {
  ensure_all_resident();
  std::unordered_set<NodeRef> visited;
  std::vector<bool> in_support(num_vars_, false);
  auto rec = [&](auto&& self, NodeRef r) -> void {
    if (is_terminal(r) || !visited.insert(r).second) return;
    in_support[var_of(r)] = true;
    const BddNode& n = node(r);
    self(self, n.low);
    self(self, n.high);
  };
  rec(rec, f.ref());
  std::vector<unsigned> result;
  for (unsigned v = 0; v < num_vars_; ++v) {
    if (in_support[v]) result.push_back(v);
  }
  return result;
}

std::size_t BddManager::node_count(const Bdd& f) {
  ensure_all_resident();
  std::unordered_set<NodeRef> visited;
  auto rec = [&](auto&& self, NodeRef r) -> void {
    if (is_terminal(r) || !visited.insert(r).second) return;
    const BddNode& n = node(r);
    self(self, n.low);
    self(self, n.high);
  };
  rec(rec, f.ref());
  return visited.size();
}

// ---------------------------------------------------------------------------
// Garbage collection driver (Section 3.4)
// ---------------------------------------------------------------------------

void BddManager::gc_driver(unsigned id) {
  Worker& w = *workers_[id];
  util::WallTimer total;
  util::WallTimer phase;
  PBDD_TRACE_SPAN(gc_span, kGc);
  std::uint64_t trace_t0 = PBDD_TRACE_NOW();

  // --- Mark phase: roots, then top-down one variable at a time, with a
  // barrier per variable (a node's parents can belong to any worker).
  if (id == 0) {
    std::lock_guard lock(roots_mutex_);
    for (const RootEntry& entry : roots_) {
      if (entry.ref != kInvalid && is_internal(entry.ref)) {
        node(entry.ref).aux.fetch_or(BddNode::kMarkBit,
                                     std::memory_order_relaxed);
      }
    }
  }
  gc_barrier_.arrive_and_wait();
  for (unsigned v = 0; v < num_vars_; ++v) {
    w.gc_mark_var(v);
    gc_barrier_.arrive_and_wait();
  }
  w.stats().gc_mark_ns += phase.elapsed_ns();
  PBDD_TRACE_EMIT_SPAN(kGcMark, trace_t0, 0, 0);
  trace_t0 = PBDD_TRACE_NOW();
  phase.reset();

  // --- Fix phase: compute forwarding slots, then rewrite child references
  // (and the root registry) while every node still sits at its old slot.
  w.gc_forward();
  gc_barrier_.arrive_and_wait();
  w.gc_fix();
  if (id == 0) {
    std::lock_guard lock(roots_mutex_);
    for (RootEntry& entry : roots_) {
      if (entry.ref != kInvalid && is_internal(entry.ref)) {
        const std::uint64_t aux =
            node(entry.ref).aux.load(std::memory_order_relaxed);
        entry.ref = with_slot(entry.ref, static_cast<std::uint32_t>(aux));
      }
    }
  }
  gc_barrier_.arrive_and_wait();
  w.stats().gc_fix_ns += phase.elapsed_ns();
  PBDD_TRACE_EMIT_SPAN(kGcFix, trace_t0, 0, 0);
  trace_t0 = PBDD_TRACE_NOW();
  phase.reset();

  // --- Rehash phase: slide nodes into place, reset each variable's bucket
  // array once, then every worker re-inserts the nodes it owns, trying
  // other variables first whenever a table lock is held (Section 3.4).
  w.gc_move();
  // Every reference in the shared cache dangles once nodes have moved;
  // each worker clears its partition inside the stop-the-world window,
  // alongside the private-cache flush gc_move just performed.
  shared_cache_.flush_partition(id, pool_.size());
  gc_barrier_.arrive_and_wait();
  const unsigned workers = pool_.size();
  for (unsigned v = id; v < num_vars_; v += workers) {
    std::size_t live = 0;
    for (const auto& other : workers_) live += other->live_after_move(v);
    unique_[v].reset_chains(live);
  }
  gc_barrier_.arrive_and_wait();
  {
    std::vector<std::uint8_t> done(num_vars_, 0);
    unsigned remaining = num_vars_;
    rt::Backoff backoff;
    while (remaining > 0) {
      bool progressed = false;
      for (unsigned i = 0; i < num_vars_; ++i) {
        const unsigned v = (i + id) % num_vars_;
        if (done[v]) continue;
        if (w.node_arena(v).size() == 0) {
          done[v] = 1;
          --remaining;
          progressed = true;
          continue;
        }
        if (w.gc_try_rehash_var(v)) {
          done[v] = 1;
          --remaining;
          progressed = true;
        }
      }
      if (!progressed) backoff.pause();
    }
  }
  gc_barrier_.arrive_and_wait();
  w.stats().gc_rehash_ns += phase.elapsed_ns();
  PBDD_TRACE_EMIT_SPAN(kGcRehash, trace_t0, 0, 0);
  w.stats().gc_ns += total.elapsed_ns();
}

// ---------------------------------------------------------------------------
// Snapshot support: the mark phase of gc_driver run standalone, plus a raw
// pool entry so the snapshot writer/reader can parallelize per variable.
// ---------------------------------------------------------------------------

void BddManager::run_on_workers(const std::function<void(unsigned)>& fn) {
  pool_.run([&fn](unsigned id) { fn(id); });
}

void BddManager::snapshot_mark(std::span<const NodeRef> roots) {
  ensure_all_resident();
  pool_.run([this, roots](unsigned id) {
    Worker& w = *workers_[id];
    if (id == 0) {
      for (const NodeRef r : roots) {
        if (is_internal(r)) {
          node(r).aux.fetch_or(BddNode::kMarkBit, std::memory_order_relaxed);
        }
      }
    }
    gc_barrier_.arrive_and_wait();
    for (unsigned v = 0; v < num_vars_; ++v) {
      w.gc_mark_var(v);
      gc_barrier_.arrive_and_wait();
    }
  });
}

void BddManager::snapshot_clear_marks() {
  pool_.run([this](unsigned id) {
    Worker& w = *workers_[id];
    for (unsigned v = 0; v < num_vars_; ++v) {
      NodeArena& arena = w.node_arena(v);
      const std::size_t n = arena.size();
      for (std::size_t s = 0; s < n; ++s) {
        arena.at_own(static_cast<std::uint32_t>(s))
            .aux.store(0, std::memory_order_relaxed);
      }
    }
  });
}

void BddManager::gc() {
  // Compaction rewrites every NodeRef: nothing may stay on disk across it,
  // and every by-ref spill segment is garbage afterwards.
  ensure_all_resident();
  ++gc_runs_;
  pool_.run([this](unsigned id) { gc_driver(id); });
  live_after_gc_ = live_nodes();
  // Operator nodes from the current generation hold stale references.
  ++op_generation_;
  if (pager_ != nullptr) pager_->refs_invalidated();
}

bool BddManager::maybe_gc() {
  // Forced collections fire even with auto_gc off: every maybe_gc call site
  // is a GC-safe point, and that is exactly what the torture runs probe.
  if (PBDD_INJECT_QUERY(kForceGc)) {
    gc();
    return true;
  }
  if (!config_.auto_gc) return false;
  std::size_t allocated = 0;
  for (const auto& w : workers_) {
    for (unsigned v = 0; v < num_vars_; ++v) {
      allocated += w->node_arena(v).size();
    }
  }
  if (allocated < config_.gc_min_nodes) return false;
  if (static_cast<double>(allocated) <=
      config_.gc_growth_factor *
          static_cast<double>(std::max<std::size_t>(live_after_gc_, 1))) {
    return false;
  }
  gc();
  return true;
}

std::size_t BddManager::live_nodes() const noexcept {
  std::size_t total = 0;
  for (const auto& w : workers_) {
    for (unsigned v = 0; v < num_vars_; ++v) {
      total += w->node_arena(v).size();
    }
  }
  return total;
}

std::size_t BddManager::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& w : workers_) total += w->bytes();
  for (const VarUniqueTable& t : unique_) total += t.bytes();
  total += shared_cache_.bytes();
  total += roots_.size() * sizeof(RootEntry);
  return total;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

ManagerStats BddManager::stats() const {
  ManagerStats s;
  s.per_worker.reserve(workers_.size());
  for (unsigned id = 0; id < workers_.size(); ++id) {
    WorkerStats w = workers_[id]->stats();
    // Lock waits and CAS retries are recorded in the unique tables (per
    // variable, per worker); fold this worker's share into its stats.
    w.lock_wait_ns = 0;
    w.cas_retries = 0;
    for (const VarUniqueTable& table : unique_) {
      w.lock_wait_ns += table.lock_wait_ns(id);
      w.cas_retries += table.cas_retries(id);
    }
    s.per_worker.push_back(w);
    s.total += w;
  }
  s.gc_runs = gc_runs_;
  s.live_nodes = live_after_gc_;
  s.allocated_nodes = live_nodes();
  s.bytes = bytes();
  s.max_nodes_per_var = max_nodes_per_var();
  s.lock_wait_per_var_ns = lock_wait_per_var_ns();
  return s;
}

void BddManager::reset_stats() {
  for (auto& w : workers_) w->stats() = WorkerStats{};
  for (VarUniqueTable& t : unique_) t.reset_lock_waits();
}

std::vector<std::size_t> BddManager::max_nodes_per_var() const {
  std::vector<std::size_t> result(num_vars_);
  for (unsigned v = 0; v < num_vars_; ++v) {
    result[v] = unique_[v].max_count();
  }
  return result;
}

std::vector<std::uint64_t> BddManager::lock_wait_per_var_ns() const {
  std::vector<std::uint64_t> result(num_vars_);
  for (unsigned v = 0; v < num_vars_; ++v) {
    result[v] = unique_[v].lock_wait_ns_total();
  }
  return result;
}

}  // namespace pbdd::core
