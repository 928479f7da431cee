#include "core/worker.hpp"

#include <cassert>

#include "core/bdd_manager.hpp"
#include "obs/trace_points.hpp"
#include "runtime/backoff.hpp"
#include "runtime/inject.hpp"
#include "util/aligned.hpp"
#include "util/timer.hpp"

namespace pbdd::core {

Worker::Worker(BddManager* mgr, unsigned id, unsigned num_vars,
               const Config& config)
    : mgr_(mgr),
      id_(id),
      config_(config),
      node_arenas_(num_vars),
      op_arenas_(num_vars),
      live_count_(num_vars, 0) {
  cache_.init(config.cache_log2);
  shared_cache_ = mgr->shared_cache();
  shared_levels_ = config.shared_cache_levels == 0 ? num_vars
                                                   : config.shared_cache_levels;
}

Worker::~Worker() = default;

// ---------------------------------------------------------------------------
// Context recycling
// ---------------------------------------------------------------------------

EvalContext* Worker::acquire_context() {
  if (!free_contexts_.empty()) {
    EvalContext* ctx = free_contexts_.back();
    free_contexts_.pop_back();
    ctx->reset(next_ctx_serial_++);
    return ctx;
  }
  context_pool_.push_back(std::make_unique<EvalContext>(
      static_cast<unsigned>(node_arenas_.size()), next_ctx_serial_++));
  return context_pool_.back().get();
}

void Worker::release_context(EvalContext* ctx) {
  free_contexts_.push_back(ctx);
}

void Worker::link(OpQueue& q, unsigned var, std::uint32_t slot) {
  OpNode& n = op_arenas_[var].at(slot);
  n.next = kNilSlot;
  if (q.tail == kNilSlot) {
    q.head = q.tail = slot;
  } else {
    op_arenas_[var].at(q.tail).next = slot;
    q.tail = slot;
  }
}

void Worker::enqueue(OpQueue& q, unsigned var, std::uint32_t slot) {
  link(q, var, slot);
  ++current_->queued;
  if (var < current_->sweep_var) current_->sweep_var = var;
}

// ---------------------------------------------------------------------------
// preprocess_op (Fig. 4, lines 13-20)
// ---------------------------------------------------------------------------

Ref Worker::preprocess(Op op, NodeRef f, NodeRef g) {
  // Line 14: terminal case.
  {
    const Ref t = terminal_case<Ref>(op, f, g, kZero, kOne, kInvalid);
    if (t != kInvalid) return t;
  }
  if (op_commutative(op) && f > g) std::swap(f, g);

  // Line 15: compute-cache probe (computed AND uncomputed operations).
  ++stats_.cache_lookups;
  PBDD_TRACE_CACHE_SAMPLE(stats_.cache_lookups, stats_.cache_hits);
  const std::uint32_t slot = cache_.slot_for(op, f, g);
  if (const ComputeCache::Entry* e = cache_.lookup(slot, op, f, g)) {
    if (is_bdd(e->result)) {
      ++stats_.cache_hits;
      return e->result;
    }
    if (e->generation() == mgr_->op_generation()) {
      OpNode& cached = own_op(e->result);
      const Ref res = cached.result.load(std::memory_order_acquire);
      if (res != kInvalid) {
        // Computed since insertion (same worker, or a thief's publication).
        ++stats_.cache_hits;
        return res;
      }
      if (cached.ctx_serial == current_->serial()) {
        // In flight in the current context: its reduction is guaranteed to
        // run before any parent queued behind it in this context.
        ++stats_.cache_op_hits;
        return e->result;
      }
    }
    // Uncomputed operation owned by a pushed ancestor context (possibly in
    // a thief's hands): its result may not exist by the time the current
    // context reduces, so re-expand. This duplication is the price of the
    // paper's unshared caches and shows up in the Fig. 11 operation counts.
    ++stats_.cache_cross_ctx_misses;
  }

  const unsigned var = std::min(level_of(f), level_of(g));

  // Private miss: another worker may already have finished this very
  // operation (core/shared_cache.hpp); only top-level-rooted operations
  // are shared (Config::shared_cache_levels). A hit is copied into the
  // private cache so repeats stay on the synchronization-free path.
  if (shared_cache_ != nullptr && var < shared_levels_) {
    const NodeRef shared = shared_cache_->lookup(op, f, g);
    if (shared != kInvalid) {
      ++stats_.cache_shared_hits;
      cache_.insert(slot, op, f, g, shared, mgr_->op_generation());
      return shared;
    }
  }

  // Lines 16-19: create the operator node and queue it for expansion.
  assert(var < node_arenas_.size());
  OpArena& arena = op_arenas_[var];
  const std::uint32_t op_slot = arena.alloc();
  OpNode& n = arena.at(op_slot);
  n.f = f;
  n.g = g;
  n.branch0 = kInvalid;
  n.branch1 = kInvalid;
  n.result.store(kInvalid, std::memory_order_relaxed);
  n.cache_slot = slot;
  n.ctx_serial = current_->serial();
  n.op = static_cast<std::uint16_t>(op);
  n.flags = 0;
  const Ref r = make_op_ref(id_, var, op_slot);
  enqueue(current_->op_q(var), var, op_slot);
  cache_.insert(slot, op, f, g, r, mgr_->op_generation());
  return r;
}

// ---------------------------------------------------------------------------
// Expansion phase (Fig. 5)
// ---------------------------------------------------------------------------

void Worker::expansion() {
  util::WallTimer timer;
  PBDD_TRACE_SPAN(trace_span, kExpansion);
  EvalContext& ctx = *current_;
  std::uint64_t round_ops = 0;  // Fig. 5 resets nOpsProcessed per call
  std::uint32_t poll = 0;
  const bool bounded = config_.eval_threshold != Config::kUnbounded;
  const bool paged = mgr_->paged();

  for (unsigned x = ctx.sweep_var; x < ctx.num_vars(); ++x) {
    OpQueue& q = ctx.op_q(x);
    // Fault barrier: every node this iteration dereferences — cofactored
    // operands, unique-table chains — sits at level x (Section 2.2), so one
    // touch makes the whole sweep level safe under paging.
    if (q.head != kNilSlot) mgr_->touch_level(x);
    while (q.head != kNilSlot) {
      const std::uint32_t slot = q.head;
      OpNode& n = op_arenas_[x].at(slot);
      q.head = n.next;
      if (q.head == kNilSlot) q.tail = kNilSlot;
      --ctx.queued;

      // Prefetch the next operation and its operand nodes: cofactoring
      // reads both operands' (low, high), and those lines are the dominant
      // expansion-phase misses on large builds.
      if (q.head != kNilSlot) {
        const OpNode& peek = op_arenas_[x].at(q.head);
        util::prefetch_read(&peek);
        // Under paging, only level-x operands are guaranteed resident (the
        // barrier above); a deeper operand may live in a released arena,
        // where computing its address chases a null directory entry.
        if (is_internal(peek.f) && (!paged || level_of(peek.f) == x)) {
          util::prefetch_read(&mgr_->node(peek.f));
        }
        if (is_internal(peek.g) && (!paged || level_of(peek.g) == x)) {
          util::prefetch_read(&mgr_->node(peek.g));
        }
      }

      const Op op = n.operation();
      const NodeRef f = n.f;
      const NodeRef g = n.g;
      n.branch0 = preprocess(op, mgr_->cofactor(f, x, false),
                             mgr_->cofactor(g, x, false));
      n.branch1 = preprocess(op, mgr_->cofactor(f, x, true),
                             mgr_->cofactor(g, x, true));
      link(ctx.red_q(x), x, slot);
      ++round_ops;
      ++stats_.ops_performed;

      // Lines 9-13: threshold overflow -> spill remaining operations into
      // stealable groups and continue in a child context (or, under the
      // hybrid ablation policy, finish them depth-first). An idle worker's
      // hunger triggers the context switch early (Section 3.3).
      const bool threshold_hit = bounded && round_ops > config_.eval_threshold;
      bool hungry_spill = false;
      if (!threshold_hit && ++poll >= config_.share_poll_interval) {
        poll = 0;
        PBDD_INJECT(kHungryPoll);
        hungry_spill =
            mgr_->hungry_workers.load(std::memory_order_relaxed) > 0 &&
            ctx.queued >= config_.group_size / 4;
        if (!hungry_spill && PBDD_INJECT_QUERY(kForceSpill)) {
          hungry_spill = true;
        }
      }
      if ((threshold_hit || hungry_spill) && ctx.queued > 0) {
        if (threshold_hit &&
            config_.overflow == OverflowPolicy::kDepthFirst) {
          df_drain(x);
          round_ops = 0;  // the depth-first tail bounded this round
          continue;
        }
        ctx.ops_processed += round_ops;
        spill(x);
        stats_.expansion_ns += timer.elapsed_ns();
        PBDD_TRACE_SPAN_ARGS(trace_span, round_ops, 0);
        return;
      }
    }
  }
  ctx.sweep_var = ctx.num_vars();
  ctx.ops_processed += round_ops;
  stats_.expansion_ns += timer.elapsed_ns();
  PBDD_TRACE_SPAN_ARGS(trace_span, round_ops, 0);
}

void Worker::spill(unsigned from_var) {
  PBDD_INJECT(kContextPush);
  EvalContext& ctx = *current_;
  // Steal granularity scales with the spill: a context pushed with far more
  // queued operations than the workers could drain at group_size apiece is
  // partitioned into proportionally coarser groups, so one steal amortizes
  // its lock and cache-migration cost over more work. The divisor keeps a
  // few groups per active worker in flight for load balance; group_size
  // stays the floor so small spills partition exactly as the paper's fixed
  // scheme (and as adaptive_group_size = false always does).
  std::size_t group_cap = config_.group_size;
  if (config_.adaptive_group_size) {
    const std::size_t streams = std::size_t{4} * mgr_->active_workers();
    const std::size_t scaled = ctx.queued / std::max<std::size_t>(streams, 1);
    if (scaled > group_cap) {
      group_cap = std::min<std::size_t>(scaled, Config::kMaxAdaptiveGroup);
    }
  }
  std::deque<Group> groups;
  Group cur;
  for (unsigned v = from_var; v < ctx.num_vars(); ++v) {
    OpQueue& q = ctx.op_q(v);
    for (std::uint32_t slot = q.head; slot != kNilSlot;) {
      OpNode& n = op_arenas_[v].at(slot);
      cur.tasks.push_back(
          GroupTask{&n, slot, static_cast<std::uint16_t>(v)});
      slot = n.next;
      if (cur.tasks.size() >= group_cap) {
        groups.push_back(std::move(cur));
        cur = Group{};
      }
    }
    q.clear();
  }
  if (!cur.tasks.empty()) groups.push_back(std::move(cur));
  ctx.queued = 0;
  ctx.sweep_var = ctx.num_vars();
  stats_.groups_created += groups.size();
  ++stats_.contexts_pushed;
  PBDD_TRACE_INSTANT(kContextPush, groups.size(), from_var);

  EvalContext* child = acquire_context();
  {
    std::lock_guard lock(steal_mutex_);
    groups_avail_.fetch_add(static_cast<std::uint32_t>(groups.size()),
                            std::memory_order_relaxed);
    ctx.groups = std::move(groups);
    stack_.push_back(current_);
  }
  current_ = child;
  // Fresh stealable work exists: wake parked thieves.
  mgr_->bump_work_epoch();
}

// ---------------------------------------------------------------------------
// Hybrid overflow (OverflowPolicy::kDepthFirst): evaluate the remaining
// queued operations by classic depth-first recursion instead of spilling
// them into a child context. This is the predecessor algorithm the paper
// improves on; results land directly in the operator nodes so the pending
// reduction queues resolve exactly as if a thief had computed them.
// ---------------------------------------------------------------------------

NodeRef Worker::df_evaluate(Op op, NodeRef f, NodeRef g) {
  {
    const Ref t = terminal_case<Ref>(op, f, g, kZero, kOne, kInvalid);
    if (t != kInvalid) return t;
  }
  if (op_commutative(op) && f > g) std::swap(f, g);
  ++stats_.cache_lookups;
  PBDD_TRACE_CACHE_SAMPLE(stats_.cache_lookups, stats_.cache_hits);
  const std::uint32_t slot = cache_.slot_for(op, f, g);
  if (const ComputeCache::Entry* e = cache_.lookup(slot, op, f, g)) {
    if (is_bdd(e->result)) {
      ++stats_.cache_hits;
      return e->result;
    }
    if (e->generation() == mgr_->op_generation()) {
      const Ref res =
          own_op(e->result).result.load(std::memory_order_acquire);
      if (res != kInvalid) {
        ++stats_.cache_hits;
        return res;
      }
    }
    // An uncomputed in-flight operation cannot be awaited from depth-first
    // recursion; recompute (bounded duplication, as with unshared caches).
    ++stats_.cache_cross_ctx_misses;
  }
  const unsigned var = std::min(level_of(f), level_of(g));
  mgr_->touch_level(var);
  if (shared_cache_ != nullptr && var < shared_levels_) {
    const NodeRef shared = shared_cache_->lookup(op, f, g);
    if (shared != kInvalid) {
      ++stats_.cache_shared_hits;
      cache_.insert(slot, op, f, g, shared, mgr_->op_generation());
      return shared;
    }
  }
  ++stats_.ops_performed;
  const NodeRef res0 = df_evaluate(op, mgr_->cofactor(f, var, false),
                                   mgr_->cofactor(g, var, false));
  const NodeRef res1 = df_evaluate(op, mgr_->cofactor(f, var, true),
                                   mgr_->cofactor(g, var, true));
  NodeRef result;
  if (res0 == res1) {
    result = res0;
  } else {
    VarUniqueTable& table = mgr_->unique(var);
    const bool pass_lock = mgr_->locking() && table.pass_locked();
    if (pass_lock) table.acquire(id_);
    bool created = false;
    result = table.find_or_insert(id_, res0, res1, created);
    if (created) ++stats_.nodes_created;
    if (pass_lock) table.release();
  }
  cache_.insert(slot, op, f, g, result, mgr_->op_generation());
  if (shared_cache_ != nullptr && var < shared_levels_) {
    shared_cache_->insert(op, f, g, result);
  }
  return result;
}

void Worker::df_drain(unsigned from_var) {
  EvalContext& ctx = *current_;
  for (unsigned v = from_var; v < ctx.num_vars(); ++v) {
    OpQueue& q = ctx.op_q(v);
    while (q.head != kNilSlot) {
      const std::uint32_t slot = q.head;
      OpNode& n = op_arenas_[v].at(slot);
      q.head = n.next;
      if (q.head == kNilSlot) q.tail = kNilSlot;
      --ctx.queued;
      const NodeRef result = df_evaluate(n.operation(), n.f, n.g);
      n.result.store(result, std::memory_order_release);
      if (n.cache_slot != kNoCacheSlot) {
        cache_.complete(n.cache_slot, n.operation(), n.f, n.g,
                        make_op_ref(id_, v, slot), result);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reduction phase (Fig. 6)
// ---------------------------------------------------------------------------

void Worker::reduction() {
  util::WallTimer timer;
  PBDD_TRACE_SPAN(trace_span, kReduction);
  EvalContext& ctx = *current_;
  const bool locking = mgr_->locking();

  for (unsigned x = ctx.num_vars(); x-- > 0;) {
    OpQueue& q = ctx.red_q(x);
    if (q.head == kNilSlot) continue;
    // Fault barrier for the descending sweep: pass 2's chain walks and
    // inserts dereference only level-x nodes.
    mgr_->touch_level(x);
    OpArena& arena = op_arenas_[x];

    // Pass 1 (no lock held): resolve branches to BDD results. This is where
    // an owner stalls on results still being produced by thieves — and
    // turns thief itself (Section 3.3) — so it must not hold the variable
    // lock.
    for (std::uint32_t slot = q.head; slot != kNilSlot;
         slot = arena.at(slot).next) {
      OpNode& n = arena.at(slot);
      if (n.next != kNilSlot) util::prefetch_write(&arena.at(n.next));
      n.branch0 = resolve(n.branch0);
      n.branch1 = resolve(n.branch1);
    }

    // Pass 2: produce all of this variable's BDD nodes under one lock
    // acquisition (the paper's per-variable locking discipline); the
    // lock-free table (the Section 6 "distributed hashing" alternative)
    // needs no bracketing at all.
    VarUniqueTable& table = mgr_->unique(x);
    const bool pass_lock = locking && table.pass_locked();
    const std::uint64_t hold_t0 = pass_lock ? PBDD_TRACE_NOW() : 0;
    if (pass_lock) table.acquire(id_);
    for (std::uint32_t slot = q.head; slot != kNilSlot;) {
      OpNode& n = arena.at(slot);
      if (n.next != kNilSlot) {
        // The insert below is a hash walk with cold misses; overlap the
        // next operation's line fill with it.
        util::prefetch_write(&arena.at(n.next));
      }
      const NodeRef res0 = n.branch0;
      const NodeRef res1 = n.branch1;
      NodeRef result;
      if (res0 == res1) {
        result = res0;
      } else {
        bool created = false;
        result = table.find_or_insert(id_, res0, res1, created);
        if (created) ++stats_.nodes_created;
      }
      PBDD_INJECT(kReducePublish);
      n.result.store(result, std::memory_order_release);
      if (n.cache_slot != kNoCacheSlot) {
        cache_.complete(n.cache_slot, n.operation(), n.f, n.g,
                        make_op_ref(id_, x, slot), result);
      }
      slot = n.next;
    }
    if (pass_lock) {
      table.release();
      PBDD_TRACE_EMIT_SPAN(kLockHold, hold_t0, x, 0);
    }
    if (shared_cache_ != nullptr && x < shared_levels_) {
      // Publish outside the lock bracket: the walk re-reads warm arena
      // lines, and keeping CASes out of the pass-lock window matters more.
      for (std::uint32_t slot = q.head; slot != kNilSlot;) {
        const OpNode& n = arena.at(slot);
        shared_cache_->insert(
            n.operation(), n.f, n.g,
            n.result.load(std::memory_order_relaxed));
        slot = n.next;
      }
    }
    q.clear();
  }
  stats_.reduction_ns += timer.elapsed_ns();
}

NodeRef Worker::resolve(Ref r) {
  if (is_bdd(r)) return r;
  OpNode& n = own_op(r);
  NodeRef res = n.result.load(std::memory_order_acquire);
  if (res != kInvalid) return res;

  // The operation was handed to a thief inside a stolen group; stall and
  // become a thief ourselves until the result is published. The epoch is
  // captured before every scan and the thief's writeback bumps it, so a
  // publication racing the scan turns the park into an immediate return —
  // no lost wakeups, and no spin/sleep ladder burning the producer's
  // timeslice on an oversubscribed host.
  ++stats_.reduction_stalls;
  PBDD_TRACE_SPAN(stall_span, kResolveStall);
  bool hungry = false;
  while ((res = n.result.load(std::memory_order_acquire)) == kInvalid) {
    PBDD_INJECT(kResolveStall);
    const std::uint64_t seen = mgr_->work_epoch();
    if (try_steal_and_run()) {
      if (hungry) {
        mgr_->hungry_workers.fetch_sub(1, std::memory_order_relaxed);
        hungry = false;
      }
      continue;
    }
    if (!hungry) {
      mgr_->hungry_workers.fetch_add(1, std::memory_order_relaxed);
      hungry = true;
    }
    if ((res = n.result.load(std::memory_order_acquire)) != kInvalid) break;
    mgr_->wait_for_work(seen);
  }
  if (hungry) mgr_->hungry_workers.fetch_sub(1, std::memory_order_relaxed);
  return res;
}

// ---------------------------------------------------------------------------
// pbf_op main loop (Fig. 4, lines 1-12)
// ---------------------------------------------------------------------------

NodeRef Worker::evaluate(Op op, NodeRef f, NodeRef g) {
  assert(is_bdd(f) && is_bdd(g));
  const std::size_t stack_base = stack_.size();
  EvalContext* const saved = current_;
  current_ = acquire_context();

  const Ref root = preprocess(op, f, g);
  if (is_bdd(root)) {
    release_context(current_);
    current_ = saved;
    return root;
  }
  OpNode& root_node = own_op(root);

  for (;;) {
    expansion();
    reduction();
    if (stack_.size() > stack_base) {
      // Lines 5-8: drain the pushed parent's operation groups one at a time.
      if (take_group_from_top()) continue;
      // Lines 9-11: parent exhausted; pop it and reduce it next round.
      EvalContext* top;
      {
        std::lock_guard lock(steal_mutex_);
        top = stack_.back();
        stack_.pop_back();
      }
      release_context(current_);
      current_ = top;
      PBDD_TRACE_INSTANT(kContextPop, stack_.size() - stack_base, 0);
      continue;
    }
    break;
  }

  const NodeRef result = root_node.result.load(std::memory_order_acquire);
  assert(result != kInvalid);
  release_context(current_);
  current_ = saved;
  return result;
}

bool Worker::take_group_from_top() {
  PBDD_INJECT(kGroupTake);
  Group group;
  {
    std::lock_guard lock(steal_mutex_);
    EvalContext* top = stack_.back();
    if (top->groups.empty()) return false;
    group = std::move(top->groups.front());
    top->groups.pop_front();
    groups_avail_.fetch_sub(1, std::memory_order_relaxed);
  }
  ++stats_.groups_taken;
  PBDD_TRACE_INSTANT(kGroupTake, group.tasks.size(), 0);
  EvalContext& ctx = *current_;
  for (const GroupTask& task : group.tasks) {
    task.node->ctx_serial = ctx.serial();
    enqueue(ctx.op_q(task.var), task.var, task.slot);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Work stealing (Section 3.3)
// ---------------------------------------------------------------------------

bool Worker::try_steal_and_run() {
  PBDD_INJECT(kStealAttempt);
  const unsigned n = mgr_->workers();
  for (unsigned i = 0; i < n; ++i) {
    Worker& victim = mgr_->worker((id_ + i) % n);
    // Lock-free emptiness probe: with several workers hungry at once, the
    // old sweep serialized them all on every victim's steal_mutex_ even
    // when there was nothing to take. A stale zero is benign — the spill
    // that publishes fresh groups bumps the work epoch and the scan reruns.
    if (victim.groups_avail_.load(std::memory_order_relaxed) == 0) continue;
    Group group;
    bool got = false;
    {
      std::lock_guard lock(victim.steal_mutex_);
      // Bottom of the stack first: the oldest context holds the
      // coarsest-grained work.
      for (EvalContext* ctx : victim.stack_) {
        if (!ctx->groups.empty()) {
          group = std::move(ctx->groups.front());
          ctx->groups.pop_front();
          victim.groups_avail_.fetch_sub(1, std::memory_order_relaxed);
          got = true;
          break;
        }
      }
    }
    if (!got) continue;

    PBDD_INJECT(kStealSuccess);
    ++stats_.groups_stolen;
    stats_.tasks_stolen += group.tasks.size();
    PBDD_TRACE_SPAN(steal_span, kStealRun);
    PBDD_TRACE_SPAN_ARGS(steal_span, group.tasks.size(), (id_ + i) % n);
    for (const GroupTask& task : group.tasks) {
      OpNode* node = task.node;
      node->flags |= OpNode::kStolen;
      // Compute the stolen operation from scratch in our own context and
      // publish the result back into the victim's operator node.
      const NodeRef res = evaluate(node->operation(), node->f, node->g);
      PBDD_INJECT(kStealWriteback);
      node->result.store(res, std::memory_order_release);
      // The victim may be parked on this very result; wake it.
      mgr_->bump_work_epoch();
      PBDD_TRACE_INSTANT(kStealWriteback, 0, 0);
    }
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Top-level batch participation
// ---------------------------------------------------------------------------

void Worker::run_batch() {
  // Oversubscription guard (Config::max_active_workers): a passive worker
  // neither claims items nor steals — it parks on the pool's condition
  // variable instead of turning the batch into a scheduler convoy. Its
  // arenas stay live and it still walks every GC phase in lockstep.
  if (id_ >= mgr_->active_workers()) return;
  BddManager::BatchState& batch = mgr_->batch();
  const std::size_t total = batch.items.size();
  BatchControl* const control = batch.control;

  // Resolve one operand of a claimed item: a plain handle, or (dep >= 0)
  // the result of an earlier item of the same batch. A pending dependency
  // is always owned by another worker (indices are claimed in fetch_add
  // order, and a claim deterministically ends in done or skipped), so the
  // wait terminates; meanwhile this worker stalls-and-steals like a
  // reduction stall. References are read through the handles at the last
  // moment: a sequential-mode collection between batch items may have
  // moved nodes.
  const auto operand = [&](std::int32_t dep, const Bdd& handle,
                           bool& ok) -> NodeRef {
    if (dep < 0) return handle.ref();
    std::atomic<std::uint8_t>& state = batch.item_state[dep];
    std::uint8_t s = state.load(std::memory_order_acquire);
    if (s == BddManager::BatchState::kItemPending) {
      ++stats_.batch_dep_stalls;
      bool hungry = false;
      for (;;) {
        PBDD_INJECT(kBatchLoop);
        const std::uint64_t seen = mgr_->work_epoch();
        s = state.load(std::memory_order_acquire);
        if (s != BddManager::BatchState::kItemPending) break;
        if (try_steal_and_run()) {
          if (hungry) {
            mgr_->hungry_workers.fetch_sub(1, std::memory_order_relaxed);
            hungry = false;
          }
          continue;
        }
        if (!hungry) {
          mgr_->hungry_workers.fetch_add(1, std::memory_order_relaxed);
          hungry = true;
        }
        s = state.load(std::memory_order_acquire);
        if (s != BddManager::BatchState::kItemPending) break;
        mgr_->wait_for_work(seen);
      }
      if (hungry) {
        mgr_->hungry_workers.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (s == BddManager::BatchState::kItemSkipped) {
      ok = false;
      return kInvalid;
    }
    return batch.result_handles[dep].ref();
  };

  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= total) break;
    const BddManager::BatchState::Item& item = batch.items[i];
    // Cancellation/deadline checkpoint: an expired batch stops claiming
    // items, and skips cascade through the dependency DAG (an item whose
    // dependency was skipped is skipped too, never evaluated with a
    // missing operand). Skipped items are accounted as completed so the
    // whole batch terminates normally.
    bool ok = control == nullptr || !control->expired();
    NodeRef f = kInvalid;
    NodeRef g = kInvalid;
    if (ok) f = operand(item.f_dep, item.f, ok);
    if (ok) g = operand(item.g_dep, item.g, ok);
    if (!ok) {
      batch.item_state[i].store(BddManager::BatchState::kItemSkipped,
                                std::memory_order_release);
      if (control != nullptr) {
        control->skipped.fetch_add(1, std::memory_order_relaxed);
      }
      batch.completed.fetch_add(1, std::memory_order_acq_rel);
      mgr_->bump_work_epoch();
      continue;
    }
    {
      PBDD_TRACE_SPAN(top_span, kEvalTop);
      PBDD_TRACE_SPAN_ARGS(top_span, i, 0);
      const NodeRef result = evaluate(item.op, f, g);
      mgr_->register_batch_result(i, result);
    }
    batch.completed.fetch_add(1, std::memory_order_acq_rel);
    // Dependents and the batch tail loop may be parked on this completion.
    mgr_->bump_work_epoch();
    ++stats_.top_ops;
    if (config_.sequential_mode) mgr_->maybe_gc();
  }

  // Keep the pipeline busy: steal until every top-level operation in the
  // batch has completed, parking on the work epoch when there is nothing
  // to take.
  bool hungry = false;
  while (batch.completed.load(std::memory_order_acquire) < total) {
    PBDD_INJECT(kBatchLoop);
    const std::uint64_t seen = mgr_->work_epoch();
    if (try_steal_and_run()) {
      if (hungry) {
        mgr_->hungry_workers.fetch_sub(1, std::memory_order_relaxed);
        hungry = false;
      }
      continue;
    }
    if (!hungry) {
      mgr_->hungry_workers.fetch_add(1, std::memory_order_relaxed);
      hungry = true;
    }
    if (batch.completed.load(std::memory_order_acquire) >= total) break;
    mgr_->wait_for_work(seen);
  }
  if (hungry) mgr_->hungry_workers.fetch_sub(1, std::memory_order_relaxed);
}

void Worker::end_of_batch_reset() {
  for (OpArena& arena : op_arenas_) arena.rewind();
}

std::size_t Worker::bytes() const noexcept {
  std::size_t total = cache_.bytes();
  for (const NodeArena& a : node_arenas_) total += a.bytes();
  for (const OpArena& a : op_arenas_) total += a.bytes();
  return total;
}

// ---------------------------------------------------------------------------
// Garbage collection phases (Section 3.4); driven by BddManager::gc_driver
// ---------------------------------------------------------------------------

void Worker::gc_mark_var(unsigned var) {
  PBDD_INJECT(kGcMark);
  NodeArena& arena = node_arenas_[var];
  const std::uint32_t size = arena.size();
  for (std::uint32_t slot = 0; slot < size; ++slot) {
    BddNode& n = arena.at_own(slot);
    if ((n.aux.load(std::memory_order_relaxed) & BddNode::kMarkBit) == 0) {
      continue;
    }
    for (const NodeRef child : {n.low, n.high}) {
      if (!is_terminal(child)) {
        mgr_->node(child).aux.fetch_or(BddNode::kMarkBit,
                                       std::memory_order_relaxed);
      }
    }
  }
}

void Worker::gc_forward() {
  const unsigned num_vars = static_cast<unsigned>(node_arenas_.size());
  for (unsigned v = 0; v < num_vars; ++v) {
    NodeArena& arena = node_arenas_[v];
    const std::uint32_t size = arena.size();
    std::uint32_t next_slot = 0;
    for (std::uint32_t slot = 0; slot < size; ++slot) {
      BddNode& n = arena.at_own(slot);
      if (n.aux.load(std::memory_order_relaxed) & BddNode::kMarkBit) {
        n.aux.store(BddNode::kMarkBit | next_slot,
                    std::memory_order_relaxed);
        ++next_slot;
      }
    }
    live_count_[v] = next_slot;
  }
}

namespace {
NodeRef forwarded(const BddManager& mgr, NodeRef r) {
  if (is_terminal(r)) return r;
  const std::uint64_t aux =
      mgr.node(r).aux.load(std::memory_order_relaxed);
  assert(aux & BddNode::kMarkBit);
  return with_slot(r, static_cast<std::uint32_t>(aux));
}
}  // namespace

void Worker::gc_fix() {
  const unsigned num_vars = static_cast<unsigned>(node_arenas_.size());
  for (unsigned v = 0; v < num_vars; ++v) {
    NodeArena& arena = node_arenas_[v];
    const std::uint32_t size = arena.size();
    for (std::uint32_t slot = 0; slot < size; ++slot) {
      BddNode& n = arena.at_own(slot);
      if ((n.aux.load(std::memory_order_relaxed) & BddNode::kMarkBit) == 0) {
        continue;
      }
      n.low = forwarded(*mgr_, n.low);
      n.high = forwarded(*mgr_, n.high);
    }
  }
}

void Worker::gc_move() {
  const unsigned num_vars = static_cast<unsigned>(node_arenas_.size());
  for (unsigned v = 0; v < num_vars; ++v) {
    NodeArena& arena = node_arenas_[v];
    const std::uint32_t size = arena.size();
    for (std::uint32_t slot = 0; slot < size; ++slot) {
      BddNode& src = arena.at_own(slot);
      const std::uint64_t aux = src.aux.load(std::memory_order_relaxed);
      if ((aux & BddNode::kMarkBit) == 0) continue;
      const std::uint32_t dst_slot = static_cast<std::uint32_t>(aux);
      BddNode& dst = arena.at_own(dst_slot);
      // Sliding compaction: dst_slot <= slot and slots are visited in
      // ascending order, so the destination's previous occupant (if any)
      // has already been copied out.
      dst.low = src.low;
      dst.high = src.high;
      dst.next.store(kZero, std::memory_order_relaxed);
      dst.aux.store(0, std::memory_order_relaxed);
    }
    arena.truncate(live_count_[v]);
  }
  cache_.flush();
}

bool Worker::gc_try_rehash_var(unsigned var) {
  PBDD_INJECT(kGcRehash);
  VarUniqueTable& table = mgr_->unique(var);
  // Only the pass-lock discipline can find the table busy; lock-free
  // reinserts synchronize per insert, so the claim always works.
  const bool pass_lock = mgr_->locking() && table.pass_locked();
  if (pass_lock && !table.try_acquire()) return false;
  NodeArena& arena = node_arenas_[var];
  const std::uint32_t size = arena.size();
  for (std::uint32_t slot = 0; slot < size; ++slot) {
    BddNode& n = arena.at_own(slot);
    table.reinsert(id_, make_node_ref(id_, var, slot), n.low, n.high);
  }
  if (pass_lock) table.release();
  PBDD_TRACE_INSTANT(kTableRehash, size, var);
  return true;
}

}  // namespace pbdd::core
