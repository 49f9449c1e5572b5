#include "core/lifecycle/dispatch_core.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/log.hpp"

namespace tora::core::lifecycle {

namespace {

/// Exact equality of two allocations, bit for bit, so a lane groups tasks
/// whose allocations no comparison can tell apart (NaN included).
bool same_bits(const ResourceVector& a, const ResourceVector& b) noexcept {
  for (ResourceKind k : kAllResources) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

/// Keys start mid-range: push-backs count up and front requeues down, and
/// neither runs out in any feasible run.
constexpr std::uint64_t kFirstKey = std::uint64_t{1} << 63;

}  // namespace

DispatchCore::DispatchCore(std::span<const TaskSpec> tasks,
                           TaskAllocator& allocator, DispatchConfig config,
                           RuntimeHooks* hooks)
    : tasks_(tasks),
      allocator_(allocator),
      config_(config),
      hooks_(hooks),
      entries_(tasks.size()),
      dependents_(tasks.size()),
      links_(tasks.size()) {
  if (tasks.size() >= kNil) {
    throw std::invalid_argument("DispatchCore: too many tasks");
  }
  clear_queue();
  alloc_category_.reserve(tasks.size());
  acct_category_.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].id != i) {
      throw std::invalid_argument(
          "DispatchCore: task ids must be dense and in submission order");
    }
    entries_[i].deps_remaining = tasks_[i].deps.size();
    for (std::uint64_t dep : tasks_[i].deps) {
      if (dep >= i) {
        throw std::invalid_argument(
            "DispatchCore: dependency ids must be smaller than the task id");
      }
      dependents_[dep].push_back(i);
    }
    // The only per-task string work in the whole lifecycle: one intern into
    // each table. Everything downstream is a dense index.
    alloc_category_.push_back(allocator_.intern(tasks_[i].category));
    acct_category_.push_back(accounting_.intern(tasks_[i].category));
  }
  allocator_.reserve_history(tasks_.size());
}

void DispatchCore::start() {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    entries_[i].submitted = true;
    maybe_ready(i);
  }
}

void DispatchCore::mark_submitted(std::uint64_t task_id) {
  entries_[task_id].submitted = true;
  maybe_ready(task_id);
}

void DispatchCore::maybe_ready(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  if (!e.submitted || e.deps_remaining > 0 || e.phase != TaskPhase::Pending) {
    return;
  }
  e.phase = TaskPhase::Queued;
  enqueue(task_id, false);
}

std::uint32_t DispatchCore::lane_for(const TaskEntry& e) {
  // A first-attempt allocation may be recomputed at dispatch; so may a
  // retry task's that was never cached.
  if (!e.is_retry || !e.has_alloc) return 0;
  for (std::uint32_t l : retry_lanes_) {
    if (same_bits(lanes_[l].alloc, e.alloc)) return l;
  }
  std::uint32_t l;
  if (free_lanes_.empty()) {
    l = static_cast<std::uint32_t>(lanes_.size());
    lanes_.emplace_back();
  } else {
    l = free_lanes_.back();
    free_lanes_.pop_back();
  }
  lanes_[l].alloc = e.alloc;
  retry_lanes_.push_back(l);
  return l;
}

void DispatchCore::enqueue(std::uint64_t task_id, bool front) {
  const auto id = static_cast<std::uint32_t>(task_id);
  QueueLink& link = links_[id];
  link.lane = lane_for(entries_[task_id]);
  Lane& lane = lanes_[link.lane];
  if (front) {
    link.key = front_key_--;
    link.prev = kNil;
    link.next = queue_head_;
    (queue_head_ == kNil ? queue_tail_ : links_[queue_head_].prev) = id;
    queue_head_ = id;
    link.lane_next = lane.head;
    if (lane.head == kNil) lane.tail = id;
    lane.head = id;
  } else {
    link.key = back_key_++;
    link.next = kNil;
    link.prev = queue_tail_;
    (queue_tail_ == kNil ? queue_head_ : links_[queue_tail_].next) = id;
    queue_tail_ = id;
    link.lane_next = kNil;
    (lane.tail == kNil ? lane.head : links_[lane.tail].lane_next) = id;
    lane.tail = id;
  }
  ++ready_count_;
}

void DispatchCore::advance(std::uint32_t l, bool dequeued) noexcept {
  Lane& lane = lanes_[l];
  const std::uint32_t id = lane.cur;
  const QueueLink& link = links_[id];
  lane.cur = link.lane_next;
  if (!dequeued) {
    lane.kept = id;
    return;
  }
  (lane.kept == kNil ? lane.head : links_[lane.kept].lane_next) =
      link.lane_next;
  if (lane.tail == id) lane.tail = lane.kept;
  (link.prev == kNil ? queue_head_ : links_[link.prev].next) = link.next;
  (link.next == kNil ? queue_tail_ : links_[link.next].prev) = link.prev;
  --ready_count_;
}

void DispatchCore::clear_queue() noexcept {
  lanes_.resize(1);
  lanes_[0] = Lane{};
  retry_lanes_.clear();
  free_lanes_.clear();
  queue_head_ = kNil;
  queue_tail_ = kNil;
  ready_count_ = 0;
  front_key_ = kFirstKey - 1;
  back_key_ = kFirstKey;
}

void DispatchCore::ensure_allocation(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  if (!e.has_alloc || (!e.is_retry && e.alloc_revision != allocator_.revision())) {
    e.alloc = allocator_.allocate(alloc_category_[task_id]);
    if (config_.alloc_inflation != 1.0) {
      for (ResourceKind k : allocator_.config().managed) {
        e.alloc[k] = std::min(e.alloc[k] * config_.alloc_inflation,
                              allocator_.config().worker_capacity[k]);
      }
    }
    e.has_alloc = true;
    e.alloc_revision = allocator_.revision();
    if (hooks_) hooks_->allocation_committed(task_id, e.alloc, false);
  }
}

std::size_t DispatchCore::dispatch_pass(const PlaceFn& place,
                                        const CommitFn& commit,
                                        const DeferFn& defer,
                                        std::size_t max_placements,
                                        const NoFitMemo* no_fit) {
  // One pass suffices: placements only shrink the free space, so a task
  // that did not fit now will not fit later in the same pass. Tasks keep
  // their keys, so the unplaced ones keep their order, and a quota-limited
  // pass leaves the unscanned ones where they were.
  std::size_t placed = 0;
  // Offers one task; true when it left the queue (placed or made fatal).
  const auto visit = [&](std::uint64_t task_id) {
    if (defer && defer(task_id)) return false;
    ensure_allocation(task_id);
    TaskEntry& e = entries_[task_id];
    const auto worker = place(task_id, e.alloc);
    if (!worker) return false;
    if (config_.max_attempts > 0 && e.attempts >= config_.max_attempts) {
      make_fatal(task_id);
      return true;
    }
    ++e.attempts;
    e.phase = TaskPhase::Running;
    e.running_on = *worker;
    // Hook before CommitFn: the write-ahead journal must record the
    // dispatch before the commit sends anything over a wire.
    if (hooks_) hooks_->task_dispatched(task_id, *worker, e.attempts);
    commit(task_id, *worker, e.alloc);
    ++placed;
    return true;
  };

  lanes_[0].cur = lanes_[0].head;
  lanes_[0].kept = kNil;
  for (std::uint32_t l : retry_lanes_) {
    lanes_[l].cur = lanes_[l].head;
    lanes_[l].kept = kNil;
  }
  if (!no_fit) {
    // No lane can be dropped: walk the queue in key order. Each lane's
    // cursor points at the visited task, since the lanes are key-ordered
    // too.
    std::uint32_t id = queue_head_;
    while (id != kNil && placed < max_placements) {
      const QueueLink& link = links_[id];
      const std::uint32_t next = link.next;
      advance(link.lane, visit(id));
      id = next;
    }
  } else {
    // Merge the lanes in key order: a min-heap of retry lanes by their next
    // task's key, and lane 0 walked directly while it is ahead of the heap.
    const auto later = [this](std::uint32_t a, std::uint32_t b) {
      return links_[lanes_[a].cur].key > links_[lanes_[b].cur].key;
    };
    // Filled by push_back, not assign: assign reallocates to the exact size
    // each time the lane count grows, which measured ~0.8 MB more peak RSS
    // on a deep-queue protocol run.
    merge_heap_.clear();
    for (std::uint32_t l : retry_lanes_) merge_heap_.push_back(l);
    std::make_heap(merge_heap_.begin(), merge_heap_.end(), later);
    while (placed < max_placements) {
      const std::uint64_t retry_key =
          merge_heap_.empty() ? ~std::uint64_t{0}
                              : links_[lanes_[merge_heap_.front()].cur].key;
      while (lanes_[0].cur != kNil && links_[lanes_[0].cur].key < retry_key &&
             placed < max_placements) {
        advance(0, visit(lanes_[0].cur));
      }
      if (merge_heap_.empty() || placed == max_placements) break;
      std::pop_heap(merge_heap_.begin(), merge_heap_.end(), later);
      const std::uint32_t l = merge_heap_.back();
      // Every task of the lane asks for its alloc: once the memo refuses
      // it, it refuses the rest of the lane for the rest of the call.
      if (no_fit->refuses(lanes_[l].alloc)) {
        merge_heap_.pop_back();
        continue;
      }
      advance(l, visit(lanes_[l].cur));
      if (lanes_[l].cur == kNil) {
        merge_heap_.pop_back();
      } else {
        std::push_heap(merge_heap_.begin(), merge_heap_.end(), later);
      }
    }
  }
  // Recycle the retry lanes this pass emptied.
  std::erase_if(retry_lanes_, [this](std::uint32_t l) {
    if (lanes_[l].head != kNil) return false;
    free_lanes_.push_back(l);
    return true;
  });
  return placed;
}

double DispatchCore::significance_for(const TaskSpec& spec) const {
  // The paper's rule (§V-A): significance = task id (1-based), so recent
  // submissions dominate the bucketing state. Constant is the no-recency
  // ablation.
  return config_.significance == DispatchConfig::Significance::TaskId
             ? static_cast<double>(spec.id) + 1.0
             : 1.0;
}

void DispatchCore::complete(std::uint64_t task_id,
                            const ResourceVector& measured_peak,
                            double runtime_s) {
  TaskEntry& e = entries_[task_id];
  const TaskSpec& spec = tasks_[task_id];
  e.phase = TaskPhase::Done;
  ++completed_;
  ++finished_;

  accounting_.add(acct_category_[task_id], measured_peak, e.alloc, runtime_s,
                  e.failed_attempts);
  allocator_.record_completion(alloc_category_[task_id], measured_peak,
                               significance_for(spec));

  // Release dependents whose last dependency this was.
  for (std::uint64_t dep : dependents_[task_id]) {
    TaskEntry& d = entries_[dep];
    if (d.deps_remaining > 0) {
      --d.deps_remaining;
      maybe_ready(dep);
    }
  }
  if (hooks_) hooks_->task_completed(task_id, measured_peak, runtime_s);
}

DispatchCore::RetryVerdict DispatchCore::fail_attempt(std::uint64_t task_id,
                                                      double runtime_s,
                                                      unsigned exceeded_mask) {
  TaskEntry& e = entries_[task_id];
  if (e.phase != TaskPhase::Running) {
    throw std::logic_error(
        "DispatchCore: failed attempt of a task that is not Running");
  }
  e.failed_attempts.push_back({e.alloc, runtime_s});
  const auto fail_fatal = [&] {
    if (hooks_) {
      hooks_->task_failed_attempt(task_id, runtime_s, exceeded_mask, false);
    }
    make_fatal(task_id);
    return RetryVerdict::Fatal;
  };
  if (config_.max_allocation_failures > 0 &&
      e.failed_attempts.size() >= config_.max_allocation_failures) {
    return fail_fatal();
  }
  if (exceeded_mask == 0) {
    util::log_warn("lifecycle: exhausted attempt without exceeded mask");
    return fail_fatal();
  }
  const ResourceVector next = allocator_.allocate_retry(
      alloc_category_[task_id], e.alloc, exceeded_mask);
  // If every exceeded dimension is pinned at worker capacity the task can
  // never run in this pool.
  bool grew = false;
  for (ResourceKind k : allocator_.config().managed) {
    if ((exceeded_mask & resource_bit(k)) && next[k] > e.alloc[k]) {
      grew = true;
      break;
    }
  }
  if (!grew) {
    return fail_fatal();
  }
  e.alloc = next;
  e.is_retry = true;
  e.phase = TaskPhase::Queued;
  enqueue(task_id, false);
  if (hooks_) {
    hooks_->allocation_committed(task_id, next, true);
    hooks_->task_failed_attempt(task_id, runtime_s, exceeded_mask, true);
  }
  return RetryVerdict::Requeued;
}

void DispatchCore::requeue_front(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  if (e.phase != TaskPhase::Running) return;
  e.phase = TaskPhase::Queued;
  enqueue(task_id, true);
  if (hooks_) hooks_->task_requeued(task_id);
}

void DispatchCore::charge_eviction(std::uint64_t task_id, double scale) {
  evicted_alloc_ += entries_[task_id].alloc * scale;
  ++evictions_;
  if (hooks_) hooks_->task_evicted(task_id, scale);
}

void DispatchCore::charge_speculation(std::uint64_t task_id, double scale) {
  const TaskEntry& e = entries_[task_id];
  accounting_.add_speculative(acct_category_[task_id], e.alloc, scale);
}

void DispatchCore::rebind_running(std::uint64_t task_id, std::uint64_t worker) {
  TaskEntry& e = entries_[task_id];
  if (e.phase != TaskPhase::Running) {
    throw std::logic_error("DispatchCore: rebind of a task that is not Running");
  }
  e.running_on = worker;
}

void DispatchCore::save_state(util::ByteWriter& w) const {
  w.u64(entries_.size());
  for (const TaskEntry& e : entries_) {
    w.u8(static_cast<std::uint8_t>(e.phase));
    w.u8(e.submitted ? 1 : 0);
    w.u8(e.has_alloc ? 1 : 0);
    w.u8(e.is_retry ? 1 : 0);
    w.u32(e.attempts);
    w.u64(e.alloc_revision);
    w.u64(e.running_on);
    for (ResourceKind k : kAllResources) w.f64(e.alloc[k]);
    w.u64(e.deps_remaining);
    w.u64(e.failed_attempts.size());
    for (const AttemptLog& a : e.failed_attempts) {
      for (ResourceKind k : kAllResources) w.f64(a.alloc[k]);
      w.f64(a.runtime_s);
    }
  }
  w.u64(ready_count_);
  for (std::uint32_t id = queue_head_; id != kNil; id = links_[id].next) {
    w.u64(id);
  }
  accounting_.save(w);
  for (ResourceKind k : kAllResources) w.f64(evicted_alloc_[k]);
  w.u64(evictions_);
  w.u64(completed_);
  w.u64(fatal_);
  w.u64(finished_);
}

void DispatchCore::load_state(util::ByteReader& r) {
  if (r.u64() != entries_.size()) {
    throw std::runtime_error(
        "DispatchCore: snapshot task count does not match the workload");
  }
  for (TaskEntry& e : entries_) {
    const std::uint8_t phase = r.u8();
    if (phase > static_cast<std::uint8_t>(TaskPhase::Fatal)) {
      throw std::runtime_error("DispatchCore: snapshot has an unknown phase");
    }
    e.phase = static_cast<TaskPhase>(phase);
    e.submitted = r.u8() != 0;
    e.has_alloc = r.u8() != 0;
    e.is_retry = r.u8() != 0;
    e.attempts = r.u32();
    e.alloc_revision = r.u64();
    e.running_on = r.u64();
    for (ResourceKind k : kAllResources) e.alloc[k] = r.f64();
    e.deps_remaining = r.u64();
    e.failed_attempts.resize(r.u64());
    for (AttemptLog& a : e.failed_attempts) {
      for (ResourceKind k : kAllResources) a.alloc[k] = r.f64();
      a.runtime_s = r.f64();
    }
  }
  clear_queue();
  const std::uint64_t queued = r.u64();
  std::vector<bool> listed(entries_.size());
  for (std::uint64_t i = 0; i < queued; ++i) {
    const std::uint64_t id = r.u64();
    if (id >= entries_.size() || listed[id] ||
        entries_[id].phase != TaskPhase::Queued) {
      throw std::runtime_error(
          "DispatchCore: snapshot ready list names a task that is out of "
          "range, listed twice, or not queued");
    }
    listed[id] = true;
    enqueue(id, false);
  }
  accounting_.load(r);
  for (ResourceKind k : kAllResources) evicted_alloc_[k] = r.f64();
  evictions_ = r.u64();
  completed_ = r.u64();
  fatal_ = r.u64();
  finished_ = r.u64();
}

void DispatchCore::make_fatal(std::uint64_t task_id) {
  TaskEntry& e = entries_[task_id];
  if (e.phase == TaskPhase::Fatal) return;
  e.phase = TaskPhase::Fatal;
  ++fatal_;
  ++finished_;
  if (hooks_) hooks_->task_fatal(task_id);
  // Dependents can never run: cascade the failure so the run terminates.
  for (std::uint64_t dep : dependents_[task_id]) {
    make_fatal(dep);
  }
}

}  // namespace tora::core::lifecycle
