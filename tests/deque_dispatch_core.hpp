#pragma once

// The deque-based DispatchCore queue that the allocation-indexed lanes
// replaced, kept as a differential oracle: one std::deque in FIFO order,
// and every queued task offered to the placer on every pass. It covers the
// operations the lane tests and bench/dispatch_hot_path drive (submit,
// dispatch_pass, complete, fail_attempt, requeue_front), with the same
// hooks, and its save_state writes the core's layout for a run without
// evictions. Header-only; not part of the library.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/metrics.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"
#include "util/bytes.hpp"

namespace tora::core::lifecycle::legacy {

class DequeCore {
 public:
  DequeCore(std::span<const TaskSpec> tasks, TaskAllocator& allocator,
            DispatchConfig config, RuntimeHooks* hooks)
      : tasks_(tasks),
        allocator_(allocator),
        config_(config),
        hooks_(hooks),
        entries_(tasks.size()),
        dependents_(tasks.size()) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      entries_[i].deps_remaining = tasks_[i].deps.size();
      for (std::uint64_t dep : tasks_[i].deps) dependents_[dep].push_back(i);
      alloc_category_.push_back(allocator_.intern(tasks_[i].category));
      acct_category_.push_back(accounting_.intern(tasks_[i].category));
    }
    allocator_.reserve_history(tasks_.size());
  }

  void mark_submitted(std::uint64_t id) {
    entries_[id].submitted = true;
    maybe_ready(id);
  }

  std::size_t dispatch_pass(const DispatchCore::PlaceFn& place,
                            const DispatchCore::CommitFn& commit,
                            const DispatchCore::DeferFn& defer,
                            std::size_t max_placements,
                            const NoFitMemo* /*no_fit*/) {
    waiting_.clear();
    std::size_t placed = 0;
    while (!ready_.empty() && placed < max_placements) {
      const std::uint64_t task_id = ready_.front();
      ready_.pop_front();
      if (defer && defer(task_id)) {
        waiting_.push_back(task_id);
        continue;
      }
      ensure_allocation(task_id);
      TaskEntry& e = entries_[task_id];
      if (const auto worker = place(task_id, e.alloc)) {
        if (config_.max_attempts > 0 && e.attempts >= config_.max_attempts) {
          make_fatal(task_id);
          continue;
        }
        ++e.attempts;
        e.phase = TaskPhase::Running;
        e.running_on = *worker;
        if (hooks_) hooks_->task_dispatched(task_id, *worker, e.attempts);
        commit(task_id, *worker, e.alloc);
        ++placed;
      } else {
        waiting_.push_back(task_id);
      }
    }
    while (!ready_.empty()) {
      waiting_.push_back(ready_.front());
      ready_.pop_front();
    }
    ready_.swap(waiting_);
    return placed;
  }

  void complete(std::uint64_t task_id, const ResourceVector& peak,
                double runtime_s) {
    TaskEntry& e = entries_[task_id];
    e.phase = TaskPhase::Done;
    ++completed_;
    ++finished_;
    accounting_.add(acct_category_[task_id], peak, e.alloc, runtime_s,
                    e.failed_attempts);
    allocator_.record_completion(alloc_category_[task_id], peak,
                                 static_cast<double>(task_id) + 1.0);
    for (std::uint64_t dep : dependents_[task_id]) {
      TaskEntry& d = entries_[dep];
      if (d.deps_remaining > 0) {
        --d.deps_remaining;
        maybe_ready(dep);
      }
    }
    if (hooks_) hooks_->task_completed(task_id, peak, runtime_s);
  }

  DispatchCore::RetryVerdict fail_attempt(std::uint64_t task_id,
                                          double runtime_s, unsigned mask) {
    TaskEntry& e = entries_[task_id];
    e.failed_attempts.push_back({e.alloc, runtime_s});
    const auto fail_fatal = [&] {
      if (hooks_) hooks_->task_failed_attempt(task_id, runtime_s, mask, false);
      make_fatal(task_id);
      return DispatchCore::RetryVerdict::Fatal;
    };
    if (config_.max_allocation_failures > 0 &&
        e.failed_attempts.size() >= config_.max_allocation_failures) {
      return fail_fatal();
    }
    const ResourceVector next =
        allocator_.allocate_retry(alloc_category_[task_id], e.alloc, mask);
    bool grew = false;
    for (ResourceKind k : allocator_.config().managed) {
      if ((mask & resource_bit(k)) && next[k] > e.alloc[k]) {
        grew = true;
      }
    }
    if (!grew) return fail_fatal();
    e.alloc = next;
    e.is_retry = true;
    e.phase = TaskPhase::Queued;
    ready_.push_back(task_id);
    if (hooks_) {
      hooks_->allocation_committed(task_id, next, true);
      hooks_->task_failed_attempt(task_id, runtime_s, mask, true);
    }
    return DispatchCore::RetryVerdict::Requeued;
  }

  void requeue_front(std::uint64_t task_id) {
    TaskEntry& e = entries_[task_id];
    if (e.phase != TaskPhase::Running) return;
    e.phase = TaskPhase::Queued;
    ready_.push_front(task_id);
    if (hooks_) hooks_->task_requeued(task_id);
  }

  const TaskEntry& entry(std::uint64_t id) const { return entries_[id]; }
  std::size_t ready_size() const { return ready_.size(); }

  void save_state(util::ByteWriter& w) const {
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
    w.u64(ready_.size());
    for (std::uint64_t id : ready_) w.u64(id);
    accounting_.save(w);
    const ResourceVector no_evictions;
    for (ResourceKind k : kAllResources) w.f64(no_evictions[k]);
    w.u64(0);
    w.u64(completed_);
    w.u64(fatal_);
    w.u64(finished_);
  }

 private:
  void maybe_ready(std::uint64_t id) {
    TaskEntry& e = entries_[id];
    if (!e.submitted || e.deps_remaining > 0 || e.phase != TaskPhase::Pending) {
      return;
    }
    e.phase = TaskPhase::Queued;
    ready_.push_back(id);
  }

  void ensure_allocation(std::uint64_t id) {
    TaskEntry& e = entries_[id];
    if (!e.has_alloc ||
        (!e.is_retry && e.alloc_revision != allocator_.revision())) {
      e.alloc = allocator_.allocate(alloc_category_[id]);
      e.has_alloc = true;
      e.alloc_revision = allocator_.revision();
      if (hooks_) hooks_->allocation_committed(id, e.alloc, false);
    }
  }

  void make_fatal(std::uint64_t id) {
    TaskEntry& e = entries_[id];
    if (e.phase == TaskPhase::Fatal) return;
    e.phase = TaskPhase::Fatal;
    ++fatal_;
    ++finished_;
    if (hooks_) hooks_->task_fatal(id);
    for (std::uint64_t dep : dependents_[id]) make_fatal(dep);
  }

  std::span<const TaskSpec> tasks_;
  TaskAllocator& allocator_;
  DispatchConfig config_;
  RuntimeHooks* hooks_;
  std::vector<TaskEntry> entries_;
  std::vector<CategoryId> alloc_category_;
  std::vector<CategoryId> acct_category_;
  std::vector<std::vector<std::uint64_t>> dependents_;
  std::deque<std::uint64_t> ready_;
  std::deque<std::uint64_t> waiting_;
  WasteAccounting accounting_;
  std::size_t completed_ = 0;
  std::size_t fatal_ = 0;
  std::size_t finished_ = 0;
};

}  // namespace tora::core::lifecycle::legacy
