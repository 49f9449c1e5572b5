#pragma once

#include <cstddef>
#include <vector>

#include "core/resources.hpp"

namespace tora::core::lifecycle {

/// Exact "no worker fits" memo for ONE dispatch call (the PlaceFn contract
/// in dispatch_core.hpp). Within a call, capacity is only ever committed,
/// never released, and the worker set, draining flags and backpressure
/// sample are fixed; both runtimes' fit tests are monotone in the
/// allocation on kManagedResources. So once an allocation A found no
/// worker, every allocation B >= A (componentwise over the managed
/// dimensions) finds none either, and can be refused without a scan — for
/// any placement rule that returns nullopt only when nothing fits.
///
/// The memo keeps an antichain of "floors", the minimal failed
/// allocations. The runtime clears it at the top of each dispatch call,
/// consults it inside its placer after the admission gate (held probes
/// never reach it), and records only genuine "does not fit" results.
class NoFitMemo {
 public:
  /// Upper bound on remembered floors, so a pass over many incomparable
  /// allocations costs at most this many dominance checks per probe. A full
  /// memo stops recording, which only forgoes savings — never exactness.
  static constexpr std::size_t kMaxFloors = 16;

  void clear() noexcept { floors_.clear(); }

  /// True iff a recorded floor is <= `alloc` on every managed dimension,
  /// i.e. the placer is known to find no worker for `alloc`.
  bool refuses(const ResourceVector& alloc) const noexcept;

  /// Records that no worker fits `alloc`: drops the floors `alloc` now
  /// dominates from below, then keeps `alloc` as a floor.
  void record(const ResourceVector& alloc);

  std::size_t floors() const noexcept { return floors_.size(); }

 private:
  std::vector<ResourceVector> floors_;
};

}  // namespace tora::core::lifecycle
