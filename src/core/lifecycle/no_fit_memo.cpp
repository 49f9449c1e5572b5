#include "core/lifecycle/no_fit_memo.hpp"

#include <algorithm>

namespace tora::core::lifecycle {

namespace {

/// `lo` <= `hi` on every managed dimension (NaN compares false, so a NaN
/// on either side never dominates — the memo then just scans).
bool dominated_by(const ResourceVector& lo, const ResourceVector& hi) noexcept {
  for (ResourceKind k : kManagedResources) {
    if (!(lo[k] <= hi[k])) return false;
  }
  return true;
}

}  // namespace

bool NoFitMemo::refuses(const ResourceVector& alloc) const noexcept {
  return std::any_of(floors_.begin(), floors_.end(),
                     [&](const ResourceVector& f) {
                       return dominated_by(f, alloc);
                     });
}

void NoFitMemo::record(const ResourceVector& alloc) {
  std::erase_if(floors_, [&](const ResourceVector& f) {
    return dominated_by(alloc, f);
  });
  if (floors_.size() < kMaxFloors) floors_.push_back(alloc);
}

}  // namespace tora::core::lifecycle
