#include "core/recovery/snapshot.hpp"

#include <stdexcept>
#include <vector>

#include "core/checkpoint.hpp"
#include "util/bytes.hpp"

namespace tora::core::recovery {

namespace {

constexpr std::string_view kMagic = "TORASNAP";
constexpr std::uint32_t kVersion = 1;

}  // namespace

void save_allocator(const TaskAllocator& allocator, util::ByteWriter& w) {
  const AllocatorConfig& config = allocator.config();
  if (!config.record_history) {
    throw std::logic_error(
        "recovery snapshot: allocator must record history "
        "(AllocatorConfig::record_history = true) for bit-exact restore");
  }
  w.str(allocator.policy_name());
  w.u64(allocator_config_hash(config));

  const std::size_t categories = allocator.category_count();
  w.u64(categories);
  for (CategoryId id = 0; id < categories; ++id) {
    w.str(allocator.category_name(id));
    w.u64(allocator.records_for(id));
  }

  w.u64(allocator.history().size());
  for (const TaskAllocator::CompletionRecord& rec : allocator.history()) {
    w.u32(rec.category);
    for (ResourceKind k : kAllResources) w.f64(rec.peak[k]);
    w.f64(rec.significance);
  }

  std::vector<CategoryId> created;
  for (CategoryId id = 0; id < categories; ++id) {
    if (allocator.policies_created(id)) created.push_back(id);
  }
  w.u64(created.size());
  for (CategoryId id : created) {
    w.u32(id);
    for (ResourceKind k : config.managed) {
      const ResourcePolicy* p = allocator.policy_if_created(id, k);
      if (!p) {
        throw std::logic_error(
            "recovery snapshot: created category missing a managed policy");
      }
      w.str(p->sampler_state());
    }
  }
}

void load_allocator(TaskAllocator& allocator, util::ByteReader& r) {
  const std::string policy = r.str();
  if (policy != allocator.policy_name()) {
    throw std::runtime_error(
        "recovery snapshot: written by policy '" + policy +
        "' but the destination allocator runs '" + allocator.policy_name() +
        "'; reconstruct the allocator with the original policy");
  }
  const std::uint64_t hash = r.u64();
  if (hash != allocator_config_hash(allocator.config())) {
    throw std::runtime_error(
        "recovery snapshot: allocator config hash mismatch (worker capacity, "
        "exploration, managed resources or history flag differ); reconstruct "
        "the allocator with the original config");
  }

  const std::uint64_t categories = r.u64();
  std::vector<std::uint64_t> completed(categories);
  for (std::uint64_t i = 0; i < categories; ++i) {
    const CategoryId id = allocator.intern(r.str());
    if (id != i) {
      throw std::runtime_error(
          "recovery snapshot: category table does not intern to recorded ids "
          "(destination allocator is not freshly constructed)");
    }
    completed[i] = r.u64();
  }

  const std::uint64_t history = r.u64();
  for (std::uint64_t i = 0; i < history; ++i) {
    const CategoryId category = r.u32();
    ResourceVector peak;
    for (ResourceKind k : kAllResources) peak[k] = r.f64();
    allocator.record_completion(category, peak, r.f64());
  }
  for (std::uint64_t i = 0; i < categories; ++i) {
    if (allocator.records_for(static_cast<CategoryId>(i)) != completed[i]) {
      throw std::runtime_error(
          "recovery snapshot: replayed history disagrees with recorded "
          "completion counts (snapshot written without record_history?)");
    }
  }

  const std::uint64_t created = r.u64();
  const auto& managed = allocator.config().managed;
  for (std::uint64_t i = 0; i < created; ++i) {
    const CategoryId id = r.u32();
    // Touching one managed policy creates all of the category's instances,
    // advancing the factory's master Rng by exactly as many draws as the
    // crashed allocator spent on this category. The drawn values are then
    // overwritten by the recorded sampler states.
    allocator.policy(id, managed.front());
    for (ResourceKind k : managed) {
      allocator.policy(id, k).restore_sampler_state(r.str());
    }
  }
  // History replay is a bulk load: merge staged observations now so the
  // restored allocator starts from fully-merged state (flushing touches no
  // sampler state, so the bit-exact fingerprint is unaffected).
  allocator.flush_policies();
}

std::string seal_snapshot(std::string_view body) {
  std::string out;
  out.reserve(kMagic.size() + 4 + body.size() + 4);
  out += kMagic;
  util::append_le(out, kVersion);
  out += body;
  util::append_le(out, util::crc32(out));
  return out;
}

std::optional<std::string> open_snapshot(std::string_view file) {
  const std::size_t overhead = kMagic.size() + 4 + 4;
  if (file.size() < overhead) return std::nullopt;
  if (file.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  const std::size_t crc_at = file.size() - 4;
  if (util::load_le<std::uint32_t>(file.data() + crc_at) !=
      util::crc32(file.substr(0, crc_at))) {
    return std::nullopt;
  }
  if (util::load_le<std::uint32_t>(file.data() + kMagic.size()) != kVersion) {
    return std::nullopt;
  }
  return std::string(
      file.substr(kMagic.size() + 4, file.size() - overhead));
}

}  // namespace tora::core::recovery
