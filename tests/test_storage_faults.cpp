// The storage-fault torture layer's unit surface: typed StorageError
// propagation from the storage models, FaultyStorage's per-fault semantics
// under probability-1 plans, one-seed determinism, the ENOSPC fill
// schedule, latent bit rot, calm-plan byte transparency, and the manager's
// storage_degraded entry/retry/exit cycle against a deterministic failing
// backend.

#include "core/recovery/faulty_storage.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <memory>
#include <string>
#include <vector>

#include "core/recovery/recovery_log.hpp"
#include "core/registry.hpp"
#include "proto/manager.hpp"

namespace {

using tora::core::StorageFaultCounters;
using tora::core::recovery::AppendHandle;
using tora::core::recovery::FaultyStorage;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecordType;
using tora::core::recovery::RecoveryConfig;
using tora::core::recovery::RecoveryLog;
using tora::core::recovery::Storage;
using tora::core::recovery::StorageError;
using tora::core::recovery::StorageFaultPlan;
using tora::core::recovery::StorageOp;

// ------------------------------------------------------ typed StorageError

TEST(StorageErrorType, CarriesErrnoOperationAndObject) {
  const StorageError e(ENOSPC, StorageOp::Write, "journal-3");
  EXPECT_EQ(e.code(), ENOSPC);
  EXPECT_EQ(e.op(), StorageOp::Write);
  EXPECT_EQ(e.object(), "journal-3");
  const std::string what = e.what();
  EXPECT_NE(what.find("journal-3"), std::string::npos);
  EXPECT_NE(what.find("write"), std::string::npos);
}

TEST(StorageErrorType, MemStorageRenameOfUnknownObjectIsTyped) {
  MemStorage storage;
  try {
    storage.rename("ghost", "elsewhere");
    FAIL() << "rename of a missing object succeeded";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), ENOENT);
    EXPECT_EQ(e.op(), StorageOp::Rename);
    EXPECT_EQ(e.object(), "ghost");
  }
}

// ------------------------------------------------- per-fault prob-1 plans

StorageFaultPlan only(double StorageFaultPlan::* knob, double p = 1.0) {
  StorageFaultPlan plan;
  plan.seed = 7;
  plan.*knob = p;
  return plan;
}

TEST(FaultyStorage, WriteEioFailsBeforeAnyByteLands) {
  MemStorage mem;
  FaultyStorage storage(mem, only(&StorageFaultPlan::write_eio_prob));
  auto handle = storage.open_append("journal-0");
  try {
    handle->append("doomed");
    FAIL() << "append succeeded under write_eio_prob = 1";
  } catch (const StorageError& e) {
    EXPECT_EQ(e.code(), EIO);
    EXPECT_EQ(e.op(), StorageOp::Write);
  }
  EXPECT_EQ(storage.counters().write_errors, 1u);
  mem.crash();
  EXPECT_FALSE(mem.read_file("journal-0").value_or("").size() > 0);
}

TEST(FaultyStorage, ShortWritePersistsAPrefixThenFails) {
  MemStorage mem;
  FaultyStorage storage(mem, only(&StorageFaultPlan::short_write_prob));
  auto handle = storage.open_append("journal-0");
  const std::string payload = "0123456789abcdef";
  EXPECT_THROW(handle->append(payload), StorageError);
  EXPECT_EQ(storage.counters().short_writes, 1u);
  // The prefix is buffered in the backend; it must be a true prefix.
  const std::string landed = mem.read_file("journal-0").value_or("");
  EXPECT_LT(landed.size(), payload.size());
  EXPECT_EQ(payload.compare(0, landed.size(), landed), 0);
}

TEST(FaultyStorage, SyncEioLeavesTheTailVolatile) {
  MemStorage mem;
  FaultyStorage storage(mem, only(&StorageFaultPlan::sync_eio_prob));
  auto handle = storage.open_append("journal-0");
  handle->append("tail");
  EXPECT_THROW(handle->sync(), StorageError);
  EXPECT_EQ(storage.counters().sync_errors, 1u);
  storage.on_crash();  // failed fsync => the buffered tail dies with a crash
  EXPECT_EQ(mem.read_file("journal-0").value_or("absent"), "");
}

TEST(FaultyStorage, FsyncLieReportsSuccessButPersistsNothing) {
  MemStorage mem;
  FaultyStorage storage(mem, only(&StorageFaultPlan::fsync_lie_prob));
  auto handle = storage.open_append("journal-0");
  handle->append("believed durable");
  handle->sync();  // lies: no exception
  EXPECT_EQ(storage.counters().fsync_lies, 1u);
  // Visible before the crash (the page cache has it)...
  EXPECT_EQ(mem.read_file("journal-0").value_or(""), "believed durable");
  storage.on_crash();
  // ...gone after: the lie only surfaces at the next power cut.
  EXPECT_EQ(mem.read_file("journal-0").value_or("absent"), "");
}

TEST(FaultyStorage, ReadEioIsTypedAndTransient) {
  MemStorage mem;
  mem.write_file_durable("snapshot-1", "bytes");
  FaultyStorage storage(mem, only(&StorageFaultPlan::read_eio_prob, 0.5));
  std::size_t failures = 0;
  std::size_t successes = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      if (storage.read_file("snapshot-1")) ++successes;
    } catch (const StorageError& e) {
      EXPECT_EQ(e.code(), EIO);
      EXPECT_EQ(e.op(), StorageOp::Read);
      ++failures;
    }
  }
  EXPECT_EQ(storage.counters().read_errors, failures);
  EXPECT_GT(failures, 0u);   // p = 0.5 over 64 draws
  EXPECT_GT(successes, 0u);  // transient, not permanent
}

TEST(FaultyStorage, RotFlipsOneBitOfTheRenamedObject) {
  MemStorage mem;
  FaultyStorage storage(mem, only(&StorageFaultPlan::rot_prob));
  const std::string body(64, '\0');
  storage.write_file_durable("snapshot-1.tmp", body);
  storage.rename("snapshot-1.tmp", "snapshot-1");
  EXPECT_EQ(storage.counters().objects_rotted, 1u);
  const std::string read = *storage.read_file("snapshot-1");
  ASSERT_EQ(read.size(), body.size());
  std::size_t flipped_bits = 0;
  for (std::size_t i = 0; i < read.size(); ++i) {
    unsigned diff = static_cast<unsigned char>(read[i]) ^
                    static_cast<unsigned char>(body[i]);
    while (diff != 0) {
      flipped_bits += diff & 1u;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1u);
  // Latent and stable: the same bit every read; the backend is pristine.
  EXPECT_EQ(*storage.read_file("snapshot-1"), read);
  EXPECT_EQ(*mem.read_file("snapshot-1"), body);
}

TEST(FaultyStorage, EnospcFillScheduleHitsThenClears) {
  MemStorage mem;
  StorageFaultPlan plan;
  plan.seed = 7;
  plan.capacity_bytes = 16;
  plan.enospc_clears_after = 2;
  FaultyStorage storage(mem, plan);
  storage.write_file_durable("snapshot-1", std::string(10, 'x'));  // fits
  for (int hit = 0; hit < 2; ++hit) {
    try {
      storage.write_file_durable("snapshot-2", std::string(10, 'y'));
      FAIL() << "write past the fill limit succeeded";
    } catch (const StorageError& e) {
      EXPECT_EQ(e.code(), ENOSPC);
    }
  }
  EXPECT_EQ(storage.counters().enospc_hits, 2u);
  // The operator freed space: the same write now lands.
  storage.write_file_durable("snapshot-2", std::string(10, 'y'));
  EXPECT_EQ(mem.read_file("snapshot-2").value_or("").size(), 10u);
}

TEST(FaultyStorage, SameSeedReplaysTheSameFaults) {
  StorageFaultPlan plan;
  plan.seed = 99;
  plan.short_write_prob = 0.2;
  plan.write_eio_prob = 0.1;
  plan.sync_eio_prob = 0.1;
  plan.fsync_lie_prob = 0.1;
  const auto run = [&] {
    MemStorage mem;
    FaultyStorage storage(mem, plan);
    auto handle = storage.open_append("journal-0");
    for (int i = 0; i < 200; ++i) {
      try {
        handle->append("record payload " + std::to_string(i));
        handle->sync();
      } catch (const StorageError&) {
        handle = storage.open_append("journal-0");
      }
    }
    return std::make_pair(storage.counters(),
                          mem.read_file("journal-0").value_or(""));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first.short_writes + a.first.write_errors + a.first.sync_errors +
                a.first.fsync_lies,
            0u);
}

TEST(FaultyStorage, DisabledPlanIsByteTransparent) {
  MemStorage raw;
  MemStorage decorated_backend;
  FaultyStorage decorated(decorated_backend, StorageFaultPlan{});
  const auto drive = [](Storage& s) {
    auto h = s.open_append("journal-0");
    h->append("one");
    h->sync();
    h->append("two");
    h.reset();
    s.write_file_durable("snapshot-1.tmp", "body");
    s.rename("snapshot-1.tmp", "snapshot-1");
  };
  drive(raw);
  drive(decorated);
  EXPECT_EQ(raw.list(), decorated.list());
  for (const std::string& name : raw.list()) {
    EXPECT_EQ(*raw.read_file(name), *decorated.read_file(name)) << name;
  }
  EXPECT_EQ(decorated.counters(), StorageFaultCounters{});
}

// ------------------------------------------- manager storage degradation

// A Storage whose appends/syncs start failing after N successful syncs and
// heal after M more attempts — a deterministic script for the manager's
// degraded-mode cycle, with no RNG in the loop.
class BreaksAfter final : public Storage {
 public:
  BreaksAfter(std::size_t break_after_syncs, std::size_t heal_after_failures)
      : break_after_(break_after_syncs), heal_after_(heal_after_failures) {}

  std::unique_ptr<AppendHandle> open_append(const std::string& name) override {
    if (broken()) fail(StorageOp::Open, name);
    return std::make_unique<Handle>(*this, inner_.open_append(name));
  }
  void write_file_durable(const std::string& name,
                          std::string_view bytes) override {
    if (broken()) fail(StorageOp::Write, name);
    inner_.write_file_durable(name, bytes);
  }
  void rename(const std::string& from, const std::string& to) override {
    inner_.rename(from, to);
  }
  void remove(const std::string& name) override { inner_.remove(name); }
  std::optional<std::string> read_file(const std::string& name) const override {
    return inner_.read_file(name);
  }
  std::vector<std::string> list() const override { return inner_.list(); }

  std::size_t syncs = 0;

 private:
  class Handle final : public AppendHandle {
   public:
    Handle(BreaksAfter& owner, std::unique_ptr<AppendHandle> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    void append(std::string_view bytes) override {
      if (owner_.broken()) owner_.fail(StorageOp::Write, "journal");
      inner_->append(bytes);
    }
    void sync() override {
      if (owner_.broken()) owner_.fail(StorageOp::Sync, "journal");
      ++owner_.syncs;
      inner_->sync();
    }

   private:
    BreaksAfter& owner_;
    std::unique_ptr<AppendHandle> inner_;
  };
  friend class Handle;

  bool broken() {
    if (syncs < break_after_) return false;
    if (failures_ >= heal_after_) return false;
    ++failures_;
    return true;
  }
  [[noreturn]] void fail(StorageOp op, const std::string& name) {
    throw StorageError(EIO, op, name, "scripted failure");
  }

  MemStorage inner_;
  std::size_t break_after_;
  std::size_t heal_after_;
  std::size_t failures_ = 0;
};

std::vector<tora::core::TaskSpec> small_tasks(std::size_t n) {
  std::vector<tora::core::TaskSpec> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    tora::core::TaskSpec t;
    t.id = i;
    t.category = "c";
    t.demand = tora::core::ResourceVector{1.0, 100.0, 10.0};
    t.duration_s = 1.0;
    t.peak_fraction = 0.5;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

constexpr tora::core::ResourceVector kCap{8.0, 4096.0, 4096.0, 0.0};

TEST(ManagerStorageDegradation, EntersHoldsRetriesAndExits) {
  using tora::proto::DuplexLink;
  using tora::proto::Message;
  using tora::proto::MsgType;
  using tora::proto::ProtocolManager;

  const auto tasks = small_tasks(4);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  auto link = std::make_shared<DuplexLink>();

  // Healthy for the first 2 syncs, then 3 scripted failures, then healed.
  BreaksAfter storage(2, 3);
  tora::core::RecoveryCounters counters;
  RecoveryLog log(storage, &counters);
  RecoveryConfig cfg;
  cfg.storage_retry_base_ticks = 2;
  cfg.storage_retry_cap_ticks = 8;
  log.open_fresh();

  ProtocolManager manager(tasks, alloc, {link});
  manager.attach_recovery(&log, nullptr, cfg, &counters);
  Message ready;
  ready.type = MsgType::WorkerReady;
  ready.worker_id = 0;
  ready.resources = kCap;
  link->to_manager.send(encode(ready));
  manager.start();

  // Pump until the scripted failures trip the journal.
  for (int i = 0; i < 4 && !manager.storage_health().degraded; ++i) {
    manager.pump();
  }
  ASSERT_TRUE(manager.storage_health().degraded);
  EXPECT_EQ(manager.storage_health().degraded_entries, 1u);
  EXPECT_FALSE(log.writable());

  // Degraded mode retries on capped backoff; the scripted heal lets one
  // retry rotate into a fresh generation and exit the mode.
  for (int i = 0; i < 64 && manager.storage_health().degraded; ++i) {
    manager.pump();
  }
  EXPECT_FALSE(manager.storage_health().degraded);
  EXPECT_EQ(manager.storage_health().degraded_exits, 1u);
  EXPECT_TRUE(log.writable());
  EXPECT_GE(manager.storage_health().retry_failures, 1u);
}

TEST(ManagerStorageDegradation, DegradedModeHoldsNewDispatches) {
  using tora::proto::DuplexLink;
  using tora::proto::Message;
  using tora::proto::MsgType;
  using tora::proto::ProtocolManager;

  const auto tasks = small_tasks(6);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  auto link = std::make_shared<DuplexLink>();

  // Fails from the very first sync and never heals within this test.
  BreaksAfter storage(0, 1u << 20);
  RecoveryLog log(storage);
  RecoveryConfig cfg;
  cfg.storage_retry_base_ticks = 64;  // retries stay out of this window
  cfg.storage_retry_cap_ticks = 64;
  try {
    log.open_fresh();
  } catch (const StorageError&) {
  }

  ProtocolManager manager(tasks, alloc, {link});
  manager.attach_recovery(&log, nullptr, cfg, nullptr);
  manager.note_storage_failure();
  ASSERT_TRUE(manager.storage_health().degraded);

  Message ready;
  ready.type = MsgType::WorkerReady;
  ready.worker_id = 0;
  ready.resources = kCap;
  link->to_manager.send(encode(ready));
  manager.start();
  for (int i = 0; i < 8; ++i) manager.pump();

  // Held, not dispatched: in-flight work may finish from memory, but no
  // NEW placements while the journal cannot record them.
  EXPECT_EQ(manager.dispatches_sent(), 0u);
  EXPECT_GT(manager.resilience().dispatches_held, 0u);
  while (link->to_worker.poll()) {
    FAIL() << "a dispatch left the manager while storage-degraded";
  }
}

TEST(ManagerStorageDegradation, DegradedModeHoldsAnExactNumberOfProbes) {
  // DegradedModeHoldsNewDispatches with its held-probe count pinned: every
  // queued task is refused by the admission gate once per pump.
  using tora::proto::DuplexLink;
  using tora::proto::Message;
  using tora::proto::MsgType;
  using tora::proto::ProtocolManager;

  const auto tasks = small_tasks(6);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 1);
  auto link = std::make_shared<DuplexLink>();

  BreaksAfter storage(0, 1u << 20);
  RecoveryLog log(storage);
  RecoveryConfig cfg;
  cfg.storage_retry_base_ticks = 64;
  cfg.storage_retry_cap_ticks = 64;
  try {
    log.open_fresh();
  } catch (const StorageError&) {
  }

  ProtocolManager manager(tasks, alloc, {link});
  manager.attach_recovery(&log, nullptr, cfg, nullptr);
  manager.note_storage_failure();
  ASSERT_TRUE(manager.storage_health().degraded);

  Message ready;
  ready.type = MsgType::WorkerReady;
  ready.worker_id = 0;
  ready.resources = kCap;
  link->to_manager.send(encode(ready));
  manager.start();
  for (int i = 0; i < 8; ++i) manager.pump();

  EXPECT_EQ(manager.dispatches_sent(), 0u);
  EXPECT_EQ(manager.resilience().dispatches_held, 48u);
}

}  // namespace
