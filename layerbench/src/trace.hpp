#pragma once

// In-memory span recorder and the decorators that place spans at tora's
// layer seams without touching the library: a ResourcePolicy wrapper (core
// policies), a recovery::Storage wrapper (core/recovery), a JournalObserver
// wrapper (core/replication) and a Channel subclass (proto channels). The
// drivers in main.cpp add the round-level spans (Simulation::step,
// ProtocolManager::pump, WorkerAgent::pump, socket IO).

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "core/recovery/recovery_log.hpp"
#include "core/recovery/storage.hpp"
#include "core/task_allocator.hpp"
#include "proto/channel.hpp"

namespace layerbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The seams a span can sit on. `Round` is the per-round root of the
/// protocol drivers; its self time is driver glue and counts as untraced.
enum class Layer : std::uint8_t {
  Round,
  PolicyObserve,
  PolicyPredict,
  PolicyRetry,
  SimStep,
  ManagerPump,
  AgentPump,
  ChannelSend,
  JournalAppend,
  JournalSync,
  StorageRotate,
  Replication,
  NetIo,
  Count,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "round",          "core.policy.observe", "core.policy.predict",
    "core.policy.retry", "sim.step",         "proto.manager.pump",
    "proto.agent.pump", "proto.channel.send", "core.recovery.append",
    "core.recovery.sync", "core.recovery.rotate", "core.replication.ship",
    "proto.net.io"};

/// Records spans (layer, start, end, parent) in memory and keeps exact
/// per-layer self time: a span's duration minus what its child spans cover.
/// Self times cover every span; the span log itself is capped so the
/// policy-call leaves of a long run cannot exhaust memory.
class Tracer {
 public:
  static constexpr std::size_t kLogCap = std::size_t{1} << 20;

  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    Layer layer = Layer::Round;
  };

  struct Stat {
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
  };

  /// RAII span; a null tracer makes it free.
  class Scope {
   public:
    Scope(Tracer* t, Layer layer) : t_(t) {
      if (t_) t_->open(layer);
    }
    ~Scope() {
      if (t_) t_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  Tracer() { log_.reserve(kLogCap); }

  void open(Layer layer) {
    Frame f;
    f.layer = layer;
    f.start_ns = now_ns();
    if (log_.size() < kLogCap) {
      f.log_index = static_cast<std::int32_t>(log_.size());
      Span s;
      s.start_ns = f.start_ns;
      s.layer = layer;
      s.parent = frames_.empty() ? -1 : frames_.back().log_index;
      log_.push_back(s);
    }
    frames_.push_back(f);
  }

  void close() {
    const Frame f = frames_.back();
    frames_.pop_back();
    const std::int64_t end = now_ns();
    const std::int64_t d = end - f.start_ns;
    Stat& st = stats_[static_cast<std::size_t>(f.layer)];
    st.self_ns += d - f.child_ns;
    ++st.calls;
    if (!frames_.empty()) frames_.back().child_ns += d;
    if (f.log_index >= 0) log_[static_cast<std::size_t>(f.log_index)].end_ns = end;
    ++spans_total_;
  }

  const Stat& stat(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  double self_s(Layer layer) const { return stat(layer).self_ns * 1e-9; }

  std::uint64_t spans_total() const noexcept { return spans_total_; }
  const std::vector<Span>& spans() const noexcept { return log_; }

  /// One line per logged span: id, parent, layer, start and end in ns
  /// relative to the first span.
  void write_tsv(std::ostream& out) const {
    const std::int64_t t0 = log_.empty() ? 0 : log_.front().start_ns;
    out << "id\tparent\tlayer\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const Span& s = log_[i];
      out << i << '\t' << s.parent << '\t'
          << kLayerNames[static_cast<std::size_t>(s.layer)] << '\t'
          << s.start_ns - t0 << '\t' << s.end_ns - t0 << '\n';
    }
  }

 private:
  struct Frame {
    Layer layer = Layer::Round;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int32_t log_index = -1;
  };

  std::vector<Frame> frames_;
  std::vector<Span> log_;
  std::array<Stat, kLayerCount> stats_{};
  std::uint64_t spans_total_ = 0;
};

// ------------------------------------------------------------ core policies

/// Forwards every ResourcePolicy virtual, timing the three the allocator's
/// hot path calls. Sampler state is forwarded too, so snapshots (and the
/// fingerprints built from them) are those of the wrapped policy.
class TracedPolicy final : public tora::core::ResourcePolicy {
 public:
  TracedPolicy(tora::core::ResourcePolicyPtr inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  void observe(double peak_value, double significance) override {
    Tracer::Scope s(tracer_, Layer::PolicyObserve);
    inner_->observe(peak_value, significance);
  }
  double predict() override {
    Tracer::Scope s(tracer_, Layer::PolicyPredict);
    return inner_->predict();
  }
  double retry(double failed_alloc) override {
    Tracer::Scope s(tracer_, Layer::PolicyRetry);
    return inner_->retry(failed_alloc);
  }
  std::string name() const override { return inner_->name(); }
  std::size_t record_count() const override { return inner_->record_count(); }
  void flush_observations() override { inner_->flush_observations(); }
  std::string sampler_state() const override { return inner_->sampler_state(); }
  void restore_sampler_state(std::string_view state) override {
    inner_->restore_sampler_state(state);
  }

 private:
  tora::core::ResourcePolicyPtr inner_;
  Tracer* tracer_;
};

inline tora::core::PolicyFactory traced_factory(tora::core::PolicyFactory inner,
                                                Tracer& tracer) {
  return [inner = std::move(inner), &tracer](
             tora::core::ResourceKind kind,
             const tora::core::AllocatorConfig& cfg) {
    return tora::core::ResourcePolicyPtr(
        std::make_unique<TracedPolicy>(inner(kind, cfg), tracer));
  };
}

// ------------------------------------------------------------ core/recovery

struct StorageStats {
  std::uint64_t append_calls = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t sync_calls = 0;
  std::uint64_t rotations = 0;  ///< sealed snapshots written
  std::uint64_t snapshot_bytes = 0;
};

/// Storage decorator: journal appends and syncs get their own spans, every
/// other operation (snapshot write, rename, purge, listing) is rotation work.
class TracedStorage final : public tora::core::recovery::Storage {
 public:
  TracedStorage(tora::core::recovery::Storage& inner, Tracer& tracer,
                StorageStats& stats)
      : inner_(&inner), tracer_(&tracer), stats_(&stats) {}

  std::unique_ptr<tora::core::recovery::AppendHandle> open_append(
      const std::string& name) override {
    Tracer::Scope s(tracer_, Layer::StorageRotate);
    return std::make_unique<Append>(inner_->open_append(name), *tracer_,
                                    *stats_);
  }
  void write_file_durable(const std::string& name,
                          std::string_view bytes) override {
    Tracer::Scope s(tracer_, Layer::StorageRotate);
    ++stats_->rotations;
    stats_->snapshot_bytes += bytes.size();
    inner_->write_file_durable(name, bytes);
  }
  void rename(const std::string& from, const std::string& to) override {
    Tracer::Scope s(tracer_, Layer::StorageRotate);
    inner_->rename(from, to);
  }
  void remove(const std::string& name) override {
    Tracer::Scope s(tracer_, Layer::StorageRotate);
    inner_->remove(name);
  }
  std::optional<std::string> read_file(const std::string& name) const override {
    Tracer::Scope s(tracer_, Layer::StorageRotate);
    return inner_->read_file(name);
  }
  std::vector<std::string> list() const override {
    Tracer::Scope s(tracer_, Layer::StorageRotate);
    return inner_->list();
  }
  void on_crash() override { inner_->on_crash(); }

 private:
  class Append final : public tora::core::recovery::AppendHandle {
   public:
    Append(std::unique_ptr<tora::core::recovery::AppendHandle> inner,
           Tracer& tracer, StorageStats& stats)
        : inner_(std::move(inner)), tracer_(&tracer), stats_(&stats) {}
    void append(std::string_view bytes) override {
      Tracer::Scope s(tracer_, Layer::JournalAppend);
      ++stats_->append_calls;
      stats_->append_bytes += bytes.size();
      inner_->append(bytes);
    }
    void sync() override {
      Tracer::Scope s(tracer_, Layer::JournalSync);
      ++stats_->sync_calls;
      inner_->sync();
    }

   private:
    std::unique_ptr<tora::core::recovery::AppendHandle> inner_;
    Tracer* tracer_;
    StorageStats* stats_;
  };

  tora::core::recovery::Storage* inner_;
  Tracer* tracer_;
  StorageStats* stats_;
};

// --------------------------------------------------------- core/replication

/// JournalObserver decorator around the JournalShipper. A blocked sync
/// barrier services the standby from inside on_sync, so the standby's
/// mirror work is charged to this span too.
class TracedObserver final : public tora::core::recovery::JournalObserver {
 public:
  TracedObserver(tora::core::recovery::JournalObserver& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  void on_open_fresh() override {
    Tracer::Scope s(tracer_, Layer::Replication);
    inner_->on_open_fresh();
  }
  void on_record(tora::core::recovery::RecordType type,
                 std::string_view payload) override {
    Tracer::Scope s(tracer_, Layer::Replication);
    inner_->on_record(type, payload);
  }
  void on_sync() override {
    Tracer::Scope s(tracer_, Layer::Replication);
    inner_->on_sync();
  }
  void on_rotate(std::uint64_t epoch, std::string_view body,
                 std::uint64_t tick) override {
    Tracer::Scope s(tracer_, Layer::Replication);
    inner_->on_rotate(epoch, body, tick);
  }

 private:
  tora::core::recovery::JournalObserver* inner_;
  Tracer* tracer_;
};

// ------------------------------------------------------------ proto channel

/// In-process channel that times each send and keeps a copy of every line,
/// so the codec can be replayed over the run's real traffic afterwards.
class TracedChannel final : public tora::proto::Channel {
 public:
  TracedChannel(Tracer& tracer, std::vector<std::string>& captured)
      : tracer_(&tracer), captured_(&captured) {}

  void send(std::string line) override {
    Tracer::Scope s(tracer_, Layer::ChannelSend);
    captured_->push_back(line);
    deliver(std::move(line));
  }

 private:
  Tracer* tracer_;
  std::vector<std::string>* captured_;
};

}  // namespace layerbench
