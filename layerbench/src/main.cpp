// layerbench: one end-to-end benchmark over tora's deployment shapes (the
// discrete-event simulator, the protocol runtime journaling to a hot
// standby, and the protocol runtime over loopback TCP), with an optional
// traced run that charges each round's time to the layer that spent it.
//
//   layerbench --workload NAME --seed N --seconds S --trace 0|1
//              [--span-log FILE]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
// measured on untraced runs; with --trace 1 they are the per-layer ones,
// from traced runs (plus untraced runs for the tracing overhead). Every run
// is checked against the library runtime's result for the same seed; any
// failed check makes the output incorrect and the exit code 1.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/replication/replication.hpp"
#include "exp/experiment.hpp"
#include "proto/manager.hpp"
#include "proto/message.hpp"
#include "proto/net/tcp_runtime.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/topeft.hpp"

namespace {

using namespace tora;
using layerbench::Layer;
using layerbench::now_ns;
using layerbench::Tracer;

// The paper's worker shape and the experiments' policy seed
// (exp::ExperimentConfig); the benchmark seed drives workload generation
// only.
const core::ResourceVector kCapacity{16.0, 64.0 * 1024.0, 64.0 * 1024.0, 0.0};
constexpr std::uint64_t kPolicySeed = 11;
// Four protocol workers keep the TCP workload within a 4-core machine.
constexpr std::size_t kWorkers = 4;
// A run takes about 1800 rounds, so rotations are about 1.5% of them and
// the durable workload's p99 round is a rotation round; at 128 ticks they
// would sit right at the p99 boundary and make it jump between runs.
constexpr std::size_t kSnapshotEveryTicks = 64;
// Set-ups timed before each measured run, on top of the run's own.
constexpr std::size_t kSetupsPerRun = 4;
// Windows of consecutive rounds per instance, each timed as the best of the
// instance's runs (BestTimes).
constexpr std::size_t kWindows = 32;
// Lockstep settle barrier of TcpProtocolRuntime (proto/net/tcp_runtime.cpp).
constexpr std::size_t kSettleLimit = 200000;
constexpr double kSettleDt = 0.01;

enum class Shape { Sim, Durable, Tcp };

struct WorkloadDef {
  std::string_view name;
  Shape shape;
  std::string_view policy;
  workloads::Workload (*generate)(std::uint64_t seed);
  /// Instances (generation seeds) per measured pass.
  std::size_t batch;
};

workloads::Workload gen_topeft(std::uint64_t seed) {
  return workloads::make_topeft(seed);
}
workloads::Workload gen_trimodal10k(std::uint64_t seed) {
  return workloads::generate_synthetic(workloads::trimodal_spec(10000), seed);
}
workloads::Workload gen_bimodal10k(std::uint64_t seed) {
  return workloads::generate_synthetic(workloads::bimodal_spec(10000), seed);
}

// Odd batches, so the median over instances is one instance's value.
constexpr WorkloadDef kWorkloads[] = {
    {"sim-topeft-eb", Shape::Sim, core::kExhaustiveBucketing, gen_topeft, 7},
    {"sim-trimodal10k-maxseen", Shape::Sim, core::kMaxSeen, gen_trimodal10k,
     5},
    {"proto-bimodal10k-durable", Shape::Durable, core::kExhaustiveBucketing,
     gen_bimodal10k, 5},
    {"proto-bimodal10k-tcp", Shape::Tcp, core::kExhaustiveBucketing,
     gen_bimodal10k, 5},
};

/// The allocator make_allocator builds, with every policy instance wrapped
/// in a TracedPolicy when tracing.
std::unique_ptr<core::TaskAllocator> make_allocator(std::string_view policy,
                                                    Tracer* tracer) {
  core::TaskAllocator plain =
      core::make_allocator(policy, kPolicySeed, kCapacity);
  if (!tracer) return std::make_unique<core::TaskAllocator>(std::move(plain));
  return std::make_unique<core::TaskAllocator>(
      plain.policy_name(),
      layerbench::traced_factory(
          core::make_policy_factory(policy, kPolicySeed), *tracer),
      plain.config());
}

/// Everything one run reports; the drivers fill what their shape has.
struct RunStats {
  double gen_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> sched_us;  ///< one per step() / pump()
  /// One per round: the step, or the manager's pump plus the workers' pumps
  /// and the network settle of that round.
  std::vector<double> round_us;
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t fatal = 0;
  std::size_t rounds = 0;
  std::uint64_t dispatches = 0;
  core::WasteAccounting accounting;
  double makespan_s = 0.0;
  std::uint64_t events = 0;
  std::size_t evictions = 0;
  std::vector<std::size_t> ready_depth;  ///< after each round, traced only
  std::uint64_t wire_lines = 0;
  std::uint64_t wire_bytes = 0;
  std::string fingerprint;
  std::optional<std::string> standby_fingerprint;
  core::TransportCounters transport;
  core::ReplicationCounters replication;
  layerbench::StorageStats storage;
  std::vector<std::string> captured;  ///< wire lines, traced in-process only
};

std::optional<std::string> pop(std::deque<std::string>& q) {
  if (q.empty()) return std::nullopt;
  std::string s = std::move(q.front());
  q.pop_front();
  return s;
}

// ------------------------------------------------------------------- sim

class SimRun {
 public:
  SimRun(const WorkloadDef& def, std::uint64_t seed, Tracer* tracer)
      : tracer_(tracer) {
    const std::int64_t t0 = now_ns();
    workload_ = def.generate(seed);
    stats_.gen_s = (now_ns() - t0) * 1e-9;
    allocator_ = make_allocator(def.policy, tracer);
    sim_.emplace(workload_.tasks, *allocator_, exp::default_experiment_sim());
  }

  RunStats run() {
    const std::int64_t t0 = now_ns();
    for (;;) {
      const std::int64_t a = now_ns();
      bool more = false;
      {
        Tracer::Scope s(tracer_, Layer::SimStep);
        more = sim_->step();
      }
      stats_.sched_us.push_back((now_ns() - a) * 1e-3);
      stats_.round_us.push_back(stats_.sched_us.back());
      if (tracer_) stats_.ready_depth.push_back(sim_->core().ready_size());
      if (!more) break;
    }
    stats_.run_s = (now_ns() - t0) * 1e-9;
    const sim::SimResult r = sim_->result();
    stats_.tasks = workload_.tasks.size();
    stats_.completed = r.tasks_completed;
    stats_.fatal = r.tasks_fatal;
    stats_.rounds = stats_.sched_us.size();
    stats_.accounting = r.accounting;
    stats_.makespan_s = r.makespan_s;
    stats_.events = r.events_processed;
    stats_.evictions = r.evictions;
    for (std::size_t i = 0; i < stats_.tasks; ++i) {
      stats_.dispatches += sim_->core().entry(i).attempts;
    }
    util::ByteWriter w;
    sim_->save_state(w);
    stats_.fingerprint = w.take();
    return std::move(stats_);
  }

 private:
  Tracer* tracer_;
  RunStats stats_;
  workloads::Workload workload_;
  std::unique_ptr<core::TaskAllocator> allocator_;
  std::optional<sim::Simulation> sim_;
};

// ------------------------------------------------ proto, journal + standby

/// The `tora proto --standby` shape built in one process: the manager
/// journals to a MemStorage, and a sync-mode JournalShipper streams every
/// record to a mirror-only StandbyReplica over in-memory queues.
class DurableRun {
 public:
  DurableRun(const WorkloadDef& def, std::uint64_t seed, Tracer* tracer)
      : tracer_(tracer),
        policy_(def.policy),
        shipper_(
            core::replication::ReplicationConfig{},
            [this](std::string f) { to_standby_.push_back(std::move(f)); },
            [this] { return pop(to_primary_); }, &stats_.replication),
        replica_(
            mirror_,
            [this](std::string f) { to_primary_.push_back(std::move(f)); },
            [this] { return pop(to_standby_); }, nullptr, nullptr) {
    const std::int64_t t0 = now_ns();
    workload_ = def.generate(seed);
    stats_.gen_s = (now_ns() - t0) * 1e-9;
    allocator_ = make_allocator(def.policy, tracer);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      links_.push_back(
          tracer ? std::make_shared<proto::DuplexLink>(
                       std::make_unique<layerbench::TracedChannel>(
                           *tracer, stats_.captured),
                       std::make_unique<layerbench::TracedChannel>(
                           *tracer, stats_.captured))
                 : std::make_shared<proto::DuplexLink>());
    }
    manager_.emplace(workload_.tasks, *allocator_, links_,
                     proto::LivenessConfig{});
    agents_.reserve(kWorkers);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      agents_.emplace_back(i, kCapacity, manager_->tenants().tasks(),
                           links_[i]);
    }
    core::recovery::Storage* disk = &disk_;
    if (tracer) disk = &traced_disk_.emplace(disk_, *tracer, stats_.storage);
    log_.emplace(*disk, nullptr, nullptr);
    shipper_.set_service([this] { replica_.pump(); });
    core::recovery::JournalObserver* tap = &shipper_;
    if (tracer) tap = &traced_shipper_.emplace(shipper_, *tracer);
    log_->set_observer(tap);
    core::recovery::RecoveryConfig rc;
    rc.snapshot_every_ticks = kSnapshotEveryTicks;
    manager_->attach_recovery(&*log_, nullptr, rc, nullptr);
    log_->open_fresh();
    for (auto& agent : agents_) agent.announce();
  }

  RunStats run(bool rebuild_standby) {
    const std::int64_t t0 = now_ns();
    manager_->start();
    for (;;) {
      Tracer::Scope round(tracer_, Layer::Round);
      const std::int64_t a = now_ns();
      std::size_t progress = 0;
      {
        Tracer::Scope s(tracer_, Layer::ManagerPump);
        progress = manager_->pump();
      }
      stats_.sched_us.push_back((now_ns() - a) * 1e-3);
      for (auto& agent : agents_) {
        Tracer::Scope s(tracer_, Layer::AgentPump);
        progress += agent.pump();
      }
      stats_.round_us.push_back((now_ns() - a) * 1e-3);
      if (tracer_) stats_.ready_depth.push_back(manager_->core().ready_size());
      if (manager_->done()) break;
      if (progress == 0) {
        throw std::runtime_error("durable run: no progress");
      }
    }
    stats_.run_s = (now_ns() - t0) * 1e-9;
    stats_.fingerprint = manager_->snapshot_body();
    manager_->shutdown_workers();
    for (auto& agent : agents_) agent.pump();
    shipper_.poll_acks();

    stats_.tasks = workload_.tasks.size();
    stats_.completed = manager_->tasks_completed();
    stats_.fatal = manager_->tasks_fatal();
    stats_.rounds = stats_.sched_us.size();
    stats_.dispatches = manager_->dispatches_sent();
    stats_.accounting = manager_->accounting();
    for (const auto& link : links_) {
      stats_.wire_lines +=
          link->to_worker.messages_sent() + link->to_manager.messages_sent();
      stats_.wire_bytes +=
          link->to_worker.bytes_sent() + link->to_manager.bytes_sent();
    }
    if (shipper_.standby_lost() || shipper_.fenced()) {
      throw std::runtime_error("durable run: standby lost or primary fenced");
    }
    if (rebuild_standby) {
      // What a promotion would serve: a cold crash-recovery rebuild from
      // the standby's mirror disk.
      replica_.pump();
      core::recovery::RecoveryLog mirror_log(mirror_, nullptr, nullptr);
      const auto scan = mirror_log.scan();
      const auto allocator = make_allocator(policy_, nullptr);
      const auto links = proto::build_chaos_links(kWorkers, {});
      proto::ProtocolManager rebuilt(workload_.tasks, *allocator, links,
                                     proto::LivenessConfig{});
      rebuilt.recover(scan);
      stats_.standby_fingerprint = rebuilt.snapshot_body();
    }
    return std::move(stats_);
  }

 private:
  Tracer* tracer_;
  std::string_view policy_;
  RunStats stats_;
  workloads::Workload workload_;
  std::unique_ptr<core::TaskAllocator> allocator_;
  std::vector<proto::DuplexLinkPtr> links_;
  std::optional<proto::ProtocolManager> manager_;
  std::vector<proto::WorkerAgent> agents_;
  core::recovery::MemStorage disk_;
  std::optional<layerbench::TracedStorage> traced_disk_;
  std::optional<core::recovery::RecoveryLog> log_;
  std::deque<std::string> to_standby_;
  std::deque<std::string> to_primary_;
  core::recovery::MemStorage mirror_;
  core::replication::JournalShipper shipper_;
  std::optional<layerbench::TracedObserver> traced_shipper_;
  core::replication::StandbyReplica replica_;
};

// ------------------------------------------------------- proto over TCP

/// TcpProtocolRuntime's lockstep loop, driven through the endpoints' public
/// API so each manager pump and each socket settle can be timed.
class TcpRun {
 public:
  TcpRun(const WorkloadDef& def, std::uint64_t seed, Tracer* tracer)
      : tracer_(tracer) {
    const std::int64_t t0 = now_ns();
    workload_ = def.generate(seed);
    stats_.gen_s = (now_ns() - t0) * 1e-9;
    allocator_ = make_allocator(def.policy, tracer);
    const proto::net::TcpTransportConfig tcp;
    manager_ep_ = std::make_unique<proto::net::ManagerEndpoint>(kWorkers, tcp);
    agents_.reserve(kWorkers);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      proto::net::TcpTransportConfig wcfg = tcp;
      wcfg.port = manager_ep_->port();
      worker_eps_.push_back(
          std::make_unique<proto::net::WorkerEndpoint>(i, wcfg));
      agents_.emplace_back(i, kCapacity, workload_.tasks,
                           worker_eps_[i]->link());
    }
    manager_.emplace(workload_.tasks, *allocator_, manager_ep_->links(),
                     proto::LivenessConfig{});
    // Connect, handshake and deliver every announcement.
    for (auto& agent : agents_) agent.announce();
    settle();
  }

  RunStats run() {
    const std::int64_t t0 = now_ns();
    manager_->start();
    std::size_t stalled = 0;
    for (std::size_t round = 0;; ++round) {
      Tracer::Scope span(tracer_, Layer::Round);
      now_ = static_cast<double>(round + 1);
      const std::int64_t a = now_ns();
      std::size_t progress = 0;
      {
        Tracer::Scope s(tracer_, Layer::ManagerPump);
        progress = manager_->pump();
      }
      stats_.sched_us.push_back((now_ns() - a) * 1e-3);
      settle();
      for (auto& agent : agents_) {
        Tracer::Scope s(tracer_, Layer::AgentPump);
        progress += agent.pump();
      }
      settle();
      stats_.round_us.push_back((now_ns() - a) * 1e-3);
      if (tracer_) stats_.ready_depth.push_back(manager_->core().ready_size());
      if (manager_->done()) break;
      if (progress == 0 && ++stalled > 1) {
        throw std::runtime_error("tcp run: no progress");
      }
      if (progress != 0) stalled = 0;
    }
    stats_.run_s = (now_ns() - t0) * 1e-9;
    stats_.fingerprint = manager_->snapshot_body();
    manager_->shutdown_workers();
    settle();
    for (auto& agent : agents_) agent.pump();

    stats_.tasks = workload_.tasks.size();
    stats_.completed = manager_->tasks_completed();
    stats_.fatal = manager_->tasks_fatal();
    stats_.rounds = stats_.sched_us.size();
    stats_.dispatches = manager_->dispatches_sent();
    stats_.accounting = manager_->accounting();
    stats_.transport.merge(manager_ep_->counters());
    for (const auto& ep : worker_eps_) stats_.transport.merge(ep->counters());
    stats_.wire_lines = stats_.transport.frames_sent;
    stats_.wire_bytes = stats_.transport.bytes_sent;
    return std::move(stats_);
  }

 private:
  bool pump_network(int timeout_ms) {
    bool progress = manager_ep_->pump_io(now_, timeout_ms);
    for (auto& ep : worker_eps_) progress |= ep->pump_io(now_, 0);
    return progress;
  }

  bool quiesced() const {
    if (!manager_ep_->quiesced()) return false;
    for (const auto& ep : worker_eps_) {
      if (!ep->quiesced()) return false;
    }
    return true;
  }

  void settle() {
    Tracer::Scope s(tracer_, Layer::NetIo);
    for (std::size_t i = 0; i < kSettleLimit; ++i) {
      const bool progress = pump_network(0);
      if (quiesced()) return;
      now_ += kSettleDt;
      if (!progress) pump_network(1);
    }
    throw std::runtime_error("tcp run: network failed to settle");
  }

  Tracer* tracer_;
  RunStats stats_;
  workloads::Workload workload_;
  std::unique_ptr<core::TaskAllocator> allocator_;
  std::unique_ptr<proto::net::ManagerEndpoint> manager_ep_;
  std::vector<std::unique_ptr<proto::net::WorkerEndpoint>> worker_eps_;
  std::vector<proto::WorkerAgent> agents_;
  std::optional<proto::ProtocolManager> manager_;
  double now_ = 0.0;
};

/// Sets up (timed) and runs one workload. `setup_only` stops after set-up.
RunStats run_once(const WorkloadDef& def, std::uint64_t seed, Tracer* tracer,
                  bool setup_only, bool rebuild_standby) {
  const std::int64_t t0 = now_ns();
  RunStats out;
  auto finish = [&](auto& driver, auto&& go) {
    const double setup_s = (now_ns() - t0) * 1e-9;
    if (setup_only) {
      out.setup_s = setup_s;
      return;
    }
    out = go(driver);
    out.setup_s = setup_s;
  };
  switch (def.shape) {
    case Shape::Sim: {
      SimRun d(def, seed, tracer);
      finish(d, [](SimRun& r) { return r.run(); });
      break;
    }
    case Shape::Durable: {
      DurableRun d(def, seed, tracer);
      finish(d, [&](DurableRun& r) { return r.run(rebuild_standby); });
      break;
    }
    case Shape::Tcp: {
      TcpRun d(def, seed, tracer);
      finish(d, [](TcpRun& r) { return r.run(); });
      break;
    }
  }
  return out;
}

/// The library runtime's final state for the same seed: Simulation::run(),
/// ProtocolRuntime::run() or TcpProtocolRuntime::run().
std::string reference_fingerprint(const WorkloadDef& def, std::uint64_t seed) {
  const workloads::Workload w = def.generate(seed);
  const auto allocator = make_allocator(def.policy, nullptr);
  switch (def.shape) {
    case Shape::Sim: {
      sim::Simulation sim(w.tasks, *allocator, exp::default_experiment_sim());
      sim.run();
      util::ByteWriter out;
      sim.save_state(out);
      return out.take();
    }
    case Shape::Durable: {
      proto::ProtocolRuntime rt(w.tasks, *allocator, kWorkers, kCapacity);
      rt.run();
      return rt.manager().snapshot_body();
    }
    case Shape::Tcp: {
      proto::net::TcpProtocolRuntime rt(w.tasks, *allocator, kWorkers,
                                        kCapacity);
      return rt.run().state_fingerprint;
    }
  }
  return {};
}

// ------------------------------------------------------------ checking

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Invariants every run must meet; `reference` (the library runtime's final
/// state) is compared when given.
void check_run(const RunStats& s, const std::string* reference,
               const std::string& label, Checks& checks) {
  const std::string at = " (" + label + ")";
  checks.expect(s.completed + s.fatal == s.tasks,
                "not every task ended completed or fatal" + at);
  for (core::ResourceKind k : core::kManagedResources) {
    const core::WasteBreakdown& b = s.accounting.breakdown(k);
    const double parts =
        b.consumption + b.internal_fragmentation + b.failed_allocation;
    checks.expect(std::abs(b.allocation - parts) <=
                      1e-9 * std::max(1.0, std::abs(b.allocation)),
                  "waste identity broken for " +
                      std::string(core::to_string(k)) + at);
  }
  if (reference) {
    checks.expect(s.fingerprint == *reference,
                  "final state differs from the library runtime's" + at);
  }
  if (s.standby_fingerprint) {
    checks.expect(*s.standby_fingerprint == s.fingerprint,
                  "standby cold rebuild differs from the primary" + at);
  }
}

struct CodecReplay {
  std::size_t lines = 0;
  double decode_ns = 0.0;  ///< per line
  double encode_ns = 0.0;  ///< per line
  std::size_t mismatches = 0;
};

/// Decodes and re-encodes every captured line; the best of three passes is
/// the per-line cost.
CodecReplay replay_codec(const std::vector<std::string>& lines) {
  CodecReplay out;
  out.lines = lines.size();
  if (lines.empty()) return out;
  std::vector<proto::Message> messages(lines.size());
  std::vector<std::string> encoded(lines.size());
  double best_decode = 1e300;
  double best_encode = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t bad = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      // A line that fails to decode re-encodes as a default message, which
      // never equals it, so it is counted below.
      messages[i] = proto::decode(lines[i]).value_or(proto::Message{});
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      encoded[i] = proto::encode(messages[i]);
    }
    const std::int64_t t2 = now_ns();
    best_decode = std::min(best_decode, static_cast<double>(t1 - t0));
    best_encode = std::min(best_encode, static_cast<double>(t2 - t1));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (encoded[i] != lines[i]) ++bad;
    }
    out.mismatches = bad;
  }
  out.decode_ns = best_decode / static_cast<double>(lines.size());
  out.encode_ns = best_encode / static_cast<double>(lines.size());
  return out;
}

// ------------------------------------------------------------- reporting

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Best-of-runs timings of one instance. Every run of an instance does the
/// same rounds (its final state is checked to repeat), and contention from
/// other tenants of a shared host only ever adds time, so the minimum over
/// runs is the instance's own cost. The minimum is taken per round for the
/// scheduling percentiles and per window of consecutive rounds for the run
/// time, so a slowdown that covers part of every run is still left out
/// unless it hits the same rounds each time.
struct BestTimes {
  std::vector<double> sched_us;  ///< per round
  std::vector<double> window_s;  ///< per window of rounds
  std::size_t reps = 0;
  std::size_t tasks = 0;
  double setup_s = 0.0;
  double best_run_s = 0.0;
  double worst_run_s = 0.0;

  /// Folds in one run; false if its rounds differ from the earlier runs'.
  bool add(const RunStats& r) {
    const std::size_t n = r.round_us.size();
    if (n == 0 || r.sched_us.size() != n) return false;
    std::vector<double> windows(kWindows, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      windows[j * kWindows / n] += r.round_us[j] * 1e-6;
    }
    if (reps++ == 0) {
      sched_us = r.sched_us;
      window_s = std::move(windows);
      tasks = r.tasks;
      best_run_s = worst_run_s = r.run_s;
      return true;
    }
    if (sched_us.size() != n) return false;
    for (std::size_t j = 0; j < n; ++j) {
      sched_us[j] = std::min(sched_us[j], r.sched_us[j]);
    }
    for (std::size_t w = 0; w < kWindows; ++w) {
      window_s[w] = std::min(window_s[w], windows[w]);
    }
    best_run_s = std::min(best_run_s, r.run_s);
    worst_run_s = std::max(worst_run_s, r.run_s);
    return true;
  }

  void add_setup(double s) {
    setup_s = setup_s > 0.0 ? std::min(setup_s, s) : s;
  }

  double total_s() const {
    double t = 0.0;
    for (double w : window_s) t += w;
    return t;
  }
};

/// Pins the benchmark's thread to one CPU at a time, rotating over the CPUs
/// it may use. On a shared host one core can be slowed by another tenant
/// for minutes while the others are not, and the kernel keeps a single
/// thread on its core; running each instance's repetitions on different
/// cores lets its best-of-runs times avoid the contended one.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t k) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Per-layer metrics of one traced run.
std::vector<Metric> layer_metrics(const RunStats& s, const Tracer& t,
                                  double untraced_run_s,
                                  const CodecReplay& codec) {
  const double tasks = static_cast<double>(s.tasks);
  const double wall = s.run_s;
  auto calls = [&](Layer l) {
    return static_cast<double>(t.stat(l).calls);
  };
  const double policy_s = t.self_s(Layer::PolicyObserve) +
                          t.self_s(Layer::PolicyPredict) +
                          t.self_s(Layer::PolicyRetry);
  double covered = 0.0;
  for (std::size_t i = 0; i < layerbench::kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    if (l != Layer::Round) covered += t.self_s(l);
  }
  std::vector<double> depth(s.ready_depth.begin(), s.ready_depth.end());
  // TaskAllocator::allocate asks one policy per managed resource, so each
  // allocation request past a category's exploration is three predicts.
  const double alloc_requests =
      calls(Layer::PolicyPredict) /
      static_cast<double>(core::kManagedResources.size());
  const bool is_sim = t.stat(Layer::SimStep).calls > 0;
  return {
      {"workloads.gen_s", s.gen_s, "s"},
      {"core.policy.observe_calls", calls(Layer::PolicyObserve), "count"},
      {"core.policy.predict_calls", calls(Layer::PolicyPredict), "count"},
      {"core.policy.retry_calls", calls(Layer::PolicyRetry), "count"},
      {"core.policy.observe_s", t.self_s(Layer::PolicyObserve), "s"},
      {"core.policy.predict_s", t.self_s(Layer::PolicyPredict), "s"},
      {"core.policy.retry_s", t.self_s(Layer::PolicyRetry), "s"},
      {"core.policy.share", wall > 0 ? policy_s / wall : 0.0, "ratio"},
      {"core.lifecycle.alloc_requests", alloc_requests, "count"},
      {"core.lifecycle.dispatches_per_request",
       alloc_requests > 0 ? static_cast<double>(s.dispatches) / alloc_requests
                          : 0.0,
       "ratio"},
      {"core.lifecycle.fatal_frac", static_cast<double>(s.fatal) / tasks,
       "ratio"},
      {"core.lifecycle.ready_depth_p50", percentile(depth, 0.5), "count"},
      {"core.lifecycle.ready_depth_max", percentile(depth, 1.0), "count"},
      {"sim.self_s", t.self_s(Layer::SimStep), "s"},
      {"sim.steps", calls(Layer::SimStep), "count"},
      {"sim.events_per_task", is_sim ? static_cast<double>(s.events) / tasks : 0.0,
       "ratio"},
      {"sim.evictions", static_cast<double>(s.evictions), "count"},
      {"sim.makespan_h", s.makespan_s / 3600.0, "h"},
      {"proto.manager_self_s", t.self_s(Layer::ManagerPump), "s"},
      {"proto.agent_s", t.self_s(Layer::AgentPump), "s"},
      {"proto.channel_s", t.self_s(Layer::ChannelSend), "s"},
      {"proto.rounds", is_sim ? 0.0 : static_cast<double>(s.rounds), "count"},
      {"proto.lines_per_task", static_cast<double>(s.wire_lines) / tasks,
       "ratio"},
      {"proto.wire_bytes_per_task", static_cast<double>(s.wire_bytes) / tasks,
       "B"},
      {"proto.codec.lines", static_cast<double>(codec.lines), "count"},
      {"proto.codec.decode_ns", codec.decode_ns, "ns"},
      {"proto.codec.encode_ns", codec.encode_ns, "ns"},
      {"core.recovery.append_calls",
       static_cast<double>(s.storage.append_calls), "count"},
      {"core.recovery.append_bytes",
       static_cast<double>(s.storage.append_bytes), "B"},
      {"core.recovery.append_s", t.self_s(Layer::JournalAppend), "s"},
      {"core.recovery.sync_calls", static_cast<double>(s.storage.sync_calls),
       "count"},
      {"core.recovery.sync_s", t.self_s(Layer::JournalSync), "s"},
      {"core.recovery.rotations", static_cast<double>(s.storage.rotations),
       "count"},
      {"core.recovery.snapshot_bytes",
       static_cast<double>(s.storage.snapshot_bytes), "B"},
      {"core.recovery.rotate_s", t.self_s(Layer::StorageRotate), "s"},
      {"core.replication.records_shipped",
       static_cast<double>(s.replication.records_shipped), "count"},
      {"core.replication.bytes_shipped",
       static_cast<double>(s.replication.bytes_shipped), "B"},
      {"core.replication.sync_waits",
       static_cast<double>(s.replication.sync_waits), "count"},
      {"core.replication.wait_rounds",
       static_cast<double>(s.replication.wait_rounds), "count"},
      {"core.replication.ship_s", t.self_s(Layer::Replication), "s"},
      {"proto.net.frames_sent", static_cast<double>(s.transport.frames_sent),
       "count"},
      {"proto.net.bytes_sent", static_cast<double>(s.transport.bytes_sent),
       "B"},
      {"proto.net.handshakes_ok",
       static_cast<double>(s.transport.handshakes_ok), "count"},
      {"proto.net.io_s", t.self_s(Layer::NetIo), "s"},
      {"trace.coverage", wall > 0 ? covered / wall : 0.0, "ratio"},
      {"trace.overhead_frac",
       untraced_run_s > 0 ? (wall - untraced_run_s) / untraced_run_s : 0.0,
       "ratio"},
      {"trace.untraced_s", std::max(0.0, wall - covered), "s"},
  };
}

double metric_value(const std::vector<Metric>& metrics, std::string_view name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("no metric " + std::string(name));
}

/// The largest self-time layer of a traced run (the workload's character).
std::string largest_layer(const Tracer& t) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < layerbench::kLayerCount; ++i) {
    if (t.self_s(static_cast<Layer>(i)) > t.self_s(static_cast<Layer>(best))) {
      best = i;
    }
  }
  return layerbench::kLayerNames[best];
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_log;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
      if (!(o.seconds > 0.0 && o.seconds <= 120.0)) {
        throw std::invalid_argument("--seconds must be in (0, 120]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      o.trace = v == "1";
    } else if (a == "--span-log") {
      o.span_log = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

/// Workload seed of instance `i` of a batch. Instance 0 is the benchmark
/// seed itself, so the library-reference check covers exactly --seed.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * i);
  return util::splitmix64(x);
}

void print_result(const std::string& human, const std::vector<Metric>& metrics,
                  const Checks& checks, std::size_t attempted,
                  std::size_t fatal) {
  std::cout << human;
  for (const std::string& f : checks.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  const bool correct = checks.failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << (correct ? fatal : attempted)
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int run_benchmark(const Options& opt) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == opt.workload) def = &w;
  }
  if (!def) throw std::invalid_argument("unknown workload " + opt.workload);

  // The budget covers everything after argument parsing, the reference run
  // included, so an invocation takes about --seconds.
  const std::int64_t t0 = now_ns();
  Checks checks;
  const std::string reference = reference_fingerprint(*def, opt.seed);
  std::size_t attempted = 0;
  std::size_t fatal = 0;
  auto count = [&](const RunStats& r) {
    attempted += r.tasks;
    fatal += r.fatal;
  };
  std::ostringstream human;
  human << "workload " << def->name << " seed " << opt.seed << "\n";
  std::vector<Metric> metrics;

  if (!opt.trace) {
    // End-to-end metrics: untraced runs over a batch of instances, so one
    // seed's numbers do not hinge on a single generated workflow. Instances
    // run round-robin until the budget is spent (a run starts only if at
    // least half of it fits); each keeps the best of its repetitions.
    const std::size_t batch = def->batch;
    std::vector<std::uint64_t> fingerprints(batch, 0);
    std::vector<BestTimes> best(batch);
    core::WasteAccounting merged;
    // Set-ups are timed before every measured run, so an instance's best
    // set-up is taken over the whole budget rather than one moment of it.
    // The first is a warm-up and is not kept.
    std::size_t setups = 0;
    run_once(*def, opt.seed, nullptr, true, false);
    double last_s = 0.0;
    CpuRotation cpus;
    for (std::size_t n = 0;
         n < batch || (now_ns() - t0) * 1e-9 + last_s / 2 < opt.seconds; ++n) {
      const std::int64_t start = now_ns();
      const std::size_t i = n % batch;
      // Repetition r of instance i runs on CPU i + r, so each instance's
      // repetitions land on different cores whatever the batch size.
      cpus.pin(i + n / batch);
      const std::uint64_t seed = instance_seed(opt.seed, i);
      const bool first = n < batch;
      for (std::size_t k = 0; k < kSetupsPerRun; ++k) {
        best[i].add_setup(run_once(*def, seed, nullptr, true, false).setup_s);
      }
      const RunStats r = run_once(*def, seed, nullptr, false, first);
      best[i].add_setup(r.setup_s);
      setups += kSetupsPerRun + 1;
      const std::string label = "instance " + std::to_string(i);
      check_run(r, i == 0 && first ? &reference : nullptr, label, checks);
      const std::uint64_t fp = util::hash64(r.fingerprint);
      if (first) {
        fingerprints[i] = fp;
        merged.merge(r.accounting);
      } else {
        checks.expect(fp == fingerprints[i],
                      "a rerun changed the final state (" + label + ")");
      }
      checks.expect(best[i].add(r),
                    "a rerun took a different number of rounds (" + label + ")");
      count(r);
      last_s = (now_ns() - start) * 1e-9;
    }
    // Each timing is the median over the batch's instances of that
    // instance's best-of-runs value. Some generated workflows need more
    // rounds than the rest (about one bimodal one in six, up to 15% more
    // rounds and 25% slower, with a heavier tail), and the median keeps one
    // such instance in a batch from moving the seed's figures.
    std::vector<double> setup;
    std::vector<double> tput;
    std::vector<double> p50;
    std::vector<double> p99;
    std::size_t samples = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      const BestTimes& b = best[i];
      setup.push_back(b.setup_s);
      tput.push_back(static_cast<double>(b.tasks) / b.total_s());
      p50.push_back(percentile(b.sched_us, 0.50));
      p99.push_back(percentile(b.sched_us, 0.99));
      samples += b.sched_us.size();
      human << "instance " << i << ": " << b.reps << " runs of "
            << b.sched_us.size() << " rounds, tasks/s best " << tput.back()
            << " (single runs " << b.tasks / b.worst_run_s << " to "
            << b.tasks / b.best_run_s << "), sched p50 " << p50.back()
            << " us p99 " << p99.back() << " us, set-up best "
            << b.setup_s << " s\n";
    }
    std::string all;
    for (std::uint64_t fp : fingerprints) all += hex64(fp);
    human << batch << " instances, " << setups << " set-ups, "
          << samples << " scheduling samples\n";
    human << "digest awe_cores=" << merged.awe(core::ResourceKind::Cores)
          << " awe_memory=" << merged.awe(core::ResourceKind::MemoryMB)
          << " awe_disk=" << merged.awe(core::ResourceKind::DiskMB)
          << " fatal=" << fatal << " fingerprint0=" << hex64(fingerprints[0])
          << " batch=" << hex64(util::hash64(all)) << "\n";
    metrics = {
        {"setup_s", median(setup), "s"},
        {"tasks_per_s", median(tput), "1/s"},
        {"sched_p50_us", median(p50), "us"},
        {"sched_p99_us", median(p99), "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"awe_cores", merged.awe(core::ResourceKind::Cores), "ratio"},
        {"awe_memory", merged.awe(core::ResourceKind::MemoryMB), "ratio"},
        {"awe_disk", merged.awe(core::ResourceKind::DiskMB), "ratio"},
        {"attempts_per_task", merged.mean_attempts(), "ratio"},
    };
    print_result(human.str(), metrics, checks, attempted, fatal);
    return checks.failures.empty() ? 0 : 1;
  }

  // Per-layer metrics: the seed's own instance, untraced for half the
  // budget (the overhead base), then traced for the rest (at least once).
  std::vector<double> untraced_s;
  do {
    const RunStats r = run_once(*def, opt.seed, nullptr, false,
                                untraced_s.empty());
    check_run(r, &reference, "untraced", checks);
    untraced_s.push_back(r.run_s);
    count(r);
  } while ((now_ns() - t0) * 1e-9 < opt.seconds / 2);
  std::vector<std::vector<Metric>> traced;
  do {
    Tracer tracer;
    const RunStats r = run_once(*def, opt.seed, &tracer, false, false);
    check_run(r, &reference, "traced", checks);
    const CodecReplay codec = replay_codec(r.captured);
    checks.expect(codec.mismatches == 0,
                  std::to_string(codec.mismatches) +
                      " captured lines did not decode and re-encode "
                      "byte-identically");
    count(r);
    traced.push_back(layer_metrics(r, tracer, median(untraced_s), codec));
    if (traced.size() > 1) continue;
    std::vector<double> depth(r.ready_depth.begin(), r.ready_depth.end());
    human << "character: ready_depth_p50=" << percentile(depth, 0.5)
          << " ready_depth_max=" << percentile(depth, 1.0)
          << " rounds=" << r.rounds
          << " policy_share=" << metric_value(traced.back(), "core.policy.share")
          << " largest_layer=" << largest_layer(tracer)
          << " spans=" << tracer.spans_total() << " (logged "
          << tracer.spans().size() << ")\n";
    if (!opt.span_log.empty()) {
      std::ofstream out(opt.span_log);
      tracer.write_tsv(out);
      if (!out) throw std::runtime_error("cannot write " + opt.span_log);
    }
  } while ((now_ns() - t0) * 1e-9 < opt.seconds);
  human << untraced_s.size() << " untraced and " << traced.size()
        << " traced runs\n";
  // Counts repeat exactly across runs; times are medians.
  for (std::size_t m = 0; m < traced.front().size(); ++m) {
    std::vector<double> v;
    for (const auto& run : traced) v.push_back(run[m].value);
    metrics.push_back(
        {traced.front()[m].name, median(v), traced.front()[m].unit});
  }
  const double coverage = metric_value(metrics, "trace.coverage");
  checks.expect(coverage >= 0.9, "layer self times cover only " +
                                     std::to_string(coverage) +
                                     " of the traced wall time (< 0.9)");
  print_result(human.str(), metrics, checks, attempted, fatal);
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "layerbench: " << e.what() << "\n";
    return 2;
  }
}
