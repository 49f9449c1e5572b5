// End-to-end coverage of the TCP socket transport on calm (fault-free)
// networks: the lockstep TcpProtocolRuntime, the three-way parity oracle
// (simulator / in-process protocol / TCP protocol must agree bit-for-bit),
// session resume after a connection kill, transport backpressure reaching
// the manager's dispatch loop, and a free-running threaded deployment
// (one thread per endpoint — the configuration ThreadSanitizer watches).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/task.hpp"
#include "proto/channel.hpp"
#include "proto/manager.hpp"
#include "proto/net/endpoint.hpp"
#include "proto/net/tcp_runtime.hpp"
#include "proto/worker_agent.hpp"
#include "sim/simulation.hpp"

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::TaskSpec;
using tora::proto::DuplexLink;
using tora::proto::DuplexLinkPtr;
using tora::proto::ProtocolManager;
using tora::proto::ProtocolRuntime;
using tora::proto::WorkerAgent;
using tora::proto::net::ManagerEndpoint;
using tora::proto::net::TcpProtocolRuntime;
using tora::proto::net::TcpTransportConfig;
using tora::proto::net::WorkerEndpoint;

constexpr ResourceVector kCapacity{16.0, 65536.0, 65536.0, 0.0};

std::vector<TaskSpec> simple_tasks(std::size_t n) {
  std::vector<TaskSpec> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec t;
    t.id = i;
    t.category = i % 2 == 0 ? "even" : "odd";
    t.demand = ResourceVector{1.0 + static_cast<double>(i % 4), 500.0, 50.0};
    t.duration_s = 10.0;
    t.peak_fraction = 0.5;
    tasks.push_back(std::move(t));
  }
  return tasks;
}

/// Serialization-friendly workload shared with test_dispatch_parity: every
/// demand occupies more than half a worker, so a single worker executes
/// strictly in order and all three runtimes see the same trajectory.
std::vector<TaskSpec> parity_workload(std::size_t n) {
  const std::vector<std::string> cats = {"heavy_a", "heavy_b", "heavy_c"};
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    tasks[i].category = cats[i % cats.size()];
    tasks[i].demand = ResourceVector{
        9.0 + static_cast<double>(i % 3),
        20000.0 + 3000.0 * static_cast<double>(i % 5),
        4000.0 + 500.0 * static_cast<double>(i % 4), 0.0};
    tasks[i].duration_s = 10.0 + static_cast<double>(i % 7);
  }
  return tasks;
}

// ------------------------------------------------------------------ smoke

TEST(TcpRuntime, CompletesASimpleWorkload) {
  const auto tasks = simple_tasks(20);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  TcpProtocolRuntime runtime(tasks, alloc, 3, kCapacity);
  const auto result = runtime.run();
  EXPECT_EQ(result.tasks_completed, tasks.size());
  EXPECT_EQ(result.tasks_fatal, 0u);
  // One fresh handshake per worker — counted on BOTH ends in the merged
  // counters — no resumes, no rejected hellos.
  EXPECT_EQ(result.transport.handshakes_ok, 2u * 3u);
  EXPECT_EQ(result.transport.sessions_resumed, 0u);
  EXPECT_EQ(result.transport.handshakes_rejected, 0u);
  EXPECT_GT(result.transport.frames_sent, tasks.size());
  EXPECT_GT(result.transport.bytes_sent, 0u);
  // frames_sent counts control traffic (welcomes, acks) too;
  // frames_received counts application frames only — so on a settled calm
  // network sent strictly dominates received and nothing was lost.
  EXPECT_GT(result.transport.frames_received, 2 * tasks.size())
      << "each task costs at least a dispatch and a result";
  EXPECT_GT(result.transport.frames_sent, result.transport.frames_received);
}

// ---------------------------------------------------- three-way parity

/// In-process reference run mirroring ProtocolRuntime's round structure but
/// with direct access to the manager for snapshot_body().
std::string run_inproc(std::span<const TaskSpec> tasks,
                       tora::core::TaskAllocator& alloc,
                       std::size_t num_workers,
                       tora::proto::ProtocolRunResult* out) {
  std::vector<DuplexLinkPtr> links;
  std::vector<WorkerAgent> agents;
  for (std::size_t i = 0; i < num_workers; ++i) {
    links.push_back(std::make_shared<DuplexLink>());
    agents.emplace_back(i, kCapacity, tasks, links[i]);
  }
  ProtocolManager manager(tasks, alloc, links);
  for (auto& agent : agents) agent.announce();
  manager.start();
  for (int round = 0; round < 100000 && !manager.done(); ++round) {
    manager.pump();
    for (auto& agent : agents) agent.pump();
  }
  EXPECT_TRUE(manager.done());
  manager.shutdown_workers();
  for (auto& agent : agents) agent.pump();
  if (out != nullptr) {
    out->accounting = manager.accounting();
    out->tasks_completed = manager.tasks_completed();
    out->tasks_fatal = manager.tasks_fatal();
    out->evicted_alloc = manager.evicted_alloc();
  }
  return manager.snapshot_body();
}

TEST(TcpParity, InProcAndTcpManagersFinishBitForBit) {
  const auto tasks = parity_workload(30);

  auto inproc_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::proto::ProtocolRunResult inproc;
  const std::string inproc_fp = run_inproc(tasks, inproc_alloc, 1, &inproc);

  auto tcp_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  TcpProtocolRuntime runtime(tasks, tcp_alloc, 1, kCapacity);
  const auto tcp = runtime.run();

  EXPECT_EQ(tcp.tasks_completed, inproc.tasks_completed);
  EXPECT_EQ(tcp.tasks_fatal, inproc.tasks_fatal);
  for (ResourceKind k : tora::core::kManagedResources) {
    EXPECT_DOUBLE_EQ(tcp.accounting.breakdown(k).allocation,
                     inproc.accounting.breakdown(k).allocation);
    EXPECT_DOUBLE_EQ(tcp.accounting.breakdown(k).consumption,
                     inproc.accounting.breakdown(k).consumption);
    EXPECT_DOUBLE_EQ(tcp.accounting.awe(k), inproc.accounting.awe(k));
  }
  // The headline: identical manager state down to the last byte, across a
  // real kernel socket. Any reordering, loss, duplication or session glitch
  // on the calm path would show up here.
  EXPECT_EQ(tcp.state_fingerprint, inproc_fp);
}

TEST(TcpParity, MultiWorkerFingerprintMatchesToo) {
  const auto tasks = simple_tasks(24);

  auto inproc_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  const std::string inproc_fp = run_inproc(tasks, inproc_alloc, 3, nullptr);

  auto tcp_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  TcpProtocolRuntime runtime(tasks, tcp_alloc, 3, kCapacity);
  const auto tcp = runtime.run();
  EXPECT_EQ(tcp.tasks_completed, tasks.size());
  EXPECT_EQ(tcp.state_fingerprint, inproc_fp);
}

TEST(TcpParity, SimulatorAgreesOnOutcomeAndWaste) {
  // Third leg of the oracle: the discrete-event simulator on the same
  // serialized workload. (The simulator's state lives in sim::Simulation,
  // so this leg compares the shared lifecycle observables, not bytes; the
  // byte-level claim between the two protocol runtimes is above.)
  const auto tasks = parity_workload(30);

  auto sim_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  tora::sim::SimConfig sim_cfg;
  sim_cfg.worker_capacity = kCapacity;
  sim_cfg.churn.enabled = false;
  sim_cfg.churn.initial_workers = 1;
  tora::sim::Simulation sim(tasks, sim_alloc, sim_cfg);
  const auto sim_result = sim.run();

  auto tcp_alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  TcpProtocolRuntime runtime(tasks, tcp_alloc, 1, kCapacity);
  const auto tcp = runtime.run();

  EXPECT_EQ(tcp.tasks_completed, sim_result.tasks_completed);
  EXPECT_EQ(tcp.tasks_fatal, sim_result.tasks_fatal);
  for (ResourceKind k : tora::core::kManagedResources) {
    EXPECT_DOUBLE_EQ(tcp.accounting.breakdown(k).allocation,
                     sim_result.accounting.breakdown(k).allocation);
    EXPECT_DOUBLE_EQ(tcp.accounting.breakdown(k).consumption,
                     sim_result.accounting.breakdown(k).consumption);
    EXPECT_DOUBLE_EQ(tcp.accounting.awe(k), sim_result.accounting.awe(k));
  }
}

// --------------------------------------------------------- session resume

/// Pumps both endpoints until `pred` holds or the iteration budget runs
/// out; the clock advances fractionally so backoff deadlines expire.
template <typename Pred>
bool pump_until(ManagerEndpoint& mgr, WorkerEndpoint& wep, double& now,
                Pred pred) {
  for (int i = 0; i < 200000; ++i) {
    if (pred()) return true;
    mgr.pump_io(now, 0);
    wep.pump_io(now, 0);
    now += 0.01;
  }
  return pred();
}

TEST(TcpSession, KillAndReconnectResumesWithoutLossOrDuplication) {
  TcpTransportConfig cfg;
  ManagerEndpoint mgr(1, cfg);
  TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr.port();
  WorkerEndpoint wep(0, wcfg);
  double now = 0.0;

  ASSERT_TRUE(pump_until(mgr, wep, now, [&] { return wep.established(); }));
  const std::uint64_t token = wep.session_token();
  ASSERT_NE(token, 0u);

  // Worker -> manager app traffic before the cut.
  wep.link()->to_manager.send("result pre_cut_0");
  wep.link()->to_manager.send("result pre_cut_1");
  ASSERT_TRUE(pump_until(mgr, wep, now, [&] { return mgr.rx_count(0) == 2; }));

  // Queue a frame, then kill the connection BEFORE it can flush: the
  // classic in-flight-result-during-disconnect window.
  wep.link()->to_manager.send("result in_flight");
  wep.kill_connection();
  wep.link()->to_manager.send("result post_cut");

  ASSERT_TRUE(pump_until(mgr, wep, now, [&] { return mgr.rx_count(0) == 4; }));
  EXPECT_EQ(wep.session_token(), token) << "same session resumed, not fresh";
  EXPECT_GE(wep.counters().reconnects, 1u);
  EXPECT_EQ(wep.counters().sessions_resumed, 1u);

  // Exactly once, in order, nothing duplicated.
  std::vector<std::string> got;
  while (auto line = mgr.links()[0]->to_manager.poll()) got.push_back(*line);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], "result pre_cut_0");
  EXPECT_EQ(got[1], "result pre_cut_1");
  EXPECT_EQ(got[2], "result in_flight");
  EXPECT_EQ(got[3], "result post_cut");
}

TEST(TcpSession, ManagerToWorkerDirectionAlsoSurvivesTheCut) {
  TcpTransportConfig cfg;
  ManagerEndpoint mgr(1, cfg);
  TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr.port();
  WorkerEndpoint wep(0, wcfg);
  double now = 0.0;
  ASSERT_TRUE(pump_until(mgr, wep, now, [&] { return wep.established(); }));

  mgr.links()[0]->to_worker.send("dispatch a");
  ASSERT_TRUE(pump_until(mgr, wep, now, [&] { return wep.rx_count() == 1; }));

  // Cut from the manager side (all of them — there is one).
  mgr.drop_all_connections();
  mgr.links()[0]->to_worker.send("dispatch b");
  ASSERT_TRUE(pump_until(mgr, wep, now, [&] { return wep.rx_count() == 2; }));
  EXPECT_GE(wep.counters().reconnects, 1u);

  std::vector<std::string> got;
  while (auto line = wep.link()->to_worker.poll()) got.push_back(*line);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "dispatch a");
  EXPECT_EQ(got[1], "dispatch b");
}

// ----------------------------------------------------------- backpressure

TEST(TcpBackpressure, QueueFillsWhileDisconnectedAndDrainsOnConnect) {
  TcpTransportConfig cfg;
  cfg.session.queue_low = 2;
  cfg.session.queue_high = 4;
  cfg.session.queue_cap = 64;
  ManagerEndpoint mgr(1, cfg);

  // No worker yet: frames pile up in the session send queue.
  for (int i = 0; i < 5; ++i) {
    mgr.links()[0]->to_worker.send("dispatch " + std::to_string(i));
  }
  EXPECT_TRUE(mgr.links()[0]->to_worker.backpressured());
  EXPECT_GE(mgr.counters().backpressure_events, 1u);

  TcpTransportConfig wcfg = cfg;
  wcfg.port = mgr.port();
  WorkerEndpoint wep(0, wcfg);
  double now = 0.0;
  ASSERT_TRUE(pump_until(mgr, wep, now, [&] { return wep.rx_count() == 5; }));
  ASSERT_TRUE(pump_until(mgr, wep, now,
                         [&] { return mgr.quiesced() && wep.quiesced(); }));
  EXPECT_FALSE(mgr.links()[0]->to_worker.backpressured());
}

/// Channel stub whose backpressure is test-controlled — stands in for a
/// socket send queue past its high watermark.
class StubBackpressureChannel : public tora::proto::Channel {
 public:
  bool backpressured() const noexcept override { return *flag_; }
  explicit StubBackpressureChannel(const bool* flag) noexcept : flag_(flag) {}

 private:
  const bool* flag_;
};

TEST(TcpBackpressure, ManagerSkipsBackpressuredWorkersAndCountsDeferrals) {
  // Heavy tasks: only one fits a worker at a time, so the dispatch queue
  // stays non-empty across ticks and deferrals are observable.
  const auto tasks = parity_workload(6);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);

  static bool w0_blocked = false;
  static bool w1_blocked = false;
  w0_blocked = false;
  w1_blocked = false;
  auto link0 = std::make_shared<DuplexLink>(
      std::make_unique<StubBackpressureChannel>(&w0_blocked),
      std::make_unique<tora::proto::Channel>());
  auto link1 = std::make_shared<DuplexLink>(
      std::make_unique<StubBackpressureChannel>(&w1_blocked),
      std::make_unique<tora::proto::Channel>());
  WorkerAgent agent0(0, kCapacity, tasks, link0);
  WorkerAgent agent1(1, kCapacity, tasks, link1);
  ProtocolManager manager(tasks, alloc, {link0, link1});

  agent0.announce();
  agent1.announce();
  manager.start();
  manager.pump();  // registers both workers, dispatches freely

  // Block worker 0's transport: every subsequent dispatch must land on
  // worker 1 and the deferral counter must tick for the skipped worker.
  w0_blocked = true;
  agent0.pump();
  agent1.pump();
  for (int round = 0; round < 1000 && !manager.done(); ++round) {
    manager.pump();
    agent0.pump();
    agent1.pump();
  }
  ASSERT_TRUE(manager.done());
  EXPECT_EQ(manager.tasks_completed(), tasks.size());

  // With both transports blocked the manager cannot place anything.
  auto alloc2 = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  auto link2 = std::make_shared<DuplexLink>(
      std::make_unique<StubBackpressureChannel>(&w0_blocked),
      std::make_unique<tora::proto::Channel>());
  WorkerAgent agent2(0, kCapacity, tasks, link2);
  ProtocolManager stuck(tasks, alloc2, {link2});
  agent2.announce();
  stuck.start();
  stuck.pump();  // register (dispatches of tick 1 may go out pre-sample)
  agent2.pump();
  w0_blocked = true;
  const auto before = stuck.chaos().dispatches_deferred_backpressure;
  stuck.pump();
  stuck.pump();
  EXPECT_GT(stuck.chaos().dispatches_deferred_backpressure, before)
      << "queued tasks with every transport backpressured must count "
         "deferrals, not dispatch";
}

TEST(TcpBackpressure, StuckWorkerDefersAnExactNumberOfProbes) {
  // The stuck-manager half of ManagerSkipsBackpressuredWorkersAndCounts-
  // Deferrals with its counter pinned: a probe refused only for
  // backpressure is counted once per queued task per pump.
  const auto tasks = parity_workload(6);
  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);

  static bool blocked = false;
  blocked = false;
  auto link = std::make_shared<DuplexLink>(
      std::make_unique<StubBackpressureChannel>(&blocked),
      std::make_unique<tora::proto::Channel>());
  WorkerAgent agent(0, kCapacity, tasks, link);
  ProtocolManager stuck(tasks, alloc, {link});
  agent.announce();
  stuck.start();
  stuck.pump();
  agent.pump();
  blocked = true;
  EXPECT_EQ(stuck.chaos().dispatches_deferred_backpressure, 0u);
  stuck.pump();
  stuck.pump();
  EXPECT_EQ(stuck.chaos().dispatches_deferred_backpressure, 10u);
}

// -------------------------------------------------------------- threaded

// Free-running deployment: the manager and every worker own their thread
// and share NOTHING but kernel sockets. No lockstep, no barriers — real
// interleavings, which is exactly what the ThreadSanitizer build checks.
TEST(TcpThreaded, FreeRunningProcessesCompleteTheWorkload) {
  const auto tasks = simple_tasks(16);
  constexpr std::size_t kWorkers = 2;

  TcpTransportConfig cfg;
  ManagerEndpoint mgr_ep(kWorkers, cfg);
  const std::uint16_t port = mgr_ep.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> worker_threads;
  worker_threads.reserve(kWorkers);
  for (std::size_t i = 0; i < kWorkers; ++i) {
    worker_threads.emplace_back([&, i] {
      TcpTransportConfig wcfg = cfg;
      wcfg.port = port;
      wcfg.backoff_base = 0.001;
      wcfg.backoff_cap = 0.01;
      WorkerEndpoint ep(i, wcfg);
      WorkerAgent agent(i, kCapacity, tasks, ep.link());
      agent.announce();
      double now = 0.0;
      while (!stop.load(std::memory_order_relaxed) &&
             !agent.shutdown_received()) {
        ep.pump_io(now, 1);
        agent.pump();
        now += 0.01;
      }
      // Final flush so the manager's endpoint is not left mid-frame.
      for (int i2 = 0; i2 < 50; ++i2) ep.pump_io(now, 0);
    });
  }

  auto alloc = tora::core::make_allocator(tora::core::kMaxSeen, 7);
  // Free-running threads pump at wildly different real-time rates (TSan
  // slows everything ~10x), so the tick-based failure detectors get
  // windows far beyond any plausible scheduling hiccup.
  tora::proto::LivenessConfig liveness;
  liveness.silence_ticks = 50000;
  liveness.attempt_timeout_ticks = 100000;
  liveness.worker_failure_limit = 1000;
  ProtocolManager manager(tasks, alloc, mgr_ep.links(), liveness);
  double now = 0.0;
  // Give the workers a beat to announce, then pump until done.
  for (int i = 0; i < 200; ++i) {
    mgr_ep.pump_io(now, 1);
    now += 0.01;
  }
  manager.start();
  bool done = false;
  for (int round = 0; round < 200000; ++round) {
    mgr_ep.pump_io(now, 1);
    manager.pump();
    now += 0.01;
    if (manager.done()) {
      done = true;
      break;
    }
  }
  EXPECT_TRUE(done);
  manager.shutdown_workers();
  for (int i = 0; i < 500 && mgr_ep.connections() > 0; ++i) {
    mgr_ep.pump_io(now, 1);
    now += 0.01;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : worker_threads) t.join();

  EXPECT_EQ(manager.tasks_completed(), tasks.size());
  EXPECT_EQ(manager.tasks_fatal(), 0u);
}

}  // namespace
