#include "cluster/orchestrator.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace skh::cluster {
namespace {

class OrchestratorTest : public ::testing::Test {
 protected:
  OrchestratorTest()
      : topo_(topo::Topology::build(config())),
        orch_(topo_, overlay_, events_, RngStream{42}) {}

  static topo::TopologyConfig config() {
    topo::TopologyConfig cfg;
    cfg.num_hosts = 16;
    cfg.rails_per_host = 8;
    cfg.hosts_per_segment = 8;
    return cfg;
  }

  TaskRequest request(std::uint32_t containers, std::uint32_t gpus = 8,
                      SimTime lifetime = SimTime::minutes(60)) {
    TaskRequest r;
    r.tenant = TenantId{1};
    r.num_containers = containers;
    r.gpus_per_container = gpus;
    r.lifetime = lifetime;
    return r;
  }

  topo::Topology topo_;
  overlay::OverlayNetwork overlay_;
  sim::EventQueue events_;
  Orchestrator orch_;
};

TEST_F(OrchestratorTest, PlacesFullHostContainers) {
  const auto task = orch_.submit_task(request(4));
  ASSERT_TRUE(task.has_value());
  const auto& info = orch_.task(*task);
  EXPECT_EQ(info.containers.size(), 4u);
  EXPECT_EQ(info.total_gpus(), 32u);
  // Each 8-GPU container owns a distinct host with all 8 rails.
  std::set<HostId> hosts;
  for (ContainerId cid : info.containers) {
    const auto& ci = orch_.container(cid);
    hosts.insert(ci.host);
    EXPECT_EQ(ci.rnics.size(), 8u);
    EXPECT_EQ(ci.state, ContainerState::kStarting);
    for (std::uint32_t g = 0; g < 8; ++g) {
      EXPECT_EQ(topo_.rail_of(ci.rnics[g]), g);
    }
  }
  EXPECT_EQ(hosts.size(), 4u);
}

TEST_F(OrchestratorTest, TwoSmallContainersShareHost) {
  const auto task = orch_.submit_task(request(2, 4));
  ASSERT_TRUE(task.has_value());
  const auto& info = orch_.task(*task);
  const auto& a = orch_.container(info.containers[0]);
  const auto& b = orch_.container(info.containers[1]);
  EXPECT_EQ(a.host, b.host);
  // Disjoint rails.
  for (RnicId ra : a.rnics) {
    for (RnicId rb : b.rnics) EXPECT_NE(ra, rb);
  }
}

TEST_F(OrchestratorTest, RejectsOversizedTask) {
  EXPECT_FALSE(orch_.submit_task(request(17)).has_value());  // 17 > 16 hosts
  EXPECT_THROW((void)orch_.submit_task(request(1, 9)), std::invalid_argument);
  EXPECT_THROW((void)orch_.submit_task(request(0)), std::invalid_argument);
}

TEST_F(OrchestratorTest, ContainersBecomeRunningAfterDelay) {
  const auto task = orch_.submit_task(request(4));
  ASSERT_TRUE(task.has_value());
  int running_events = 0;
  orch_.on_container_running([&](const ContainerInfo&) { ++running_events; });
  // Callbacks registered after submit still fire for these containers
  // because startup is event-driven.
  events_.run_until(SimTime::minutes(15));
  EXPECT_EQ(running_events, 4);
  for (ContainerId cid : orch_.task(*task).containers) {
    EXPECT_EQ(orch_.container(cid).state, ContainerState::kRunning);
    EXPECT_GT(orch_.container(cid).running_at, SimTime::seconds(0));
  }
}

TEST_F(OrchestratorTest, RunningEndpointsAttachToOverlay) {
  const auto task = orch_.submit_task(request(2));
  events_.run_until(SimTime::minutes(15));
  for (const Endpoint& ep : orch_.endpoints_of_task(*task)) {
    EXPECT_TRUE(overlay_.attached(ep));
  }
  // Endpoints of the two containers are mutually connected.
  const auto eps = orch_.endpoints_of_task(*task);
  const auto& c0 = orch_.container(orch_.task(*task).containers[0]);
  Endpoint src{}, dst{};
  for (const auto& e : eps) {
    if (e.container == c0.id) src = e;
    else dst = e;
  }
  EXPECT_TRUE(overlay_.walk(src, dst, 16).reachable);
}

TEST_F(OrchestratorTest, TaskTerminatesAfterLifetime) {
  const auto task = orch_.submit_task(request(2, 8, SimTime::minutes(30)));
  events_.run_until(SimTime::minutes(60));
  for (ContainerId cid : orch_.task(*task).containers) {
    EXPECT_EQ(orch_.container(cid).state, ContainerState::kDead);
  }
  EXPECT_TRUE(orch_.task(*task).terminated);
  // Resources freed and overlay detached.
  for (const Endpoint& ep : orch_.endpoints_of_task(*task)) {
    EXPECT_FALSE(overlay_.attached(ep));
  }
}

TEST_F(OrchestratorTest, CapacityFreedAfterTermination) {
  // Fill the cluster, let it die, then fill again.
  const auto t1 = orch_.submit_task(request(16, 8, SimTime::minutes(10)));
  ASSERT_TRUE(t1.has_value());
  EXPECT_FALSE(orch_.submit_task(request(1)).has_value());
  events_.run_until(SimTime::minutes(40));
  const auto t2 = orch_.submit_task(request(16));
  EXPECT_TRUE(t2.has_value());
}

TEST_F(OrchestratorTest, StoppedCallbackFiresOnTermination) {
  const auto task = orch_.submit_task(request(3, 8, SimTime::minutes(20)));
  ASSERT_TRUE(task.has_value());
  int stopped = 0;
  orch_.on_container_stopped([&](const ContainerInfo&) { ++stopped; });
  events_.run_until(SimTime::minutes(60));
  EXPECT_EQ(stopped, 3);
}

TEST_F(OrchestratorTest, CreatedCallbackFiresAtSubmit) {
  int created = 0;
  orch_.on_container_created([&](const ContainerInfo& ci) {
    ++created;
    EXPECT_EQ(ci.state, ContainerState::kStarting);
  });
  (void)orch_.submit_task(request(5));
  EXPECT_EQ(created, 5);
}

TEST_F(OrchestratorTest, CrashedContainerDetachesAndReportsStopped) {
  const auto task = orch_.submit_task(request(2));
  events_.run_until(SimTime::minutes(15));
  int stopped = 0;
  orch_.on_container_stopped([&](const ContainerInfo&) { ++stopped; });
  const ContainerId victim = orch_.task(*task).containers[0];
  orch_.crash_container(victim);
  EXPECT_EQ(orch_.container(victim).state, ContainerState::kDead);
  // The network detaches instantly...
  for (const Endpoint& ep : orch_.container(victim).endpoints()) {
    EXPECT_FALSE(overlay_.attached(ep));
  }
  // ...but the control plane only hears about it after the sync lag.
  EXPECT_EQ(stopped, 0);
  events_.run_until(events_.now() + Orchestrator::kCrashNotifyLag +
                    SimTime::seconds(1));
  EXPECT_EQ(stopped, 1);
  // Crash is idempotent.
  orch_.crash_container(victim);
  events_.run_until(events_.now() + SimTime::minutes(3));
  EXPECT_EQ(stopped, 1);
}

TEST_F(OrchestratorTest, RunningEndpointsQueryFiltersStates) {
  const auto task = orch_.submit_task(request(2));
  EXPECT_TRUE(orch_.running_endpoints_of_task(*task).empty());
  events_.run_until(SimTime::minutes(15));
  EXPECT_EQ(orch_.running_endpoints_of_task(*task).size(), 16u);
}

TEST_F(OrchestratorTest, StartupIsPhasedNotSimultaneous) {
  // Fig. 4's premise: grouped containers reach Running at different times.
  const auto task = orch_.submit_task(request(8));
  events_.run_until(SimTime::minutes(15));
  std::set<std::int64_t> times;
  for (ContainerId cid : orch_.task(*task).containers) {
    times.insert(orch_.container(cid).running_at.raw_nanos());
  }
  EXPECT_GT(times.size(), 1u);
}

TEST_F(OrchestratorTest, PlacementFilterSkipsHosts) {
  // Blacklist-style policy: hosts 0-2 are off limits.
  orch_.set_placement_filter(
      [](HostId host) { return host.value() > 2; });
  const auto task = orch_.submit_task(request(4));
  ASSERT_TRUE(task.has_value());
  for (ContainerId cid : orch_.task(*task).containers) {
    EXPECT_GT(orch_.container(cid).host.value(), 2u);
  }
  // The filter reduces effective capacity: 13 usable hosts < 14 containers.
  EXPECT_FALSE(orch_.submit_task(request(14)).has_value());
}

TEST_F(OrchestratorTest, PlacementFilterCanBeLifted) {
  orch_.set_placement_filter([](HostId) { return false; });
  EXPECT_FALSE(orch_.submit_task(request(1)).has_value());
  orch_.set_placement_filter(nullptr);
  EXPECT_TRUE(orch_.submit_task(request(1)).has_value());
}

TEST_F(OrchestratorTest, RestartDeliversStoppedThenChurnThenRunning) {
  const auto task = orch_.submit_task(request(2));
  events_.run_until(SimTime::minutes(15));
  const ContainerId victim = orch_.task(*task).containers[0];

  // Event order contract: stopped -> churn(kRestart), both synchronous
  // inside restart_container; running only after the startup delay.
  std::vector<std::string> order;
  orch_.on_container_stopped(
      [&](const ContainerInfo&) { order.push_back("stopped"); });
  orch_.on_container_churn(
      [&](const ContainerInfo& ci, Orchestrator::ChurnReason r) {
        EXPECT_EQ(r, Orchestrator::ChurnReason::kRestart);
        EXPECT_EQ(ci.id, victim);
        EXPECT_NE(ci.state, ContainerState::kRunning);
        order.push_back("churn");
      });
  orch_.on_container_running(
      [&](const ContainerInfo&) { order.push_back("running"); });

  orch_.restart_container(victim);
  EXPECT_EQ(order, (std::vector<std::string>{"stopped", "churn"}));
  EXPECT_EQ(orch_.container(victim).state, ContainerState::kStarting);
  // The dying network stack is already detached when churn fires.
  for (const Endpoint& ep : orch_.container(victim).endpoints()) {
    EXPECT_FALSE(overlay_.attached(ep));
  }
  events_.run_until(events_.now() + SimTime::minutes(12));
  EXPECT_EQ(order,
            (std::vector<std::string>{"stopped", "churn", "running"}));
  EXPECT_EQ(orch_.container(victim).state, ContainerState::kRunning);
  for (const Endpoint& ep : orch_.container(victim).endpoints()) {
    EXPECT_TRUE(overlay_.attached(ep));
  }
}

TEST_F(OrchestratorTest, RestartIgnoresNonRunningContainers) {
  const auto task = orch_.submit_task(request(1));
  const ContainerId victim = orch_.task(*task).containers[0];
  int stopped = 0;
  orch_.on_container_stopped([&](const ContainerInfo&) { ++stopped; });
  orch_.restart_container(victim);  // still Starting: no-op
  EXPECT_EQ(stopped, 0);
  events_.run_until(SimTime::minutes(15));
  orch_.crash_container(victim);
  orch_.restart_container(victim);  // Dead: no-op
  EXPECT_EQ(orch_.container(victim).state, ContainerState::kDead);
}

TEST_F(OrchestratorTest, MigrationRebindsRnicsBeforeChurnCallback) {
  const auto task = orch_.submit_task(request(2));
  events_.run_until(SimTime::minutes(15));
  const ContainerId victim = orch_.task(*task).containers[0];
  const HostId old_host = orch_.container(victim).host;
  const auto old_rnics = orch_.container(victim).rnics;

  bool churned = false;
  orch_.on_container_churn(
      [&](const ContainerInfo& ci, Orchestrator::ChurnReason r) {
        EXPECT_EQ(r, Orchestrator::ChurnReason::kMigration);
        // The contract: subscribers rebuilding probe plans inside this
        // callback must already see the post-migration placement.
        EXPECT_NE(ci.host, old_host);
        EXPECT_NE(ci.rnics, old_rnics);
        churned = true;
      });
  ASSERT_TRUE(orch_.migrate_container(victim));
  EXPECT_TRUE(churned);
  events_.run_until(events_.now() + SimTime::minutes(12));
  EXPECT_EQ(orch_.container(victim).state, ContainerState::kRunning);
  for (const Endpoint& ep : orch_.container(victim).endpoints()) {
    EXPECT_TRUE(overlay_.attached(ep));
  }
  // Old host's capacity was released.
  EXPECT_EQ(orch_.free_gpus(old_host), 8u);
}

TEST_F(OrchestratorTest, MigrationHonorsPlacementFilter) {
  const auto task = orch_.submit_task(request(1));
  events_.run_until(SimTime::minutes(15));
  const ContainerId victim = orch_.task(*task).containers[0];
  const HostId home = orch_.container(victim).host;
  // Only the current host is schedulable: migration re-places in situ.
  orch_.set_placement_filter([home](HostId h) { return h == home; });
  ASSERT_TRUE(orch_.migrate_container(victim));
  EXPECT_EQ(orch_.container(victim).host, home);
  events_.run_until(events_.now() + SimTime::minutes(12));
  // No schedulable host at all: refused, container untouched.
  orch_.set_placement_filter([](HostId) { return false; });
  EXPECT_FALSE(orch_.migrate_container(victim));
  EXPECT_EQ(orch_.container(victim).state, ContainerState::kRunning);
}

TEST_F(OrchestratorTest, CrashChurnArrivesAfterNotifyLag) {
  const auto task = orch_.submit_task(request(2));
  events_.run_until(SimTime::minutes(15));
  const ContainerId victim = orch_.task(*task).containers[0];
  std::vector<std::string> order;
  orch_.on_container_stopped(
      [&](const ContainerInfo&) { order.push_back("stopped"); });
  orch_.on_container_churn(
      [&](const ContainerInfo&, Orchestrator::ChurnReason r) {
        EXPECT_EQ(r, Orchestrator::ChurnReason::kCrash);
        order.push_back("churn");
      });
  orch_.crash_container(victim);
  EXPECT_TRUE(order.empty());  // control plane has not heard yet
  events_.run_until(events_.now() + Orchestrator::kCrashNotifyLag +
                    SimTime::seconds(1));
  EXPECT_EQ(order, (std::vector<std::string>{"stopped", "churn"}));
}

}  // namespace
}  // namespace skh::cluster
