#include "core/blacklist.h"

#include <gtest/gtest.h>

namespace skh::core {
namespace {

TEST(Blacklist, AddContainsClear) {
  Blacklist bl;
  const sim::ComponentRef rnic{sim::ComponentKind::kRnic, 42};
  EXPECT_FALSE(bl.contains(rnic));
  bl.add(rnic, SimTime::seconds(10));
  EXPECT_TRUE(bl.contains(rnic));
  EXPECT_EQ(bl.size(), 1u);
  bl.clear(rnic, SimTime::seconds(20));
  EXPECT_FALSE(bl.contains(rnic));
  EXPECT_EQ(bl.size(), 0u);
}

TEST(Blacklist, AddIsIdempotent) {
  Blacklist bl;
  const sim::ComponentRef host{sim::ComponentKind::kHost, 3};
  bl.add(host, SimTime::seconds(1));
  bl.add(host, SimTime::seconds(2));
  EXPECT_EQ(bl.size(), 1u);
}

TEST(Blacklist, HostSchedulabilityByHost) {
  Blacklist bl;
  bl.add({sim::ComponentKind::kHost, 5}, SimTime{});
  EXPECT_FALSE(bl.host_schedulable(HostId{5}, 8));
  EXPECT_TRUE(bl.host_schedulable(HostId{6}, 8));
}

TEST(Blacklist, HostSchedulabilityByVSwitch) {
  Blacklist bl;
  bl.add({sim::ComponentKind::kVSwitch, 2}, SimTime{});
  EXPECT_FALSE(bl.host_schedulable(HostId{2}, 8));
}

TEST(Blacklist, HostSchedulabilityByRnic) {
  Blacklist bl;
  // RNIC 21 belongs to host 2 on 8-rail hosts (2*8+5).
  bl.add({sim::ComponentKind::kRnic, 21}, SimTime{});
  EXPECT_FALSE(bl.host_schedulable(HostId{2}, 8));
  EXPECT_TRUE(bl.host_schedulable(HostId{1}, 8));
  EXPECT_TRUE(bl.host_schedulable(HostId{3}, 8));
}

TEST(Blacklist, PhysicalComponentsDoNotBlockHosts) {
  // A blacklisted switch/link takes traffic reroutes, not host capacity.
  Blacklist bl;
  bl.add({sim::ComponentKind::kPhysicalSwitch, 0}, SimTime{});
  bl.add({sim::ComponentKind::kPhysicalLink, 0}, SimTime{});
  EXPECT_TRUE(bl.host_schedulable(HostId{0}, 8));
}

TEST(Blacklist, EntriesEnumerates) {
  Blacklist bl;
  bl.add({sim::ComponentKind::kRnic, 1}, SimTime{});
  bl.add({sim::ComponentKind::kHost, 2}, SimTime{});
  EXPECT_EQ(bl.entries().size(), 2u);
}

TEST(Blacklist, AddReportsOutcome) {
  Blacklist bl;
  const sim::ComponentRef rnic{sim::ComponentKind::kRnic, 7};
  EXPECT_EQ(bl.add(rnic, SimTime::minutes(1)), BanOutcome::kNewBan);
  EXPECT_EQ(bl.add(rnic, SimTime::minutes(2)), BanOutcome::kAlreadyBanned);
  EXPECT_EQ(bl.size(), 1u);
  EXPECT_EQ(bl.flap_rebans(), 0u);
}

TEST(Blacklist, RebanWithinHysteresisIsFlapDampened) {
  // A flapping port: banned, repaired, re-banned 10 s later. The second
  // ban must stick (component banned) but be recognized as the same
  // incident (alert dampened), with the default 30 s hysteresis.
  Blacklist bl;
  const sim::ComponentRef port{sim::ComponentKind::kPhysicalLink, 9};
  EXPECT_EQ(bl.add(port, SimTime::minutes(5)), BanOutcome::kNewBan);
  bl.clear(port, SimTime::minutes(6));
  EXPECT_FALSE(bl.contains(port));
  EXPECT_EQ(bl.add(port, SimTime::minutes(6) + SimTime::seconds(10)),
            BanOutcome::kFlapReban);
  EXPECT_TRUE(bl.contains(port));
  EXPECT_EQ(bl.size(), 1u);
  EXPECT_EQ(bl.flap_rebans(), 1u);
}

TEST(Blacklist, RebanAfterHysteresisIsAFreshAlert) {
  Blacklist bl;
  const sim::ComponentRef port{sim::ComponentKind::kPhysicalLink, 9};
  bl.add(port, SimTime::minutes(5));
  bl.clear(port, SimTime::minutes(6));
  EXPECT_EQ(bl.add(port, SimTime::minutes(6) + SimTime::seconds(31)),
            BanOutcome::kNewBan);
  EXPECT_EQ(bl.flap_rebans(), 0u);
}

TEST(Blacklist, HysteresisWindowIsConfigurable) {
  Blacklist bl;
  bl.set_flap_hysteresis(SimTime::minutes(10));
  const sim::ComponentRef sw{sim::ComponentKind::kPhysicalSwitch, 3};
  bl.add(sw, SimTime::minutes(1));
  bl.clear(sw, SimTime::minutes(2));
  EXPECT_EQ(bl.add(sw, SimTime::minutes(9)), BanOutcome::kFlapReban);
  bl.clear(sw, SimTime::minutes(10));
  EXPECT_EQ(bl.add(sw, SimTime::minutes(25)), BanOutcome::kNewBan);
  EXPECT_EQ(bl.flap_rebans(), 1u);
}

TEST(Blacklist, ClearedEntriesAreInvisibleTombstones) {
  Blacklist bl;
  const sim::ComponentRef host{sim::ComponentKind::kHost, 4};
  bl.add(host, SimTime::minutes(1));
  bl.clear(host, SimTime::minutes(2));
  EXPECT_FALSE(bl.contains(host));
  EXPECT_EQ(bl.size(), 0u);
  EXPECT_TRUE(bl.entries().empty());
  EXPECT_TRUE(bl.host_schedulable(HostId{4}, 8));
  // Clearing twice is a no-op and must not corrupt the active count.
  bl.clear(host, SimTime::minutes(3));
  EXPECT_EQ(bl.size(), 0u);
}

}  // namespace
}  // namespace skh::core
