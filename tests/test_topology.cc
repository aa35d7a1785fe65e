/**
 * @file
 * Tests for the switch fabric, as the fat-tree models it: leaf mapping,
 * the queueing algebra of one uplink or downlink, the idle-fabric-is-
 * free property, and end-to-end behavior through the cluster.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "am/cluster.hh"
#include "net/topology.hh"

namespace nowcluster {
namespace {

FatTreeTopology::Config
cfg(int hosts = 4, double mbps = 160.0)
{
    FatTreeTopology::Config c;
    c.hostsPerLeaf = hosts;
    c.linkMBps = mbps;
    return c;
}

/** The baseline machine on an unoversubscribed fat-tree, hop 0. */
LogGPParams
fatTree(int hosts = 4, double mbps = 160.0)
{
    auto p = MachineConfig::berkeleyNow().params;
    p.topo = true;
    p.topoHostsPerLeaf = hosts;
    p.topoLinkMBps = mbps;
    p.topoOversub = 1.0;
    p.topoHopLatency = 0;
    return p;
}

/**
 * Run `bursts` (each {src, dst}: 16 back-to-back one-ways) on 8 nodes
 * and return when the last packet arrived; `queued` gets the total
 * uplink + downlink queueing when the cluster has a topology.
 */
Tick
lastArrival(const LogGPParams &p,
            const std::vector<std::pair<NodeId, NodeId>> &bursts,
            Tick *queued = nullptr)
{
    constexpr int kBurst = 16;
    Cluster c(8, p);
    std::vector<int> seen(8, 0), want(8, 0);
    for (const auto &b : bursts)
        want[b.second] += kBurst;
    Tick last = 0;
    int h = c.registerHandler([&](AmNode &self, Packet &) {
        ++seen[self.id()];
        last = std::max(last, self.now());
    });
    c.run([&](AmNode &n) {
        for (const auto &b : bursts) {
            if (b.first == n.id())
                for (int i = 0; i < kBurst; ++i)
                    n.oneWay(b.second, h);
        }
        n.pollUntil([&] { return seen[n.id()] == want[n.id()]; });
    });
    if (queued && c.topology())
        *queued = c.topology()->totalUplinkQueueing() +
                  c.topology()->totalDownlinkQueueing();
    return last;
}

TEST(Fabric, TopologyMapping)
{
    FatTreeTopology t(32, cfg(4));
    EXPECT_EQ(t.nLeaves(), 8);
    EXPECT_EQ(t.leafOf(0), 0);
    EXPECT_EQ(t.leafOf(3), 0);
    EXPECT_EQ(t.leafOf(4), 1);
    EXPECT_EQ(t.leafOf(31), 7);
    EXPECT_TRUE(t.sameLeaf(0, 3));
    EXPECT_FALSE(t.sameLeaf(3, 4));
    // A partial last leaf still counts.
    EXPECT_EQ(FatTreeTopology(30, cfg(4)).nLeaves(), 8);
}

TEST(Fabric, SameSwitchTrafficIsFree)
{
    // Same-leaf packets cross only the leaf crossbar: even through
    // 1 MB/s links a burst claims no link and arrives exactly as on
    // the constant-latency network.
    Tick queued = -1;
    const Tick on_tree = lastArrival(fatTree(4, 1.0), {{0, 1}}, &queued);
    EXPECT_EQ(queued, 0);
    EXPECT_EQ(on_tree,
              lastArrival(MachineConfig::berkeleyNow().params, {{0, 1}}));
}

TEST(Fabric, SameSwitchLeavesQueueingUntouched)
{
    // Same-leaf packets must not touch the shared-link state even when
    // the uplinks are already congested by cross-leaf traffic.
    Tick cross_only = 0, mixed = 0;
    lastArrival(fatTree(4, 1.0), {{0, 4}}, &cross_only);
    lastArrival(fatTree(4, 1.0), {{0, 4}, {1, 2}}, &mixed);
    EXPECT_GT(cross_only, 0);
    EXPECT_EQ(mixed, cross_only);
}

TEST(Fabric, TinyPacketsClampToMinWireSize)
{
    // Anything below minPacketBytes still occupies the wire for a
    // 28-byte packet's serialization time: a back-to-back burst of
    // 1-byte packets queues exactly like a burst of 28-byte packets.
    FatTreeTopology tiny(8, cfg(4));
    FatTreeTopology wire(8, cfg(4));
    EXPECT_EQ(tiny.serializationTime(1), wire.serializationTime(28));
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(tiny.uplink(0, 1, 0), wire.uplink(0, 28, 0));
        EXPECT_EQ(tiny.downlink(1, 0, 0), wire.downlink(1, 28, 0));
    }
    EXPECT_GT(tiny.totalUplinkQueueing(), 0);
    EXPECT_EQ(tiny.totalUplinkQueueing(), wire.totalUplinkQueueing());
    EXPECT_EQ(tiny.totalDownlinkQueueing(), wire.totalDownlinkQueueing());
}

TEST(Fabric, QueueingMonotoneAcrossBurst)
{
    // The queueing totals are nondecreasing running sums, and every
    // packet of a same-instant burst behind the first queues strictly
    // longer.
    FatTreeTopology t(8, cfg(4));
    Tick prev_total = 0;
    Tick prev_delay = -1;
    for (int i = 0; i < 32; ++i) {
        Tick delay = t.uplink(0, 4096, 0);
        EXPECT_GT(delay, prev_delay);
        EXPECT_GE(t.totalUplinkQueueing(), prev_total);
        prev_total = t.totalUplinkQueueing();
        prev_delay = delay;
    }
    EXPECT_EQ(prev_total, t.uplinkQueueing(0));
}

TEST(Fabric, IdleCrossSwitchPathAddsNothing)
{
    // Well-spaced packets see no queueing on either link: the model
    // only charges contention, never the base traversal.
    FatTreeTopology t(8, cfg(4));
    for (Tick at : {usec(100), usec(200)}) {
        EXPECT_EQ(t.uplink(0, 28, at), 0);
        EXPECT_EQ(t.downlink(1, 28, at + usec(1)), 0);
    }
    EXPECT_EQ(t.totalUplinkQueueing() + t.totalDownlinkQueueing(), 0);
}

TEST(Fabric, BackToBackPacketsQueueOnTheUplink)
{
    FatTreeTopology t(8, cfg(4, 1.0)); // 1 MB/s: 28 us per short packet.
    EXPECT_EQ(t.serializationTime(28), usec(28.0));
    // Hosts 0 and 1 share leaf 0's uplink: the second packet waits a
    // full serialization behind the first.
    EXPECT_EQ(t.uplink(0, 28, 0), 0);
    EXPECT_EQ(t.uplink(0, 28, 0), usec(28.0));
    EXPECT_EQ(t.uplinkQueueing(0), usec(28.0));
    EXPECT_EQ(t.uplinkQueueing(1), 0);
}

TEST(Fabric, DownlinkIsSharedTooAcrossSourceSwitches)
{
    FatTreeTopology t(12, cfg(4, 1.0));
    // Sources on different leaves: neither uplink queues...
    EXPECT_EQ(t.uplink(0, 28, 0), 0);
    EXPECT_EQ(t.uplink(1, 28, 0), 0);
    // ...but both packets reach leaf 2 together, and the second is
    // queued behind the first on leaf 2's downlink.
    const Tick at_leaf = t.serializationTime(28);
    EXPECT_EQ(t.downlink(2, 28, at_leaf), 0);
    EXPECT_EQ(t.downlink(2, 28, at_leaf), usec(28.0));
    EXPECT_EQ(t.downlinkQueueing(2), usec(28.0));
}

TEST(Fabric, ClusterWithIdleFabricMatchesBaselineExactly)
{
    auto run_rtt = [](const LogGPParams &p) {
        Cluster c(8, p);
        bool got = false, stop = false;
        int done = c.registerHandler([&](AmNode &, Packet &) {
            got = true;
        });
        int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
            self.reply(pkt, done);
        });
        Tick rtt = 0;
        c.run([&](AmNode &n) {
            if (n.id() == 0) {
                Tick t0 = n.now();
                n.request(7, echo); // Cross-leaf with 4 hosts per leaf.
                n.pollUntil([&] { return got; });
                rtt = n.now() - t0;
                stop = true;
                n.oneWay(7, done);
            } else if (n.id() == 7) {
                n.pollUntil([&] { return stop; });
            }
        });
        return rtt;
    };
    EXPECT_EQ(run_rtt(MachineConfig::berkeleyNow().params),
              run_rtt(fatTree()));
}

TEST(Fabric, SlowLinksStretchBursts)
{
    // A burst of cross-leaf one-ways through 1 MB/s links arrives much
    // later than through 160 MB/s links.
    EXPECT_GT(lastArrival(fatTree(4, 1.0), {{0, 4}}),
              lastArrival(fatTree(4, 160.0), {{0, 4}}) + usec(100));
}

} // namespace
} // namespace nowcluster
