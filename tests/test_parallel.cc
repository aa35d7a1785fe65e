/**
 * @file
 * Tests of the sharded parallel discrete-event engine and the fat-tree
 * topology model. The load-bearing property is determinism: the same
 * scenario must produce a byte-identical RunResult fingerprint at any
 * --sim-threads count, for every application, with and without span
 * tracing attached. Topology tests pin the contention model: incast
 * queues at the victim's downlink, oversubscription scales it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "am/cluster.hh"
#include "apps/app.hh"
#include "harness/runner.hh"
#include "net/topology.hh"
#include "obs/tracer.hh"
#include "sim/parallel.hh"
#include "splitc/splitc.hh"
#include "stats/trace.hh"

namespace nowcluster {
namespace {

RunConfig
smallConfig(int nprocs, double scale, int sim_threads)
{
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    c.knobs.simThreads = sim_threads;
    return c;
}

// Determinism across thread counts, for every registered application.
// 1, 2 and 4 threads all drive the same shard layout, so the merge
// order, the per-shard fault PRNGs and the event sequence numbers --
// and therefore the fingerprint -- must not move by a byte.
TEST(ParallelDes, FingerprintIdenticalAcrossThreadCountsAllApps)
{
    for (const auto &key : appKeys()) {
        RunConfig c = smallConfig(8, 0.05, 1);
        c.validate = false;
        std::string base = fingerprint(runApp(key, c));
        for (int threads : {2, 4}) {
            c.knobs.simThreads = threads;
            EXPECT_EQ(fingerprint(runApp(key, c)), base)
                << key << " diverges at --sim-threads " << threads;
        }
    }
}

// The two paper workloads the sweep scripts lean on, with output
// validation armed: the sharded engine must not just be self-
// consistent, it must still compute the right answer.
TEST(ParallelDes, RadixAndEm3dValidateAtEveryThreadCount)
{
    for (const auto &key : {std::string("radix"),
                            std::string("em3d-write")}) {
        std::string base;
        for (int threads : {1, 2, 4}) {
            RunConfig c = smallConfig(8, 0.05, threads);
            c.validate = true;
            RunResult r = runApp(key, c);
            EXPECT_TRUE(r.ok) << key << " at " << threads;
            EXPECT_TRUE(r.validated) << key << " at " << threads;
            if (base.empty())
                base = fingerprint(r);
            else
                EXPECT_EQ(fingerprint(r), base) << key;
        }
    }
}

// Span tracing must be an observer, not a participant: attaching a
// tracer cannot perturb the result, and the traced run is itself
// deterministic across thread counts (same span count, same
// fingerprint).
TEST(ParallelDes, TracingDoesNotPerturbShardedResults)
{
    RunConfig plain = smallConfig(8, 0.05, 2);
    plain.validate = false;
    std::string base = fingerprint(runApp("radix", plain));

    std::size_t spans = 0;
    for (int threads : {1, 2, 4}) {
        SpanTracer tracer;
        RunConfig c = smallConfig(8, 0.05, threads);
        c.validate = false;
        c.obs = &tracer;
        EXPECT_EQ(fingerprint(runApp("radix", c)), base)
            << "tracing perturbed the run at " << threads;
        EXPECT_FALSE(tracer.spans().empty());
        if (spans == 0)
            spans = tracer.spans().size();
        else
            EXPECT_EQ(tracer.spans().size(), spans)
                << "span count moved at " << threads;
    }
}

// Explicit shard-count override: the layout is part of the scenario,
// so different --sim-shards values may legitimately differ from each
// other, but each must be thread-count independent.
TEST(ParallelDes, ExplicitShardCountIsThreadIndependent)
{
    RunConfig c = smallConfig(8, 0.05, 1);
    c.validate = false;
    c.knobs.simShards = 3;
    RunResult one = runApp("radix", c);
    EXPECT_EQ(one.simShards, 3);
    c.knobs.simThreads = 4;
    EXPECT_EQ(fingerprint(runApp("radix", c)), fingerprint(one));
}

// 1024 nodes on an oversubscribed fat-tree: the scenario the topology
// work exists for. Must complete, shard, and stay deterministic.
// em3d's constant node degree keeps this O(P) in messages, so the
// smoke stays fast; the all-to-all apps get their 1024-node runs in
// scripts/run_all.sh and bench_perf.
TEST(ParallelDes, ThousandNodeFatTreeSmoke)
{
    RunConfig c = smallConfig(1024, 0.01, 4);
    c.validate = false;
    c.knobs.topo = 1;
    c.knobs.topoOversub = 4;
    RunResult a = runApp("em3d-write", c);
    EXPECT_TRUE(a.ok);
    EXPECT_GT(a.simShards, 1);
    EXPECT_GT(a.simEvents, 0u);
    c.knobs.simThreads = 2;
    RunResult b = runApp("em3d-write", c);
    EXPECT_EQ(fingerprint(b), fingerprint(a));
}

// Incast at the AM layer: 31 off-leaf senders all target node 0. The
// victim leaf's downlink must absorb the contention -- its queueing
// dominates every other leaf's.
TEST(ParallelTopology, IncastQueuesAtVictimDownlink)
{
    LogGPParams p = MachineConfig::berkeleyNow().params;
    p.topo = true;
    p.topoHostsPerLeaf = 8;
    p.topoOversub = 4.0;
    Cluster c(32, p);
    std::atomic<int> arrived{0};
    int sink = c.registerHandler(
        [&](AmNode &, Packet &) { arrived.fetch_add(1); });
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            n.pollUntil([&] { return arrived.load() >= 24; });
        } else if (n.id() >= 8) { // Everyone outside leaf 0.
            for (int i = 0; i < 4; ++i)
                n.oneWay(0, sink);
        }
    }));
    const FatTreeTopology *topo = c.topology();
    ASSERT_NE(topo, nullptr);
    Tick victim = topo->downlinkQueueing(0);
    EXPECT_GT(victim, 0);
    for (int leaf = 1; leaf < topo->nLeaves(); ++leaf)
        EXPECT_GT(victim, topo->downlinkQueueing(leaf));
}

// Oversubscription ordering, straight on the link model: the same
// offered load queues strictly longer on a 4:1 fabric than on 1:1,
// and serialization itself stretches by the ratio.
TEST(ParallelTopology, OversubscriptionScalesContention)
{
    FatTreeTopology::Config base;
    base.hostsPerLeaf = 8;
    base.oversub = 1.0;
    FatTreeTopology flat(64, base);
    base.oversub = 4.0;
    FatTreeTopology tight(64, base);

    EXPECT_EQ(tight.serializationTime(4096),
              4 * flat.serializationTime(4096));

    // Ten back-to-back packets offered at the same instant.
    for (int i = 0; i < 10; ++i) {
        flat.uplink(0, 4096, 0);
        tight.uplink(0, 4096, 0);
    }
    EXPECT_GT(tight.uplinkQueueing(0), flat.uplinkQueueing(0));
    EXPECT_EQ(tight.uplinkQueueing(0), 4 * flat.uplinkQueueing(0));
}

// Loss without recovery deadlocks the app; the sharded engine must
// drain exactly like the classic one -- wake everyone at one global
// instant (shard clocks disagree by up to a window; per-shard wake
// times would let a lagging shard send into a leading shard's past),
// report the stall, and return ok=false rather than crash.
TEST(ParallelDes, LossyDeadlockDrainsCleanlyWhenSharded)
{
    for (int threads : {1, 4}) {
        RunConfig c = smallConfig(8, 0.05, threads);
        c.validate = false;
        c.knobs.dropRate = 0.02;
        c.knobs.reliable = 0;
        RunResult r = runApp("radix", c);
        EXPECT_FALSE(r.ok) << "lossy run without recovery completed?";
    }
}

// The engine knob surface: sim-threads 0 must select the classic
// single-heap engine (one shard), >= 1 the sharded one.
TEST(ParallelDes, ThreadKnobSelectsEngine)
{
    RunConfig c = smallConfig(8, 0.05, 0);
    c.validate = false;
    EXPECT_EQ(runApp("sample", c).simShards, 1);
    c.knobs.simThreads = 1;
    EXPECT_GT(runApp("sample", c).simShards, 1);
}

// One-off delay injection is scenario state: the stall window lands on
// the same virtual instant regardless of how many host threads drive
// the shards, so the fingerprint must not move by a byte.
TEST(ParallelDes, DelayInjectionFingerprintAcrossThreadCounts)
{
    RunConfig c = smallConfig(8, 0.05, 1);
    c.knobs.delayNode = 4;
    c.knobs.delayAtUs = 500;
    c.knobs.delayUs = 2000;
    for (const char *key : {"radix", "em3d-read"}) {
        std::string base = fingerprint(runApp(key, c));
        for (int threads : {2, 4}) {
            RunConfig cc = c;
            cc.knobs.simThreads = threads;
            EXPECT_EQ(fingerprint(runApp(key, cc)), base)
                << key << " at " << threads << " threads";
        }
    }
}

// The wavefront workflow traces both the baseline and the perturbed
// run; the tracer must observe the stall without perturbing it.
TEST(ParallelDes, DelayInjectionUnperturbedByTracing)
{
    RunConfig plain = smallConfig(8, 0.05, 2);
    plain.knobs.delayNode = 4;
    plain.knobs.delayAtUs = 500;
    plain.knobs.delayUs = 2000;
    std::string base = fingerprint(runApp("radix", plain));

    for (int threads : {1, 2, 4}) {
        SpanTracer tracer;
        RunConfig c = plain;
        c.knobs.simThreads = threads;
        c.obs = &tracer;
        EXPECT_EQ(fingerprint(runApp("radix", c)), base)
            << "traced delayed run diverged at " << threads
            << " threads";
        EXPECT_FALSE(tracer.spans().empty());
    }
}

// The message trace is derived from the merged span tracer, so at one
// shard layout it is the same at any thread count, down to the last
// bit of the burstiness statistics.
TEST(ParallelDes, MessageTraceIdenticalAcrossThreadCounts)
{
    MessageTrace base;
    for (int threads : {1, 2, 4}) {
        SpanTracer tracer;
        RunConfig c = smallConfig(8, 0.05, threads);
        c.validate = false;
        c.knobs.simShards = 4;
        c.obs = &tracer;
        ASSERT_TRUE(runApp("radix", c).ok);
        const MessageTrace trace = messageTraceFromObs(tracer);
        ASSERT_GT(trace.size(), 0u);
        if (threads == 1) {
            base = trace;
            continue;
        }
        EXPECT_EQ(trace.size(), base.size()) << threads;
        EXPECT_EQ(trace.burstFraction(usec(11.6)),
                  base.burstFraction(usec(11.6)))
            << threads;
        EXPECT_EQ(trace.meanFlightUs(), base.meanFlightUs()) << threads;
    }
}

// An exception from one shard's callback stops the engine and leaves
// run() on the calling thread, whatever the thread count; every
// worker still reaches both barriers, so nothing deadlocks or aborts.
TEST(ParallelEngine, ShardExceptionRethrowsFromRun)
{
    for (int threads : {1, 2, 4}) {
        ParallelEngine engine(4, threads);
        std::atomic<int> plans{0};
        ParallelEngine::Callbacks cb;
        cb.merge = [](int) {};
        cb.exec = [](int s, Tick end) {
            if (s == 1 && end == 30)
                throw std::runtime_error("shard 1 failed");
        };
        cb.plan = [&] {
            int k = ++plans;
            return k > 10 ? kTickNever : Tick(10) * k;
        };
        EXPECT_THROW(engine.run(cb), std::runtime_error) << threads;
        // Windows 10, 20, 30 were planned; the error stopped the
        // engine before a fourth.
        EXPECT_EQ(plans.load(), 3) << threads;
    }
}

// The same through a whole cluster: a node program that throws on a
// non-zero shard fails the Split-C run with that exception instead of
// ending the process.
TEST(ParallelDes, NodeExceptionFailsTheShardedRun)
{
    for (int threads : {2, 4}) {
        LogGPParams params = MachineConfig::berkeleyNow().params;
        params.simThreads = threads;
        SplitCRuntime rt(8, params);
        ASSERT_GT(rt.cluster().nshards(), 1);
        auto body = [](SplitC &sc) {
            sc.barrier();
            if (sc.myProc() == 5)
                throw std::runtime_error("node 5 failed");
            sc.barrier();
        };
        EXPECT_THROW(rt.run(body), std::runtime_error) << threads;
    }
}

// A delayed run must cost wall-clock-visible virtual time: runtime
// strictly above the undelayed run, by at most the stall duration.
TEST(ParallelDes, DelayInjectionStretchesRuntime)
{
    RunConfig c = smallConfig(8, 0.05, 2);
    RunResult base = runApp("radix", c);
    ASSERT_TRUE(base.ok);

    RunConfig d = c;
    d.knobs.delayNode = 4;
    d.knobs.delayAtUs = 500;
    d.knobs.delayUs = 4000;
    RunResult delayed = runApp("radix", d);
    ASSERT_TRUE(delayed.ok);
    EXPECT_GT(delayed.runtime, base.runtime);
    EXPECT_LE(delayed.runtime, base.runtime + usec(4000));
}

} // namespace
} // namespace nowcluster
