/**
 * @file
 * Tests for the LogP-optimal broadcast schedule and the collective
 * behaviours the tuned library promises beyond bit-exact results:
 * every broadcast from every root, the data collectives on
 * power-of-two and odd processor counts, identical barrier semantics
 * across algorithms, and the measured performance claims (the greedy
 * schedule wins at high latency, trees beat the flat fan-out at low
 * latency, dissemination beats the flat barrier at scale).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "coll/cost.hh"
#include "coll/tuned/harness.hh"
#include "coll/tuned/registry.hh"
#include "coll/tuned/tuned.hh"

namespace nowcluster {
namespace coll {
namespace {

LogGPParams
baseline()
{
    return MachineConfig::berkeleyNow().params;
}

// ---------------------------------------------------------------------
// Schedule construction.
// ---------------------------------------------------------------------

TEST(BcastSchedule, CoversEveryRankExactlyOnce)
{
    auto steps = buildOptimalBroadcast(17, usec(5.8), usec(10.8));
    EXPECT_EQ(steps.size(), 16u);
    std::vector<bool> reached(17, false);
    reached[0] = true;
    for (const auto &s : steps) {
        EXPECT_TRUE(reached[s.sender]) << "sender not yet reached";
        EXPECT_FALSE(reached[s.receiver]) << "double delivery";
        reached[s.receiver] = true;
    }
    for (bool r : reached)
        EXPECT_TRUE(r);
}

TEST(BcastSchedule, TrivialSizes)
{
    EXPECT_TRUE(buildOptimalBroadcast(1, usec(1), usec(1)).empty());
    auto two = buildOptimalBroadcast(2, usec(1), usec(1));
    ASSERT_EQ(two.size(), 1u);
    EXPECT_EQ(two[0].sender, 0);
    EXPECT_EQ(two[0].receiver, 1);
    EXPECT_EQ(two[0].issueAt, 0);
}

TEST(BcastSchedule, PredictedCompletionBeatsBinomialWhenLatencyHigh)
{
    // With L >> g a fixed binomial tree wastes the root's send slots;
    // the greedy schedule keeps every holder transmitting. Binomial
    // needs ceil(log2 P) full arrivals for its last leaf.
    const int p = 32;
    Tick send = usec(5.8);
    Tick arrive = usec(5.8 + 105 + 5.8); // o + L + o with L=105.
    auto steps = buildOptimalBroadcast(p, send, arrive);
    Tick optimal = 0;
    for (const auto &s : steps)
        optimal = std::max(optimal, s.issueAt + arrive);
    EXPECT_LE(optimal, 5 * arrive);
}

TEST(BcastSchedule, MonotoneIssueTimesPerSender)
{
    auto steps = buildOptimalBroadcast(32, usec(5.8), usec(10.8));
    std::map<NodeId, Tick> last;
    for (const auto &s : steps) {
        if (last.count(s.sender)) {
            EXPECT_GT(s.issueAt, last[s.sender]);
        }
        last[s.sender] = s.issueAt;
    }
}

// ---------------------------------------------------------------------
// Execution correctness.
// ---------------------------------------------------------------------

class CollEachP : public ::testing::TestWithParam<int>
{};

TEST_P(CollEachP, BroadcastAllAlgorithmsAllRoots)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        for (CollAlg alg : {CollAlg::BcastFlat, CollAlg::BcastBinomial,
                            CollAlg::BcastLogP}) {
            for (int root = 0; root < p; ++root) {
                Word v = sc.myProc() == root ? 4000 + root : 0;
                tc.broadcast(sc, &v, sizeof v, root, alg);
                ASSERT_EQ(v, static_cast<Word>(4000 + root))
                    << algName(alg);
            }
        }
    }));
}

TEST_P(CollEachP, AllGatherBothAlgorithms)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t n = 3;
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        for (CollAlg alg : {CollAlg::AgRing, CollAlg::AgRecDouble}) {
            if (!algValid(alg, p, n * sizeof(Word)))
                continue; // Recursive doubling: power-of-two P only.
            std::vector<Word> mine(n), out(n * p, 0);
            for (std::size_t i = 0; i < n; ++i)
                mine[i] = static_cast<Word>(sc.myProc()) * 100 + i;
            tc.allGather(sc, mine.data(), n * sizeof(Word), out.data(),
                         alg);
            for (int q = 0; q < p; ++q) {
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(out[static_cast<std::size_t>(q) * n + i],
                              static_cast<Word>(q) * 100 + i);
            }
        }
    }));
}

TEST_P(CollEachP, AllToAllTransposes)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t n = 2;
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        int me = sc.myProc();
        std::vector<Word> send(n * p), recv(n * p, 0);
        for (int q = 0; q < p; ++q) {
            for (std::size_t i = 0; i < n; ++i)
                send[static_cast<std::size_t>(q) * n + i] =
                    static_cast<Word>(me * 1000 + q * 10 + i);
        }
        tc.allToAll(sc, send.data(), n * sizeof(Word), recv.data(),
                    CollAlg::A2aPairwise);
        for (int q = 0; q < p; ++q) {
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(recv[static_cast<std::size_t>(q) * n + i],
                          static_cast<Word>(q * 1000 + me * 10 + i));
        }
    }));
}

TEST_P(CollEachP, BarrierAlgorithmsHaveIdenticalSemantics)
{
    const int p = GetParam();
    // No processor may return from the barrier before every processor
    // has entered it -- checked over several epochs, for every
    // registered algorithm and the auto-tuned entry alike (identical
    // semantics is the contract that lets the tuner switch freely).
    std::vector<std::optional<CollAlg>> algs(1); // nullopt = auto.
    for (CollAlg alg : algsFor(Coll::Barrier))
        algs.push_back(alg);
    for (const auto &alg : algs) {
        SplitCRuntime rt(p, baseline());
        TunedCollectives tc(rt);
        std::vector<int> entered(p, 0);
        ASSERT_TRUE(rt.run([&](SplitC &sc) {
            const int me = sc.myProc();
            for (int round = 1; round <= 3; ++round) {
                entered[me] = round;
                if (alg)
                    tc.barrier(sc, *alg);
                else
                    tc.barrier(sc);
                for (int q = 0; q < p; ++q)
                    ASSERT_GE(entered[q], round)
                        << "proc " << me << " released before " << q
                        << " entered (round " << round << ")";
            }
        }));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollEachP,
                         ::testing::Values(1, 2, 5, 8, 16));

// ---------------------------------------------------------------------
// Degenerate sizes and cost-model-driven selection.
// ---------------------------------------------------------------------

TEST(CollEdge, TrivialScheduleSkipsParameterValidation)
{
    // A one-processor schedule needs no model, so degenerate
    // parameters must not trip the sign check.
    EXPECT_TRUE(buildOptimalBroadcast(1, 0, 0).empty());
    EXPECT_TRUE(buildOptimalBroadcast(0, -1, -1).empty());
    EXPECT_EQ(predictCollective(pointFromParams(baseline()),
                                Coll::Broadcast, CollAlg::BcastLogP, 1,
                                8),
              0);
}

TEST(CollEdge, SingleProcessorEntryPointsShortCircuit)
{
    SplitCRuntime rt(1, baseline());
    TunedCollectives tc(rt);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        Word v = 42;
        tc.broadcast(sc, &v, sizeof v, 0, CollAlg::BcastLogP);
        EXPECT_EQ(v, Word{42});
        const Word mine[4] = {7, 8, 9, 10};
        Word out[4] = {0, 0, 0, 0};
        tc.allGather(sc, mine, sizeof mine, out, CollAlg::AgRing);
        Word recv[4] = {0, 0, 0, 0};
        tc.allToAll(sc, mine, sizeof mine, recv, CollAlg::A2aPairwise);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(out[i], mine[i]);
            EXPECT_EQ(recv[i], mine[i]);
        }
        std::int64_t sum = 11;
        tc.allReduceAdd(sc, &sum, 1);
        EXPECT_EQ(sum, 11);
        tc.barrier(sc);
    }));
}

TEST(CollEdge, CostPointDrivesAutoBarrierSelection)
{
    // The calibrated point's model compares the barrier shapes at the
    // actual P. Under the NOW numbers the flat barrier pays a full
    // extra arrival (L + occupancy + a serialization slot) even at
    // small P, so the model picks dissemination throughout.
    const LogGPPoint pt = pointFromParams(baseline());
    EXPECT_EQ(chooseAlg(pt, Coll::Barrier, 8, 0),
              CollAlg::BarDissemination);
    EXPECT_EQ(chooseAlg(pt, Coll::Barrier, 128, 0),
              CollAlg::BarDissemination);

    // The runtime's auto entry makes the same pick and still provides
    // barrier semantics.
    const int p = 8;
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    EXPECT_EQ(tc.select(Coll::Barrier, p, 0), CollAlg::BarDissemination);
    std::vector<int> entered(p, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        const int me = sc.myProc();
        for (int round = 1; round <= 3; ++round) {
            entered[me] = round;
            tc.barrier(sc);
            for (int q = 0; q < p; ++q)
                ASSERT_GE(entered[q], round);
        }
    }));
}

// ---------------------------------------------------------------------
// The performance claims, measured in the simulator.
// ---------------------------------------------------------------------

// At P = 128 the dissemination barrier's log-depth rounds beat the
// flat barrier's O(P) serialization at rank 0 by a wide margin in
// simulated time, and the model knows it.
TEST(CollPerf, DisseminationBarrierWinsAtScale)
{
    const int p = 128;
    const Tick flat =
        measureCollective(baseline(), Coll::Barrier, CollAlg::BarFlat, p, 0);
    const Tick diss = measureCollective(baseline(), Coll::Barrier,
                                        CollAlg::BarDissemination, p, 0);
    EXPECT_LT(diss, flat);
    EXPECT_EQ(chooseAlg(pointFromParams(baseline()), Coll::Barrier, p, 0),
              CollAlg::BarDissemination);
}

TEST(CollPerf, OptimalBroadcastNeverLosesAndWinsAtHighLatency)
{
    auto params = baseline();
    params.setDesiredLatencyUsec(105.0);
    const int p = 32;
    auto time_alg = [&](CollAlg alg) {
        return measureCollective(params, Coll::Broadcast, alg, p,
                                 sizeof(Word));
    };
    const Tick flat = time_alg(CollAlg::BcastFlat);
    const Tick binomial = time_alg(CollAlg::BcastBinomial);
    const Tick optimal = time_alg(CollAlg::BcastLogP);
    // At high L/g the pipelined flat tree already beats binomial --
    // LogP's core insight -- and the greedy schedule beats both.
    EXPECT_LT(optimal, binomial);
    EXPECT_LE(optimal, flat);
}

TEST(CollPerf, BinomialBeatsLinearAtLowLatency)
{
    // At baseline latency the root's serialized sends dominate, so
    // the log-depth tree wins over the flat one.
    const int p = 32;
    auto time_alg = [&](CollAlg alg) {
        return measureCollective(baseline(), Coll::Broadcast, alg, p,
                                 sizeof(Word));
    };
    EXPECT_LT(time_alg(CollAlg::BcastBinomial),
              time_alg(CollAlg::BcastFlat));
}

TEST(CollPerf, RingBeatsDoublingForBigBlocksAtLowLatency)
{
    // Classic trade-off: recursive doubling sends log P messages of
    // growing size; ring sends P-1 fixed-size ones but never moves a
    // block more than once per hop. With bulk time dominating, ring
    // must not lose badly.
    const int p = 8;
    const std::size_t block = 512 * sizeof(Word);
    const Tick ring = measureCollective(baseline(), Coll::AllGather,
                                        CollAlg::AgRing, p, block);
    const Tick doubling = measureCollective(
        baseline(), Coll::AllGather, CollAlg::AgRecDouble, p, block);
    EXPECT_GT(ring, 0);
    EXPECT_GT(doubling, 0);
    EXPECT_LT(static_cast<double>(ring),
              1.5 * static_cast<double>(doubling));
}

} // namespace
} // namespace coll
} // namespace nowcluster
