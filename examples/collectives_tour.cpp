/**
 * @file
 * Tour of the tuned collectives library: run broadcast / all-gather /
 * all-reduce on a simulated cluster, then rebuild the LogP-optimal
 * broadcast schedule for a high-latency machine and watch it
 * restructure itself from a deep tree into a wide, pipelined one.
 *
 *   $ ./examples/collectives_tour [nprocs]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "coll/cost.hh"
#include "coll/tuned/tuned.hh"

using namespace nowcluster;

namespace {

void
describeSchedule(const char *title, Tick send_interval,
                 Tick arrival_cost, int p)
{
    auto steps =
        coll::buildOptimalBroadcast(p, send_interval, arrival_cost);
    // Fan-out of the root and depth of the tree.
    int root_sends = 0;
    std::vector<int> depth(p, 0);
    for (const auto &s : steps) {
        if (s.sender == 0)
            ++root_sends;
        depth[s.receiver] = depth[s.sender] + 1;
    }
    int max_depth = *std::max_element(depth.begin(), depth.end());
    // Steps are in issue order, so the last one arrives last.
    const Tick done = steps.empty() ? 0 : steps.back().issueAt + arrival_cost;
    std::printf("  %-28s root fan-out %2d, tree depth %d, predicted "
                "completion %.1f us\n",
                title, root_sends, max_depth, toUsec(done));
}

} // namespace

int
main(int argc, char **argv)
{
    const int p = argc > 1 ? std::atoi(argv[1]) : 16;
    auto params = MachineConfig::berkeleyNow().params;

    std::printf("collectives_tour on %d processors\n\n", p);

    // ---- Part 1: the operations, end to end ---------------------------
    SplitCRuntime rt(p, params);
    coll::TunedCollectives tc(rt);
    rt.run([&](SplitC &sc) {
        int me = sc.myProc();

        Word token = me == 0 ? 1234 : 0;
        tc.broadcast(sc, &token, sizeof token, 0, coll::CollAlg::BcastLogP);

        std::vector<Word> mine(2), everyone(2 * p);
        mine[0] = static_cast<Word>(me);
        mine[1] = static_cast<Word>(me * me);
        tc.allGather(sc, mine.data(), sizeof(Word) * 2, everyone.data(),
                     coll::CollAlg::AgRing);

        std::int64_t total = me + 1;
        tc.allReduceAdd(sc, &total, 1); // Cost-model-picked algorithm.

        if (me == p - 1) {
            std::printf("broadcast delivered %llu to rank %d\n",
                        static_cast<unsigned long long>(token), me);
            std::printf("all-gather: rank 1 contributed (%llu, %llu)\n",
                        static_cast<unsigned long long>(everyone[2]),
                        static_cast<unsigned long long>(everyone[3]));
            std::printf("all-reduce: sum of 1..%d = %lld (expected %d)\n",
                        p, static_cast<long long>(total),
                        p * (p + 1) / 2);
        }
    });

    // ---- Part 2: the schedule bends with the machine ------------------
    std::printf("\nLogP-optimal broadcast schedules (%d procs):\n", p);
    Tick send = std::max(params.oSend, params.gap);
    describeSchedule("NOW (L=5us):", send,
                     params.oSend + usec(5) + params.oRecv, p);
    describeSchedule("store-and-forward (L=105us):", send,
                     params.oSend + usec(105) + params.oRecv, p);
    describeSchedule("high-overhead (o=50us):", usec(50),
                     usec(50) + usec(5) + usec(50), p);

    std::printf("\nHigh latency widens the root's fan-out (keep every "
                "send slot busy); high\noverhead deepens the tree "
                "(send slots are the scarce resource).\n");
    return 0;
}
