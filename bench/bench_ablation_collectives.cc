/**
 * @file
 * Extension: collective algorithms under the knobs. The LogP model was
 * built to design communication schedules; this bench closes that loop
 * inside the laboratory by racing the tuned library's broadcast
 * algorithms (flat, binomial, LogP-greedy) across the latency and
 * overhead sweeps next to the cost model's LogP prediction, and its
 * all-gather algorithms across block sizes.
 */

#include <cstdio>

#include "bench_util.hh"
#include "coll/cost.hh"
#include "coll/tuned/harness.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

namespace {

/** Broadcast one word from rank 0: span from the entry barrier to the
 *  last arrival anywhere, in us. */
double
bcastUs(const LogGPParams &params, int p, coll::CollAlg alg)
{
    return toUsec(coll::measureCollective(params, coll::Coll::Broadcast,
                                          alg, p, sizeof(Word)));
}

/** One row of a broadcast table: the three algorithms + the model. */
void
bcastRow(Table &t, double knob, const LogGPParams &params, int p)
{
    t.row()
        .cell(knob, 1)
        .cell(bcastUs(params, p, coll::CollAlg::BcastFlat), 1)
        .cell(bcastUs(params, p, coll::CollAlg::BcastBinomial), 1)
        .cell(bcastUs(params, p, coll::CollAlg::BcastLogP), 1)
        .cell(toUsec(coll::predictCollective(
                  pointFromParams(params), coll::Coll::Broadcast,
                  coll::CollAlg::BcastLogP, p, sizeof(Word))),
              1);
}

} // namespace

int
main(int argc, char **argv)
{
    const int p = 32;
    traceOutIfRequested(argc, argv, "radix", p, scaleOr(1.0));
    std::printf("Collective algorithms under the LogGP knobs, %d "
                "nodes\n(broadcast columns: span from entry to last "
                "arrival of one word, us)\n",
                p);

    std::printf("\n--- broadcast vs latency ---\n");
    Table bl;
    bl.row().cell("L(us)").cell("flat").cell("binomial").cell("logp").cell(
        "model-pred");
    for (double l : {5.0, 15.0, 55.0, 105.0}) {
        auto params = MachineConfig::berkeleyNow().params;
        params.setDesiredLatencyUsec(l);
        bcastRow(bl, l, params, p);
    }
    bl.print();

    std::printf("\n--- broadcast vs overhead ---\n");
    Table bo;
    bo.row().cell("o(us)").cell("flat").cell("binomial").cell("logp").cell(
        "model-pred");
    for (double o : {2.9, 12.9, 52.9}) {
        auto params = MachineConfig::berkeleyNow().params;
        params.setDesiredOverheadUsec(o);
        bcastRow(bo, o, params, p);
    }
    bo.print();

    std::printf("\n--- all-gather: ring vs recursive doubling ---\n");
    Table ag;
    ag.row().cell("words/proc").cell("ring (us)").cell(
        "doubling (us)");
    const auto params = MachineConfig::berkeleyNow().params;
    for (std::size_t n : {8u, 128u, 2048u}) {
        auto gather_us = [&](coll::CollAlg alg) {
            return toUsec(coll::measureCollective(
                params, coll::Coll::AllGather, alg, p, n * sizeof(Word)));
        };
        ag.row()
            .cell(static_cast<std::int64_t>(n))
            .cell(gather_us(coll::CollAlg::AgRing), 1)
            .cell(gather_us(coll::CollAlg::AgRecDouble), 1);
    }
    ag.print();
    return 0;
}
