/**
 * @file
 * Table 4: communication summary of every application on 32 nodes with
 * baseline parameters -- message counts and frequency, mean message
 * and barrier intervals, bulk and read message fractions, and per-
 * processor bandwidths. The ten 32-node baselines are Table 3's points,
 * so over a result store they are served without re-simulation.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

int
main(int argc, char **argv)
{
    ResultCacheScope cache_scope(argc, argv);
    double scale = scaleOr(1.0);
    traceOutIfRequested(argc, argv, "radix", 32, scale);
    std::printf("Table 4: Communication summary, 32 nodes "
                "(scale=%.2f)\n\n", scale);

    Table t;
    t.row()
        .cell("Program")
        .cell("Avg Msg/P")
        .cell("Max Msg/P")
        .cell("Msg/P/ms")
        .cell("Interval(us)")
        .cell("Barrier(ms)")
        .cell("%Bulk")
        .cell("%Reads")
        .cell("Bulk KB/s")
        .cell("Small KB/s");

    for (const RunResult &r :
         runBaselines(appKeys(), 32, scale, jobsArg(argc, argv))) {
        const CommSummary &s = r.summary;
        t.row()
            .cell(s.app)
            .cell(static_cast<std::int64_t>(s.avgMsgsPerProc))
            .cell(static_cast<std::int64_t>(s.maxMsgsPerProc))
            .cell(s.msgsPerProcPerMs, 2)
            .cell(s.msgIntervalUs, 1)
            .cell(s.barrierIntervalMs, 1)
            .cell(s.pctBulk, 2)
            .cell(s.pctReads, 2)
            .cell(s.bulkKBps, 1)
            .cell(s.smallKBps, 1);
    }
    t.print();
    return 0;
}
