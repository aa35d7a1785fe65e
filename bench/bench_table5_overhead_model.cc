/**
 * @file
 * Table 5: predicted vs measured run times under added overhead, using
 * the Section-5.1 model r_pred = r_orig + 2 * m * delta_o with m the
 * maximum number of messages sent by any processor in the baseline
 * run. For frequently communicating applications the model tracks the
 * measurement; applications with serial phases (Radix) run slower than
 * predicted (the paper's "serialization effect").
 *
 * The measured column is Figure 5b's 32-node sweep, point for point:
 * over a result store (--cache-dir / NOW_CACHE_DIR) it is served from
 * the entries bench_fig5_overhead wrote, with no re-simulation.
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
    std::printf("Table 5: predicted vs measured run times (ms) varying "
                "overhead, 32 nodes (scale=%.2f)\n",
                scale);
    std::printf("Model: r_pred = r_orig + 2 * m * delta_o\n");

    auto set = [](Knobs &k, double x) { k.overheadUs = x; };
    const std::vector<double> &os = overheadSweep();
    for (const Series &s : sweepApps(appKeys(), 32, scale, os, set,
                                     jobsArg(argc, argv))) {
        const RunResult &b = s.base;
        std::printf("\n--- %s (m = %llu msgs) ---\n",
                    b.summary.app.c_str(),
                    static_cast<unsigned long long>(b.maxMsgsPerProc));
        Table t;
        t.row().cell("o(us)").cell("measured").cell("predicted").cell(
            "ratio");
        for (std::size_t j = 0; j < os.size(); ++j) {
            Tick pred = predictOverhead(b.runtime, b.maxMsgsPerProc,
                                        usec(os[j]) - usec(2.9));
            bool ok = s.slowdown[j] >= 0;
            auto row = t.row();
            row.cell(os[j], 1);
            if (ok)
                row.cell(toMsec(s.runtime[j]), 1);
            else
                row.cell(std::string("N/A"));
            row.cell(toMsec(pred), 1);
            if (ok)
                row.cell(static_cast<double>(s.runtime[j]) /
                             static_cast<double>(pred),
                         2);
            else
                row.cell(std::string("-"));
        }
        t.print();
    }
    return 0;
}
