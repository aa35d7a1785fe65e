/**
 * @file
 * Table 6: predicted vs measured run times under added gap, using the
 * Section-5.2 *burst* model r_pred = r_base + m * delta_g (the paper
 * found application communication bursty, so the burst model fits far
 * better than the uniform-interval model, which is also printed).
 *
 * The measured column is Figure 6's sweep, point for point: over a
 * result store (--cache-dir / NOW_CACHE_DIR) it is served from the
 * entries bench_fig6_gap wrote, with no re-simulation.
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
    std::printf("Table 6: predicted vs measured run times (ms) varying "
                "gap, 32 nodes (scale=%.2f)\n",
                scale);
    std::printf("Burst model: r = r_base + m * delta_g;  uniform "
                "model: r = r_base + m * (g - I) for g > I\n");

    auto set = [](Knobs &k, double x) { k.gapUs = x; };
    const std::vector<double> &gs = gapSweep();
    for (const Series &s : sweepApps(appKeys(), 32, scale, gs, set,
                                     jobsArg(argc, argv))) {
        const RunResult &b = s.base;
        Tick interval = usec(b.summary.msgIntervalUs);
        std::printf("\n--- %s (m = %llu msgs, I = %.1f us) ---\n",
                    b.summary.app.c_str(),
                    static_cast<unsigned long long>(b.maxMsgsPerProc),
                    b.summary.msgIntervalUs);
        Table t;
        t.row()
            .cell("g(us)")
            .cell("measured")
            .cell("burst pred")
            .cell("uniform pred");
        for (std::size_t j = 0; j < gs.size(); ++j) {
            Tick burst = predictGapBurst(b.runtime, b.maxMsgsPerProc,
                                         usec(gs[j]) - usec(5.8));
            Tick uniform = predictGapUniform(
                b.runtime, b.maxMsgsPerProc, usec(gs[j]), interval);
            auto row = t.row();
            row.cell(gs[j], 1);
            if (s.slowdown[j] >= 0)
                row.cell(toMsec(s.runtime[j]), 1);
            else
                row.cell(std::string("N/A"));
            row.cell(toMsec(burst), 1).cell(toMsec(uniform), 1);
        }
        t.print();
    }
    return 0;
}
