/**
 * @file
 * Extension ablation: sensitivity to receive-controller *occupancy*,
 * the parameter the Flash study (Holt et al., cited in the paper's
 * Related Work) found applications "surprisingly sensitive" to.
 * Occupancy adds to the round trip like latency AND serializes
 * arrivals like gap, so for the same microseconds it should hurt at
 * least as much as either individual knob -- which this sweep
 * demonstrates on the paper's suite.
 */

#include "bench_util.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

int
main(int argc, char **argv)
{
    ResultCacheScope cache_scope(argc, argv);
    double scale = scaleOr(1.0);
    int jobs = jobsArg(argc, argv);
    traceOutIfRequested(argc, argv, "em3d-write", 32, scale);
    const std::vector<double> xs = {0, 2.5, 5, 10, 25, 50};

    auto set = [](Knobs &k, double x) { k.occupancyUs = x; };
    std::vector<Series> series =
        sweepApps(appKeys(), 32, scale, xs, set, jobs);
    printSlowdownTable(
        "Ablation: slowdown vs rx occupancy, 32 nodes (scale=" +
            fmtDouble(scale, 2) + ")",
        "occ(us)", xs, series);

    // Head-to-head for one read-based and one write-based app: the
    // same microseconds as occupancy, pure latency, or pure gap, in one
    // batch over the sweep's baselines. The occupancy point is the
    // sweep's 25 us point, so a result store serves it.
    std::printf("\n=== 25 us as occupancy vs latency vs gap ===\n");
    Knobs occ, lat, gap;
    occ.occupancyUs = 25;
    lat.latencyUs = 30; // 5 baseline + 25 added.
    gap.gapUs = 30.8;   // 5.8 baseline + 25 added.
    std::vector<const Series *> rows;
    std::vector<RunPoint> pts;
    for (const std::string key : {"em3d-read", "em3d-write"}) {
        rows.push_back(&*std::find_if(
            series.begin(), series.end(),
            [&](const Series &s) { return s.key == key; }));
        for (const Knobs &k : {occ, lat, gap})
            pts.push_back(knobPoint(key, 32, scale, rows.back()->base, k));
    }
    std::vector<RunResult> rs = runPoints(pts, jobs);

    Table t;
    t.row()
        .cell("Program")
        .cell("occupancy 25us")
        .cell("latency +25us")
        .cell("gap +25us");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        auto row = t.row();
        row.cell(rows[i]->name);
        for (std::size_t j = 0; j < 3; ++j)
            row.cell(slowdown(rs[i * 3 + j].runtime, rows[i]->base.runtime),
                     2);
    }
    t.print();
    return 0;
}
