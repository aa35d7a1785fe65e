/**
 * @file
 * Figure 4: communication balance. For every application on 32 nodes,
 * renders the (sender, receiver) message-count density matrix as ASCII
 * art and writes a grayscale PGM image per app (white = no messages,
 * black = the per-app maximum), matching the paper's plots. The ten
 * 32-node baselines are Table 3's points, so over a result store they
 * are served without re-simulation.
 */

#include <cstdio>
#include <sys/stat.h>

#include "bench_util.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

int
main(int argc, char **argv)
{
    ResultCacheScope cache_scope(argc, argv);
    double scale = scaleOr(1.0);
    traceOutIfRequested(argc, argv, "radix", 32, scale);
    ::mkdir("fig4", 0755);
    std::printf("Figure 4: Communication balance matrices, 32 nodes "
                "(scale=%.2f)\n", scale);
    std::printf("PGM images are written to ./fig4/<app>.pgm\n");

    std::vector<RunResult> rs =
        runBaselines(appKeys(), 32, scale, jobsArg(argc, argv));
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const RunResult &r = rs[i];
        std::string path = "fig4/" + appKeys()[i] + ".pgm";
        r.matrix.writePgm(path);
        std::printf("\n--- %s (max %llu msgs/cell) -> %s ---\n",
                    r.summary.app.c_str(),
                    static_cast<unsigned long long>(r.matrix.maxCount()),
                    path.c_str());
        std::fputs(r.matrix.ascii().c_str(), stdout);
    }
    return 0;
}
