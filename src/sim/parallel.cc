#include "sim/parallel.hh"

#include <algorithm>
#include <barrier>
#include <exception>
#include <thread>
#include <vector>

#include "base/logging.hh"

namespace nowcluster {

ParallelEngine::ParallelEngine(int nshards, int nthreads)
    : nshards_(nshards), nthreads_(std::clamp(nthreads, 1, nshards))
{
    panic_if(nshards < 1, "ParallelEngine needs at least one shard");
}

void
ParallelEngine::run(const Callbacks &cb)
{
    const int T = nthreads_;
    // Written only by barrier A's completion step, which the barrier
    // orders before any thread resumes; no atomics needed.
    Tick windowEnd = 0;
    // An exception from merge/exec (a node program that throws) is
    // held per shard, each slot written only by its owner thread.
    // Every thread keeps arriving at both barriers; the next plan step
    // sees the error and stops the engine, and run() rethrows the
    // lowest shard's after the join, so the choice does not depend on
    // thread timing.
    std::vector<std::exception_ptr> errors(nshards_);

    std::barrier planBar(T, [&]() noexcept {
        const bool failed =
            std::any_of(errors.begin(), errors.end(),
                        [](const auto &e) { return e != nullptr; });
        windowEnd = failed ? kTickNever : cb.plan();
    });
    std::barrier execBar(T);

    auto guarded = [&](int s, auto &&fn) {
        try {
            fn();
        } catch (...) {
            if (!errors[s])
                errors[s] = std::current_exception();
        }
    };
    auto worker = [&](int t) {
        for (;;) {
            for (int s = t; s < nshards_; s += T)
                guarded(s, [&] { cb.merge(s); });
            planBar.arrive_and_wait();
            if (windowEnd == kTickNever)
                break;
            for (int s = t; s < nshards_; s += T)
                guarded(s, [&] { cb.exec(s, windowEnd); });
            execBar.arrive_and_wait();
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(T - 1);
    for (int t = 1; t < T; ++t)
        threads.emplace_back(worker, t);
    worker(0);
    for (auto &th : threads)
        th.join();

    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace nowcluster
