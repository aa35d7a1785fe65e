/**
 * @file
 * A conservative (lookahead-windowed) parallel discrete-event engine.
 *
 * The engine owns nothing but the synchronization skeleton: the caller
 * provides three callbacks and the engine runs them in a fixed cadence
 * across worker threads. Each round is
 *
 *   merge(s)  for every shard   - drain inbound cross-shard channels
 *   ---- barrier A (plan() runs serially in the completion step) ----
 *   exec(s, windowEnd)          - run local events with time < windowEnd
 *   ---- barrier B ------------------------------------------------
 *
 * plan() inspects global state (all shards are quiescent at that
 * point) and returns the end of the next window, conventionally
 * min(nextTime over shards) + lookahead; returning kTickNever stops
 * the engine. The conservative invariant the caller must uphold: any
 * event a shard sends to another shard while executing at time t must
 * arrive no earlier than t + lookahead, so nothing merged in round
 * k+1 can land before round k's windowEnd.
 *
 * Shard -> thread assignment is static (shard s runs on thread
 * s mod T), which keeps fiber stacks, RNGs, and fault models on a
 * stable thread for their whole lifetime regardless of load.
 *
 * The calling thread participates as thread 0, so nthreads == 1
 * degenerates to a serial windowed loop with no thread creation --
 * that is what makes `--sim-threads 1/2/4` byte-identical: the window
 * schedule depends only on the shard layout, never on T.
 */

#ifndef NOWCLUSTER_SIM_PARALLEL_HH_
#define NOWCLUSTER_SIM_PARALLEL_HH_

#include <functional>

#include "base/types.hh"

namespace nowcluster {

class ParallelEngine
{
  public:
    struct Callbacks
    {
        /** Drain cross-shard inboxes into shard s's event queue. */
        std::function<void(int shard)> merge;
        /** Execute shard s's local events with time < windowEnd. */
        std::function<void(int shard, Tick windowEnd)> exec;
        /**
         * Serial planning step between merge and exec; all shards are
         * quiescent. @return the next window end, or kTickNever to
         * stop.
         */
        std::function<Tick()> plan;
    };

    /** nthreads is clamped to [1, nshards]. */
    ParallelEngine(int nshards, int nthreads);

    /**
     * Run rounds until plan() returns kTickNever. Blocks. A merge or
     * exec callback that throws stops the engine at the next plan
     * step; once every
     * worker has joined, run() rethrows that exception on the calling
     * thread (the lowest shard's, if several threw).
     */
    void run(const Callbacks &cb);

    int nshards() const { return nshards_; }
    int nthreads() const { return nthreads_; }

  private:
    int nshards_;
    int nthreads_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_SIM_PARALLEL_HH_
