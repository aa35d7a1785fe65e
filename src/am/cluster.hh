/**
 * @file
 * The simulated cluster: P Active-Message nodes, a constant-latency or
 * fat-tree interconnect, and an SPMD program launcher.
 *
 * Two execution engines share this class:
 *
 *   - the classic single-heap engine (params.simThreads == 0): one
 *     Simulator, one event queue, bit-identical to the original
 *     simulator; and
 *   - the sharded engine (params.simThreads >= 1): nodes are
 *     partitioned into shards, each with a private Simulator clock and
 *     heap, run in lookahead-sized windows by sim/parallel.hh with the
 *     minimum wire latency L as the conservative lookahead. All
 *     cross-shard traffic (deliveries and reliability acks) crosses
 *     through SPSC channels and is merged between windows in a fixed
 *     shard order, which makes results a pure function of the shard
 *     layout -- byte-identical at any thread count.
 */

#ifndef NOWCLUSTER_AM_CLUSTER_HH_
#define NOWCLUSTER_AM_CLUSTER_HH_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "am/am_node.hh"
#include "net/fault.hh"
#include "net/loggp.hh"
#include "net/topology.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"
#include "sim/spsc.hh"

namespace nowcluster {

/** A cross-shard wire event, queued on an SPSC channel and merged
 *  into the destination shard's heap between windows. */
struct CrossMsg
{
    enum class Kind : std::uint8_t
    {
        Delivery, ///< A packet for scheduleDelivery() on the dst shard.
        RelAck,   ///< A reliability cumulative ack arriving at `when`.
    };

    Kind kind = Kind::Delivery;
    Tick when = 0;
    NodeId from = -1;
    NodeId to = -1;
    std::uint64_t cumSeq = 0;
    Packet pkt;
};

/**
 * Owns the simulators, the LogGP parameters, the handler table, and one
 * AmNode + Proc per simulated processor.
 */
class Cluster
{
  public:
    /**
     * @param nprocs Number of processors.
     * @param params Communication parameters (shared by all nodes).
     * @param seed   Run seed; each node derives its own Rng stream.
     */
    Cluster(int nprocs, const LogGPParams &params, std::uint64_t seed = 1);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;
    ~Cluster();

    /** Register a handler (identical table on every node, as in SPMD). */
    int registerHandler(HandlerFn fn);

    /** Invoke handler h for packet pkt on node `self`. */
    void runHandler(int h, AmNode &self, Packet &pkt);

    /**
     * Launch main on every node at time 0 and run to completion.
     *
     * @param main     Per-node SPMD body.
     * @param max_time Virtual-time budget; exceeded runs are drained
     *                 (all blocking ops return immediately) and reported
     *                 as failed.
     * @return true if all nodes finished within the budget.
     */
    bool run(std::function<void(AmNode &)> main, Tick max_time = kTickNever);

    /** Virtual time at which the last node's body returned. */
    Tick runtime() const { return runtime_; }

    /** True if the last run() hit its time budget. */
    bool timedOut() const { return timedOut_; }

    /**
     * When the last run() drained (timeout or deadlock), a human
     * readable list of which nodes were still blocked and on what
     * (credit wait vs. reply wait vs. barrier ...). Empty for clean
     * runs.
     */
    const std::string &stallReport() const { return stallReport_; }

    int nprocs() const { return nprocs_; }
    AmNode &node(int i) { return *nodes_[i]; }

    /** Shard 0's simulator (the only one in the classic engine). */
    Simulator &sim() { return *sims_[0]; }

    /** Number of shards (1 in the classic engine). */
    int nshards() const { return nshards_; }
    /** Shard that owns node `id`. */
    int shardOf(NodeId id) const { return shard_[id]; }
    /** The simulator whose clock node `id` lives on. */
    Simulator &simOf(NodeId id) { return *sims_[shard_[id]]; }

    /** Lifetime count of executed events across every shard. */
    std::uint64_t eventsExecuted() const;

    const LogGPParams &params() const { return params_; }
    std::uint64_t seed() const { return seed_; }

    /** Drain mode: blocking primitives return immediately. */
    bool
    draining() const
    {
        return draining_.load(std::memory_order_relaxed);
    }

    /** Deliver pkt to its destination at pkt.readyAt. */
    void transmit(Packet &&pkt);

    /** Schedule the NIC-level ack that returns a credit to src. */
    void scheduleCreditAck(NodeId src, NodeId dst, Tick deliver_time);

    /**
     * Reliability-protocol cumulative ack from node `from` to node
     * `to`, subject to the fault model like any other wire event.
     */
    void sendAck(NodeId from, NodeId to, std::uint64_t cum_seq);

    /**
     * After run() completes, process leftover events (in-flight acks,
     * retransmission timers) until the simulator goes idle, so credit
     * accounting can be audited. @return events executed.
     */
    std::uint64_t settle(std::uint64_t max_events = 10'000'000);

    /**
     * Number of send credits not currently home across all (node, dst)
     * pairs. Zero after run()+settle() on a correct protocol -- the
     * "no leaked credits" acceptance check.
     */
    std::uint64_t leakedCredits() const;

    /** Aggregate messages sent across all nodes. */
    std::uint64_t totalMessages() const;

    /** The cluster's metrics registry: every node's counters, the
     *  fault model, and any component-owned metrics report here. */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Attach a span tracer to every node (CPU fiber, NIC tx context,
     * NIC rx context) and the network. Must be called before run();
     * pass nullptr to detach. Tracing is passive -- virtual time and
     * all results are identical with and without a tracer. Under the
     * sharded engine each shard records into a private tracer with a
     * disjoint id range; they are merged into `tracer` (in shard
     * order, so deterministically) when run() returns.
     */
    void setTracer(SpanTracer *tracer);
    SpanTracer *tracer() const { return tracer_; }

    /** The fat-tree topology model, if enabled (diagnostics). */
    const FatTreeTopology *topology() const { return topo_.get(); }

    /** The fault model, if enabled (scripting from tests, counters).
     *  Under the sharded engine this is shard 0's model; each shard
     *  draws from its own seeded stream. Scripted drops installed here
     *  only see shard 0's wire events -- use scriptDrop() /
     *  scriptBlackhole(), which route to the owning shard's model, for
     *  scripts that must fire identically at any --sim-threads. One-off
     *  delays are exempt: delayNode() entries are collected from every
     *  shard model at run() start. */
    FaultModel *faultModel();
    const FaultModel *faultModel() const;

    /**
     * Script a one-shot drop of the nth event of class `cls` on the
     * src->dst link, routed to the shard whose FaultModel actually
     * offers that link's events. Per-link offer counts are kept per
     * shard model, and each (link, class) stream is offered by exactly
     * one deterministic shard -- Data by the sender's, credit acks by
     * the data sender's (the ack's destination), reliability acks by
     * the data receiver's (the ack's source) -- so a script installed
     * here fires on the same packet at any thread count.
     */
    void scriptDrop(NodeId src, NodeId dst, PacketClass cls,
                    std::uint64_t nth);

    /** Script a blackhole window (see FaultModel::blackhole). Installed
     *  on every shard model: each wire event is offered exactly once
     *  globally, so time-window matching cannot double-fire. */
    void scriptBlackhole(NodeId src, NodeId dst, Tick from, Tick until);

    /** Script a one-off processor stall (see FaultModel::delayNode). */
    void scriptDelay(NodeId node, Tick at, Tick duration);

    /** Events offered so far on one link, summed over the shard models
     *  in shard order (each stream lives whole in one model). */
    std::uint64_t faultOfferedOn(NodeId src, NodeId dst,
                                 PacketClass cls) const;

    /** Fault tallies merged across the shard models, in shard order. */
    FaultCounters faultCounters() const;

  private:
    void noteProcDone(NodeId id);

    /** Common delivery tail: rx occupancy + presence-bit event. */
    void scheduleDelivery(Packet &&pkt);

    /** Presence-bit event body: downlink queueing, rx occupancy,
     *  delivery. */
    void arrive(Simulator &sim, const std::shared_ptr<Packet> &p);

    /** Route a delivery to its destination shard (channel if remote). */
    void routeDelivery(Packet &&pkt);

    /** Route a reliability ack to node `to`'s shard. */
    void routeAck(NodeId from, NodeId to, std::uint64_t cum_seq,
                  Tick when);

    /** Drain every channel inbound to shard s into its heap. */
    void mergeShard(int s);

    /**
     * Serial window planner (all shards quiescent): termination and
     * drain checks, then min(nextTime) + lookahead. kTickNever stops
     * the engine.
     */
    Tick planWindow(Tick max_time);

    /** Enter drain mode, recording who was blocked and why. */
    void startDrain(const char *why, Tick at);

    /** Fold per-shard tracers into the user's tracer, in shard order. */
    void mergeShardTracers();

    SpanTracer *tracerFor(int s) const;
    FaultModel *faultFor(int s) const;
    /** Shard whose model offers events of class `cls` on src->dst. */
    int faultShardOf(NodeId src, NodeId dst, PacketClass cls) const;
    /** Install every scripted one-off delay as proc stall windows. */
    void installDelays();
    SpscChannel<CrossMsg> &channel(int src, int dst) const;

    LogGPParams params_;
    MetricsRegistry metrics_;
    SpanTracer *tracer_ = nullptr;
    int nprocs_;
    std::uint64_t seed_;
    std::vector<HandlerFn> handlers_;
    std::vector<std::unique_ptr<AmNode>> nodes_;
    std::vector<std::unique_ptr<Proc>> procs_;

    /** One simulator per shard; sims_[0] is the whole world in the
     *  classic engine. */
    std::vector<std::unique_ptr<Simulator>> sims_;
    int nshards_ = 1;
    int simThreads_ = 0;
    Tick lookahead_ = 0;
    /** Node -> shard (all zeros in the classic engine). */
    std::vector<int> shard_;
    /** nshards^2 SPSC channels, indexed src * nshards + dst. */
    std::vector<std::unique_ptr<SpscChannel<CrossMsg>>> channels_;
    /** One fault model per shard (one total in the classic engine). */
    std::vector<std::unique_ptr<FaultModel>> faults_;
    /** Private per-shard tracers (sharded engine + setTracer only). */
    std::vector<std::unique_ptr<SpanTracer>> shardTracers_;
    /** Per-shard max body-return time; runtime_ is their max. */
    std::vector<Tick> shardRuntime_;

    std::atomic<int> doneCount_{0};
    Tick runtime_ = 0;
    std::atomic<bool> draining_{false};
    bool timedOut_ = false;
    bool started_ = false;
    std::unique_ptr<FatTreeTopology> topo_;
    std::string stallReport_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_AM_CLUSTER_HH_
