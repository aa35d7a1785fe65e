#include "am/cluster.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "am/reliable.hh"
#include "base/logging.hh"
#include "sim/parallel.hh"

namespace nowcluster {

Cluster::Cluster(int nprocs, const LogGPParams &params, std::uint64_t seed)
    : params_(params), nprocs_(nprocs), seed_(seed)
{
    fatal_if(nprocs < 1, "cluster needs at least one processor");
    fatal_if(params.window < 1, "flow-control window must be positive");
    fatal_if(params.txQueueDepth < 1, "tx queue depth must be positive");

    // Built-in handler 0: StoreAck (completes the sender's storeSync
    // and fires any per-store callback).
    handlers_.push_back([](AmNode &self, Packet &pkt) {
        self.noteStoreAcked(pkt.args[0]);
    });

    if (params.topo) {
        FatTreeTopology::Config tc;
        tc.hostsPerLeaf = params.topoHostsPerLeaf;
        tc.linkMBps = params.topoLinkMBps;
        tc.oversub = params.topoOversub;
        tc.hopLatency = params.topoHopLatency;
        topo_ = std::make_unique<FatTreeTopology>(nprocs, tc);
    }

    // Shard layout. The shard count is a pure function of the
    // scenario (simShards, or an automatic pick), never of the thread
    // count, so results are byte-identical at any --sim-threads value.
    // Shards contain whole topology leaves, which is what makes the
    // fat-tree's per-leaf link state single-owner without locks.
    simThreads_ = std::max(params.simThreads, 0);
    shard_.assign(nprocs, 0);
    if (simThreads_ > 0) {
        fatal_if(params.latency <= 0,
                 "the sharded engine needs a positive wire latency L "
                 "as its lookahead");
        const int units = topo_ ? topo_->nLeaves() : nprocs;
        int want = params.simShards > 0 ? params.simShards
                                        : std::min(16, units);
        want = std::clamp(want, 1, units);
        const int per = (units + want - 1) / want;
        nshards_ = (units + per - 1) / per;
        for (int i = 0; i < nprocs; ++i) {
            const int unit = topo_ ? topo_->leafOf(i) : i;
            shard_[i] = unit / per;
        }
    }
    lookahead_ = params.latency;

    sims_.reserve(nshards_);
    for (int s = 0; s < nshards_; ++s)
        sims_.push_back(std::make_unique<Simulator>());
    shardRuntime_.assign(nshards_, 0);
    if (nshards_ > 1) {
        channels_.resize(static_cast<std::size_t>(nshards_) * nshards_);
        for (int s = 0; s < nshards_; ++s)
            for (int d = 0; d < nshards_; ++d)
                if (s != d)
                    channels_[static_cast<std::size_t>(s) * nshards_ +
                              d] = std::make_unique<SpscChannel<CrossMsg>>();
    }

    if (params.fault.enabled) {
        // One model (and PRNG stream) per shard, so fault draws stay
        // in deterministic event order within their shard. A single
        // shard keeps the legacy stream bit-for-bit.
        for (int s = 0; s < nshards_; ++s) {
            FaultConfig fc = params.fault;
            if (nshards_ > 1)
                fc.seed = params.fault.seed ^
                          (0x9e3779b97f4a7c15ull *
                           static_cast<std::uint64_t>(s + 1));
            faults_.push_back(std::make_unique<FaultModel>(fc));
        }
        if (params.fault.anyRate() && !params.reliable)
            inform("fault injection active without params.reliable: "
                   "losses and duplicates have no recovery path");
        for (const auto &fm : faults_) {
            // Same probe names across shards; the registry sums them
            // at snapshot time.
            const FaultCounters &fc = fm->counters();
            metrics_.probe("fault.offered.data", &fc.offered[0]);
            metrics_.probe("fault.offered.ack", &fc.offered[1]);
            metrics_.probe("fault.dropped.data", &fc.dropped[0]);
            metrics_.probe("fault.dropped.ack", &fc.dropped[1]);
            metrics_.probe("fault.corrupted.data", &fc.corrupted[0]);
            metrics_.probe("fault.corrupted.ack", &fc.corrupted[1]);
            metrics_.probe("fault.duplicated.data", &fc.duplicated[0]);
            metrics_.probe("fault.duplicated.ack", &fc.duplicated[1]);
            metrics_.probe("fault.delayed.data", &fc.delayed[0]);
            metrics_.probe("fault.delayed.ack", &fc.delayed[1]);
        }
    }

    nodes_.reserve(nprocs);
    for (int i = 0; i < nprocs; ++i)
        nodes_.push_back(std::make_unique<AmNode>(*this, i, seed));
}

Cluster::~Cluster() = default;

int
Cluster::registerHandler(HandlerFn fn)
{
    panic_if(started_, "handlers must be registered before run()");
    handlers_.push_back(std::move(fn));
    return static_cast<int>(handlers_.size()) - 1;
}

void
Cluster::runHandler(int h, AmNode &self, Packet &pkt)
{
    panic_if(h < 0 || h >= static_cast<int>(handlers_.size()),
             "bad handler index %d", h);
    handlers_[h](self, pkt);
}

FaultModel *
Cluster::faultModel()
{
    return faults_.empty() ? nullptr : faults_[0].get();
}

const FaultModel *
Cluster::faultModel() const
{
    return faults_.empty() ? nullptr : faults_[0].get();
}

int
Cluster::faultShardOf(NodeId src, NodeId dst, PacketClass cls) const
{
    if (cls == PacketClass::Data)
        return shard_[src]; // transmit() offers on the sender's shard.
    // Acks: in reliable mode the cumulative ack is offered by the shard
    // executing sendAck(from=src, ...) -- the ack's source; with bare
    // credit acks scheduleCreditAck() runs on the data sender's shard
    // and offers (dst_of_data -> src_of_data), i.e. the ack's
    // destination. The two mechanisms are mutually exclusive per run
    // (am_node.cc), so each link's ack stream lives whole in one model.
    return params_.reliable ? shard_[src] : shard_[dst];
}

void
Cluster::scriptDrop(NodeId src, NodeId dst, PacketClass cls,
                    std::uint64_t nth)
{
    panic_if(faults_.empty(),
             "scriptDrop needs params.fault.enabled = true");
    panic_if(src < 0 || src >= nprocs_ || dst < 0 || dst >= nprocs_,
             "scriptDrop link %d->%d out of range", src, dst);
    faults_[faultShardOf(src, dst, cls)]->dropNth(src, dst, cls, nth);
}

void
Cluster::scriptBlackhole(NodeId src, NodeId dst, Tick from, Tick until)
{
    panic_if(faults_.empty(),
             "scriptBlackhole needs params.fault.enabled = true");
    for (auto &fm : faults_)
        fm->blackhole(src, dst, from, until);
}

void
Cluster::scriptDelay(NodeId node, Tick at, Tick duration)
{
    panic_if(started_, "scriptDelay() must be called before run()");
    panic_if(node < 0 || node >= nprocs_, "scriptDelay node %d out of "
             "range", node);
    panic_if(faults_.empty(),
             "scriptDelay needs params.fault.enabled = true");
    faults_[shard_[node]]->delayNode(node, at, duration);
}

std::uint64_t
Cluster::faultOfferedOn(NodeId src, NodeId dst, PacketClass cls) const
{
    std::uint64_t n = 0;
    for (const auto &fm : faults_)
        n += fm->offeredOn(src, dst, cls);
    return n;
}

FaultCounters
Cluster::faultCounters() const
{
    FaultCounters sum;
    for (const auto &fm : faults_) {
        const FaultCounters &c = fm->counters();
        for (int i = 0; i < 2; ++i) {
            sum.offered[i] += c.offered[i];
            sum.dropped[i] += c.dropped[i];
            sum.corrupted[i] += c.corrupted[i];
            sum.duplicated[i] += c.duplicated[i];
            sum.delayed[i] += c.delayed[i];
        }
    }
    return sum;
}

void
Cluster::installDelays()
{
    // The scripted one-off delays: the parameter set's list plus every
    // shard model's delayNode() script (so scripting through
    // faultModel() keeps working when that node lives on another
    // shard). Stall windows are pure per-node scenario state installed
    // before any proc starts, which is what keeps delayed runs
    // byte-identical at any --sim-threads count.
    auto install = [this](const DelaySpec &d) {
        fatal_if(d.node < 0 || d.node >= nprocs_,
                 "one-off delay names node %d outside [0, %d)", d.node,
                 nprocs_);
        fatal_if(d.at < 0 || d.duration < 0,
                 "one-off delay at %lld for %lld is negative",
                 static_cast<long long>(d.at),
                 static_cast<long long>(d.duration));
        procs_[d.node]->injectStall(d.at, d.duration);
    };
    for (const DelaySpec &d : params_.fault.delays)
        install(d);
    for (const auto &fm : faults_)
        for (const DelaySpec &d : fm->delayScript())
            install(d);
}

SpanTracer *
Cluster::tracerFor(int s) const
{
    return shardTracers_.empty() ? tracer_ : shardTracers_[s].get();
}

FaultModel *
Cluster::faultFor(int s) const
{
    return faults_.empty() ? nullptr : faults_[s].get();
}

SpscChannel<CrossMsg> &
Cluster::channel(int src, int dst) const
{
    return *channels_[static_cast<std::size_t>(src) * nshards_ + dst];
}

std::uint64_t
Cluster::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &s : sims_)
        n += s->executed();
    return n;
}

void
Cluster::noteProcDone(NodeId id)
{
    doneCount_.fetch_add(1, std::memory_order_relaxed);
    Tick &rt = shardRuntime_[shard_[id]];
    rt = std::max(rt, simOf(id).now());
}

bool
Cluster::run(std::function<void(AmNode &)> main, Tick max_time)
{
    panic_if(started_, "Cluster::run() may only be called once");
    started_ = true;

    procs_.reserve(nprocs_);
    for (int i = 0; i < nprocs_; ++i) {
        procs_.push_back(std::make_unique<Proc>(
            simOf(i), i, [this, main, i](Proc &) {
                main(*nodes_[i]);
                noteProcDone(i);
            }));
        nodes_[i]->proc_ = procs_[i].get();
        procs_[i]->attachObs(tracerFor(shard_[i]));
    }
    // Stall windows must exist before the first activation is
    // scheduled: start() defers an activation landing inside one.
    installDelays();
    for (int i = 0; i < nprocs_; ++i)
        procs_[i]->start(0);

    if (nshards_ == 1) {
        Simulator &sim = *sims_[0];
        while (doneCount_.load(std::memory_order_relaxed) < nprocs_) {
            if (sim.idle()) {
                // Every remaining proc is blocked with nothing in
                // flight: a communication deadlock. Drain so fibers
                // unwind and the caller sees a failed run instead of a
                // hang.
                panic_if(draining(),
                         "cluster failed to drain after deadlock");
                startDrain("deadlock", sim.now());
                continue;
            }
            if (!draining() && sim.nextTime() > max_time) {
                startDrain("time budget exhausted", sim.now());
                continue;
            }
            sim.step();
        }
    } else {
        ParallelEngine engine(nshards_, simThreads_);
        ParallelEngine::Callbacks cb;
        cb.merge = [this](int s) { mergeShard(s); };
        cb.exec = [this](int s, Tick end) { sims_[s]->runBefore(end); };
        cb.plan = [this, max_time] { return planWindow(max_time); };
        engine.run(cb);
        mergeShardTracers();
    }
    for (Tick t : shardRuntime_)
        runtime_ = std::max(runtime_, t);
    return !timedOut_;
}

void
Cluster::mergeShard(int s)
{
    CrossMsg m;
    for (int src = 0; src < nshards_; ++src) {
        if (src == s)
            continue;
        auto &ch = channel(src, s);
        while (ch.pop(m)) {
            if (m.kind == CrossMsg::Kind::Delivery) {
                scheduleDelivery(std::move(m.pkt));
                continue;
            }
            const NodeId from = m.from, to = m.to;
            const std::uint64_t cum = m.cumSeq;
            sims_[s]->schedule(m.when, [this, from, to, cum] {
                nodes_[to]->reliableAckArrived(from, cum);
            });
        }
    }
}

Tick
Cluster::planWindow(Tick max_time)
{
    if (doneCount_.load(std::memory_order_relaxed) >= nprocs_)
        return kTickNever;

    auto min_next = [this] {
        Tick m = kTickNever;
        for (const auto &s : sims_)
            m = std::min(m, s->nextTime());
        return m;
    };
    auto max_now = [this] {
        Tick m = 0;
        for (const auto &s : sims_)
            m = std::max(m, s->now());
        return m;
    };

    Tick m = min_next();
    if (!draining()) {
        if (m == kTickNever) {
            startDrain("deadlock", max_now());
            m = min_next();
        } else if (m > max_time) {
            startDrain("time budget exhausted", max_now());
            m = min_next();
        }
    }
    panic_if(m == kTickNever, "cluster failed to drain after deadlock");
    return m > kTickNever - lookahead_ ? kTickNever - 1 : m + lookahead_;
}

void
Cluster::startDrain(const char *why, Tick at)
{
    // Record who was still blocked and on what before the wakeups
    // destroy the evidence -- essential when debugging loss-induced
    // hangs (lost credit vs. lost reply vs. barrier skew look
    // identical from the outside).
    stallReport_.clear();
    int shown = 0, stalled = 0;
    for (int i = 0; i < nprocs_; ++i) {
        if (procs_[i]->done())
            continue;
        ++stalled;
        if (shown >= 16)
            continue;
        ++shown;
        stallReport_ += "\n  node ";
        stallReport_ += std::to_string(i);
        if (procs_[i]->state() == ProcState::Blocked) {
            stallReport_ += ": blocked on ";
            stallReport_ += nodes_[i]->blockedOn();
        } else {
            stallReport_ += ": runnable/computing";
        }
        if (nodes_[i]->reliable()) {
            std::uint64_t unacked =
                nodes_[i]->reliable()->unackedCount();
            if (unacked) {
                stallReport_ += " (";
                stallReport_ += std::to_string(unacked);
                stallReport_ += " unacked packets)";
            }
        }
    }
    if (stalled > shown) {
        stallReport_ += "\n  ... and ";
        stallReport_ += std::to_string(stalled - shown);
        stallReport_ += " more";
    }
    warn("cluster %s at %.3f ms with %d/%d procs done; draining%s", why,
         toMsec(at), doneCount_.load(std::memory_order_relaxed), nprocs_,
         stallReport_.c_str());

    draining_.store(true, std::memory_order_relaxed);
    timedOut_ = true;
    // Wake everyone at the same global instant `at` (the maximum shard
    // clock), not at each shard's own now: shard clocks disagree by up
    // to a window, and a proc woken on a lagging shard could otherwise
    // send a message whose arrival lands in a leading shard's past.
    // With a common wake time the next window starts at `at` and the
    // lookahead invariant holds again. At one shard `at == now()`, so
    // the legacy engine's drain is unchanged.
    for (auto &pr : procs_)
        pr->wake(at);
}

void
Cluster::transmit(Packet &&pkt)
{
    panic_if(pkt.dst < 0 || pkt.dst >= nprocs_, "bad destination %d",
             pkt.dst);
    const int ss = shard_[pkt.src];
    const std::size_t bytes = pkt.isBulk() ? pkt.bulk.size() : 0;
    if (topo_ && !topo_->sameLeaf(pkt.src, pkt.dst)) {
        // The source leaf's uplink is claimed here, in the sender's
        // event order; the destination leaf's downlink is claimed when
        // the packet reaches the leaf (see arrive()), in the receiver's
        // event order. Both links stay single-owner under sharding.
        pkt.readyAt += topo_->hopLatency();
        pkt.readyAt += topo_->uplink(topo_->leafOf(pkt.src), bytes,
                                     pkt.readyAt);
        pkt.spineHop = true;
    }
    if (FaultModel *fm = faultFor(ss)) {
        FaultDecision d = fm->apply(pkt.src, pkt.dst, PacketClass::Data,
                                    sims_[ss]->now());
        if (d.drop)
            return; // Lost on the wire (or discarded by the rx CRC).
        if (d.duplicate) {
            Packet copy = pkt;
            copy.readyAt += d.dupDelay;
            routeDelivery(std::move(copy));
        }
        pkt.readyAt += d.extraDelay;
    }
    routeDelivery(std::move(pkt));
}

void
Cluster::routeDelivery(Packet &&pkt)
{
    const int ss = shard_[pkt.src], ds = shard_[pkt.dst];
    if (ss == ds) {
        scheduleDelivery(std::move(pkt));
        return;
    }
    CrossMsg m;
    m.kind = CrossMsg::Kind::Delivery;
    m.pkt = std::move(pkt);
    channel(ss, ds).push(std::move(m));
}

void
Cluster::setTracer(SpanTracer *tracer)
{
    panic_if(started_, "setTracer() must be called before run()");
    tracer_ = tracer;
    shardTracers_.clear();
    if (tracer && nshards_ > 1) {
        // Each shard records into a private tracer with a disjoint id
        // range; mergeShardTracers() folds them into tracer_ (in shard
        // order) when the run completes.
        shardTracers_.reserve(nshards_);
        for (int s = 0; s < nshards_; ++s) {
            auto t = std::make_unique<SpanTracer>();
            t->seedMsgIds(static_cast<std::uint64_t>(s) << 40);
            t->collectPendingReady(true);
            shardTracers_.push_back(std::move(t));
        }
    }
    for (auto &n : nodes_) {
        SpanTracer *t = tracer ? tracerFor(shard_[n->id()]) : nullptr;
        n->obs_ = t;
        n->nic_.attachObs(t, n->id());
    }
}

void
Cluster::mergeShardTracers()
{
    if (!tracer_ || shardTracers_.empty())
        return;
    for (const auto &t : shardTracers_)
        tracer_->absorb(*t);
    // Ready-time refinements that crossed shards (the message record
    // lives in the sender's tracer) can only be applied once every
    // shard's messages are present.
    for (const auto &t : shardTracers_)
        for (const auto &[id, ready] : t->pendingReady())
            tracer_->updateMessageReady(id, ready);
}

void
Cluster::scheduleDelivery(Packet &&pkt)
{
    const int ds = shard_[pkt.dst];
    Simulator &sim = *sims_[ds];
    SpanTracer *tr = tracerFor(ds);
    if (tr && pkt.obsMsg) {
        // The wire leg: everything between leaving the tx context and
        // the presence bit, on the destination's rx track. Fabric
        // contention, fault delays, and retransmissions all land here,
        // which is why the span is emitted at this final hand-off and
        // the message's ready time is refined to match.
        tr->span(pkt.dst, TrackKind::NicRx, SpanCat::LWire,
                 pkt.readyAt - params_.totalLatency(), pkt.readyAt,
                 pkt.obsMsg);
        tr->updateMessageReady(pkt.obsMsg, pkt.readyAt);
    }
    // Wrapped in shared_ptr because std::function requires a copyable
    // closure; the packet is only ever moved out once.
    auto p = std::make_shared<Packet>(std::move(pkt));
    sim.schedule(p->readyAt,
                 [this, p, &sim] { arrive(sim, p); });
}

void
Cluster::arrive(Simulator &sim, const std::shared_ptr<Packet> &p)
{
    if (p->spineHop && topo_) {
        // Destination-leaf downlink queueing, applied in the
        // receiver's event order now that the packet has reached the
        // leaf switch.
        p->spineHop = false;
        const int leaf = topo_->leafOf(p->dst);
        Tick extra = topo_->downlink(
            leaf, p->isBulk() ? p->bulk.size() : 0, sim.now());
        if (extra > 0) {
            p->readyAt = sim.now() + extra;
            SpanTracer *tr = tracerFor(shard_[p->dst]);
            if (tr && p->obsMsg) {
                tr->span(p->dst, TrackKind::NicRx, SpanCat::LWire,
                         sim.now(), p->readyAt, p->obsMsg);
                tr->updateMessageReady(p->obsMsg, p->readyAt);
            }
            sim.schedule(p->readyAt,
                         [this, p, &sim] { arrive(sim, p); });
            return;
        }
    }
    if (params_.occupancy == 0) {
        nodes_[p->dst]->deliver(std::move(*p));
        return;
    }
    // Occupancy extension: arrivals serialize through the receiving
    // NIC's rx context before the presence bit is set.
    Tick ready = nodes_[p->dst]->rxOccupy(sim.now());
    sim.schedule(ready,
                 [this, p] { nodes_[p->dst]->deliver(std::move(*p)); });
}

void
Cluster::scheduleCreditAck(NodeId src, NodeId dst, Tick deliver_time)
{
    const int ss = shard_[src];
    Simulator &sim = *sims_[ss];
    Tick when = deliver_time + params_.latency;
    if (FaultModel *fm = faultFor(ss)) {
        // The bare NIC ack travels dst -> src. A drop here leaks the
        // credit for good -- exactly the failure mode the reliable
        // layer exists to close. Duplicates are ignored (a doubled
        // fire-and-forget ack would mint a phantom credit).
        FaultDecision d =
            fm->apply(dst, src, PacketClass::Ack, sim.now());
        if (d.drop)
            return;
        when += d.extraDelay;
    }
    // The ack lands on the *sender's* node, whose shard is the one
    // executing this call: never a cross-shard event.
    sim.schedule(when, [this, src, dst] {
        nodes_[src]->creditReturned(dst);
    });
}

void
Cluster::sendAck(NodeId from, NodeId to, std::uint64_t cum_seq)
{
    const int fs = shard_[from];
    Simulator &sim = *sims_[fs];
    Tick when = sim.now() + params_.latency;
    if (FaultModel *fm = faultFor(fs)) {
        FaultDecision d =
            fm->apply(from, to, PacketClass::Ack, sim.now());
        if (d.drop)
            return; // Recovered by the sender's retransmission timer.
        when += d.extraDelay;
        if (d.duplicate) {
            // Cumulative acks are idempotent, so duplicates are safe.
            routeAck(from, to, cum_seq, when + d.dupDelay);
        }
    }
    routeAck(from, to, cum_seq, when);
}

void
Cluster::routeAck(NodeId from, NodeId to, std::uint64_t cum_seq,
                  Tick when)
{
    const int fs = shard_[from], ts = shard_[to];
    if (fs == ts) {
        sims_[ts]->schedule(when, [this, from, to, cum_seq] {
            nodes_[to]->reliableAckArrived(from, cum_seq);
        });
        return;
    }
    CrossMsg m;
    m.kind = CrossMsg::Kind::RelAck;
    m.when = when;
    m.from = from;
    m.to = to;
    m.cumSeq = cum_seq;
    channel(fs, ts).push(std::move(m));
}

std::uint64_t
Cluster::settle(std::uint64_t max_events)
{
    if (nshards_ == 1) {
        std::uint64_t n = sims_[0]->run(max_events);
        if (!sims_[0]->idle())
            warn("cluster did not settle within %llu events",
                 static_cast<unsigned long long>(max_events));
        return n;
    }
    // Sharded: the same windowed schedule as the engine, run serially
    // on the caller's thread (merge order is still shard order, so the
    // result is deterministic).
    std::uint64_t n = 0;
    for (;;) {
        Tick m = kTickNever;
        for (const auto &s : sims_)
            m = std::min(m, s->nextTime());
        if (m == kTickNever)
            return n;
        if (n >= max_events)
            break;
        const Tick end =
            m > kTickNever - lookahead_ ? kTickNever : m + lookahead_;
        for (int s = 0; s < nshards_; ++s)
            n += sims_[s]->runBefore(end);
        for (int s = 0; s < nshards_; ++s)
            mergeShard(s);
    }
    warn("cluster did not settle within %llu events",
         static_cast<unsigned long long>(max_events));
    return n;
}

std::uint64_t
Cluster::leakedCredits() const
{
    std::uint64_t leaked = 0;
    for (const auto &n : nodes_) {
        for (int dst = 0; dst < nprocs_; ++dst) {
            int have = n->credits(dst);
            if (have < params_.window)
                leaked += static_cast<std::uint64_t>(params_.window -
                                                     have);
        }
    }
    return leaked;
}

std::uint64_t
Cluster::totalMessages() const
{
    return metrics_.snapshot().counterOr("am.sent");
}

} // namespace nowcluster
