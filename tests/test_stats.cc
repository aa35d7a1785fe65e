/**
 * @file
 * Unit tests for the instrumentation summaries (Table 4 / Figure 4).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "splitc/splitc.hh"
#include "stats/comm_stats.hh"

namespace nowcluster {
namespace {

TEST(Stats, SummaryComputesRates)
{
    SplitCRuntime rt(4, MachineConfig::berkeleyNow().params);
    std::vector<std::int64_t> cell(4, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        for (int i = 0; i < 50; ++i)
            sc.put(gptr((sc.myProc() + 1) % 4, &cell[sc.myProc()]),
                   std::int64_t(i));
        sc.sync();
        sc.barrier();
        sc.barrier();
    }));
    CommSummary s = summarizeComm(rt.cluster(), rt.runtime(), "test");
    EXPECT_EQ(s.nprocs, 4);
    EXPECT_GT(s.avgMsgsPerProc, 100u); // 50 puts + 50 acks + barriers.
    EXPECT_GT(s.msgsPerProcPerMs, 0.0);
    EXPECT_GT(s.msgIntervalUs, 0.0);
    EXPECT_GT(s.barrierIntervalMs, 0.0);
    EXPECT_EQ(s.pctBulk, 0.0);
    EXPECT_EQ(s.pctReads, 0.0);
    EXPECT_GT(s.smallKBps, 0.0);
    EXPECT_EQ(s.bulkKBps, 0.0);
}

TEST(Stats, ReadTaggingFlowsToSummary)
{
    SplitCRuntime rt(2, MachineConfig::berkeleyNow().params);
    std::vector<std::int64_t> cell(2, 7);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        if (sc.myProc() == 0) {
            for (int i = 0; i < 10; ++i)
                sc.read(gptr(1, &cell[1]));
        }
        sc.barrier();
    }));
    CommSummary s = summarizeComm(rt.cluster(), rt.runtime(), "t");
    EXPECT_GT(s.pctReads, 0.0);
}

TEST(Stats, MatrixRecordsPerDestinationCounts)
{
    SplitCRuntime rt(3, MachineConfig::berkeleyNow().params);
    std::vector<std::int64_t> cell(3, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        if (sc.myProc() == 0) {
            for (int i = 0; i < 7; ++i)
                sc.put(gptr(1, &cell[1]), std::int64_t(1));
            sc.sync();
        }
        sc.barrier();
    }));
    CommMatrix m = commMatrix(rt.cluster());
    EXPECT_EQ(m.nprocs, 3);
    EXPECT_GE(m.at(0, 1), 7u);
    // Replies from 1 back to 0 (put acks).
    EXPECT_GE(m.at(1, 0), 7u);
    EXPECT_EQ(m.at(0, 0), 0u);
    EXPECT_GT(m.maxCount(), 0u);
}

TEST(Stats, AsciiArtHasOneRowPerProc)
{
    CommMatrix m;
    m.nprocs = 2;
    m.counts = {0, 10, 5, 0};
    std::string art = m.ascii();
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
    EXPECT_NE(art.find('@'), std::string::npos); // Max cell is dark.
}

TEST(Stats, PgmRoundTrip)
{
    CommMatrix m;
    m.nprocs = 2;
    m.counts = {0, 4, 2, 0};
    std::string path = "/tmp/nowcluster_test_matrix.pgm";
    ASSERT_TRUE(m.writePgm(path, 2));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[3] = {};
    ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
    EXPECT_EQ(std::string(magic), "P5");
    std::fclose(f);
    std::remove(path.c_str());
}

} // namespace
} // namespace nowcluster

// ----------------------------------------------------------------------
// Message tracing.
// ----------------------------------------------------------------------

#include "obs/tracer.hh"
#include "stats/trace.hh"

namespace nowcluster {
namespace {

TEST(Trace, RecordsEveryMessageOfARun)
{
    SplitCRuntime rt(2, MachineConfig::berkeleyNow().params);
    SpanTracer tracer;
    rt.cluster().setTracer(&tracer);
    std::vector<std::int64_t> cell(2, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        if (sc.myProc() == 0) {
            for (int i = 0; i < 5; ++i)
                sc.put(gptr(1, &cell[1]), std::int64_t(i));
            sc.sync();
        }
        sc.barrier();
    }));
    const MessageTrace trace = messageTraceFromObs(tracer);
    std::uint64_t sent = rt.cluster().node(0).counters().sent +
                         rt.cluster().node(1).counters().sent;
    EXPECT_EQ(trace.size(), sent);
    for (const TraceRecord &r : trace.records()) {
        EXPECT_LT(r.issuedAt, r.readyAt);
        EXPECT_GE(r.readyAt - r.issuedAt, usec(5.0)); // >= L.
    }
    EXPECT_GT(trace.meanFlightUs(), 5.0);
}

// The derivation rule, on a hand-built tracer: a message is issued when
// its Cpu-track tx-queue stall ends, short messages carry no byte
// count, and retransmitted copies are not application messages.
TEST(Trace, DerivedFromSpansIssuesAfterTheTxQueueStall)
{
    SpanTracer tracer;
    auto msg = [&](NodeId src, Tick issued, PacketKind kind,
                   std::uint32_t bytes, bool retx) {
        ObsMessage m;
        m.id = tracer.newMsgId();
        m.src = src;
        m.dst = 1 - src;
        m.issued = issued;
        m.ready = issued + usec(10);
        m.kind = static_cast<std::uint8_t>(kind);
        m.retx = retx;
        m.bytes = bytes;
        tracer.message(m);
        return m.id;
    };
    std::uint64_t stalled = msg(0, usec(1), PacketKind::Request, 28, false);
    tracer.span(0, TrackKind::Cpu, SpanCat::GapStall, usec(1), usec(4),
                stalled);
    std::uint64_t bulk = msg(1, usec(2), PacketKind::BulkFrag, 4096, false);
    // A NIC-side stall does not hold the host.
    tracer.span(1, TrackKind::NicTx, SpanCat::GapStall, usec(2), usec(9),
                bulk);
    msg(0, usec(3), PacketKind::OneWay, 28, true);

    const MessageTrace trace = messageTraceFromObs(tracer);
    ASSERT_EQ(trace.size(), 2u);
    const TraceRecord &a = trace.records()[0];
    EXPECT_EQ(a.issuedAt, usec(4));
    EXPECT_EQ(a.readyAt, usec(11));
    EXPECT_EQ(a.kind, PacketKind::Request);
    EXPECT_EQ(a.bytes, 0u);
    const TraceRecord &b = trace.records()[1];
    EXPECT_EQ(b.issuedAt, usec(2));
    EXPECT_EQ(b.src, 1);
    EXPECT_EQ(b.bytes, 4096u);
}

TEST(Trace, BurstFractionSeparatesBurstyFromPaced)
{
    std::vector<TraceRecord> bursty, paced;
    for (int i = 0; i < 100; ++i) {
        bursty.push_back({i * usec(2), i * usec(2) + usec(5), 0, 1,
                          PacketKind::Request, 0});
        paced.push_back({i * usec(100), i * usec(100) + usec(5), 0, 1,
                         PacketKind::Request, 0});
    }
    EXPECT_DOUBLE_EQ(MessageTrace(bursty).burstFraction(usec(10)), 1.0);
    EXPECT_DOUBLE_EQ(MessageTrace(paced).burstFraction(usec(10)), 0.0);
}

TEST(Trace, CsvRoundTrip)
{
    MessageTrace t({{usec(1), usec(7), 0, 1, PacketKind::BulkFrag, 4096}});
    std::string path = "/tmp/nowcluster_trace_test.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[256];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr); // Header.
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_NE(std::string(line).find("bulk"), std::string::npos);
    EXPECT_NE(std::string(line).find("4096"), std::string::npos);
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(Trace, PacketKindNames)
{
    EXPECT_STREQ(packetKindName(PacketKind::Request), "request");
    EXPECT_STREQ(packetKindName(PacketKind::Reply), "reply");
    EXPECT_STREQ(packetKindName(PacketKind::OneWay), "oneway");
    EXPECT_STREQ(packetKindName(PacketKind::BulkFrag), "bulk");
}

TEST(Trace, StatsOnEmptyAndSingleRecordTraces)
{
    MessageTrace empty;
    EXPECT_DOUBLE_EQ(empty.meanFlightUs(), 0.0);
    EXPECT_DOUBLE_EQ(empty.burstFraction(usec(10)), 0.0);

    MessageTrace one({{usec(3), usec(9), 0, 1, PacketKind::OneWay, 0}});
    EXPECT_DOUBLE_EQ(one.meanFlightUs(), 6.0);
    // A single message has no consecutive pair, hence no bursts.
    EXPECT_DOUBLE_EQ(one.burstFraction(usec(10)), 0.0);
}

} // namespace
} // namespace nowcluster
