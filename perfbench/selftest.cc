// Unit tests of the benchmark's own logic.
#include <gtest/gtest.h>

#include "net/capture.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using moputil::Millis;

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(HighestReportablePercentile(9), 0.0);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(199), 90.0);
  EXPECT_EQ(HighestReportablePercentile(200), 95.0);
  EXPECT_EQ(HighestReportablePercentile(999), 95.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
}

TEST(PercentileRule, SummaryReportsMedianAndQualifiedTail) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  TimingSummary s = Summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 90.1);
  EXPECT_EQ(Summarize({1, 2, 3}).tail_pct, 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  Tracer t;
  int root = t.Add("root", 0, 10, -1, 0);
  int a = t.Add("a", 1, 3, root, 0);
  t.Add("b", 2, 5, root, 0);   // overlaps a: counted once
  t.Add("c", 8, 12, root, 0);  // runs past the parent: clipped
  t.Add("grandchild", 1, 2, a, 0);
  EXPECT_DOUBLE_EQ(t.SelfSeconds(root), 10 - (4 + 2));
  EXPECT_DOUBLE_EQ(t.SelfSeconds(a), 1);
  EXPECT_DOUBLE_EQ(t.SelfSecondsOf("a"), 1);
  EXPECT_DOUBLE_EQ(t.TotalSecondsOf("root"), 10);
}

TEST(Spans, NestedScopesRecordParents) {
  Tracer t;
  {
    ScopedSpan outer(&t, "outer", 3);
    ScopedSpan inner(&t, "inner", 3);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].run, 3);
  EXPECT_GE(t.spans()[0].end_s, t.spans()[1].end_s);
  ScopedSpan noop(nullptr, "untraced", 0);  // a null tracer records nothing
  noop.Sample("events", 1);
  t.Sample(1, "events", 42);
  EXPECT_NE(t.ToJson().find("\"counters\": {\"events\": 42}"), std::string::npos);
}

TEST(KarnTruth, RetransmittedSynIsTimedFromTheLastSyn) {
  mopnet::CaptureLog log;
  moppkt::SocketAddr local{moppkt::IpAddr(100, 64, 0, 2), 33000};
  moppkt::SocketAddr remote{moppkt::IpAddr(93, 70, 0, 1), 80};
  moppkt::SocketAddr other{moppkt::IpAddr(93, 70, 0, 2), 80};
  using mopnet::CaptureDir;
  using mopnet::CaptureEvent;
  log.Record(Millis(0), CaptureEvent::kTcpSyn, CaptureDir::kOut, local, remote);
  log.Record(Millis(5), CaptureEvent::kTcpSyn, CaptureDir::kOut, local, other);
  log.Record(Millis(25), CaptureEvent::kTcpSynAck, CaptureDir::kIn, local, other);
  log.Record(Millis(1000), CaptureEvent::kTcpSyn, CaptureDir::kOut, local, remote);
  log.Record(Millis(1020), CaptureEvent::kTcpSynAck, CaptureDir::kIn, local, remote);

  auto hs = HandshakesByRemote(log.records());
  ASSERT_TRUE(hs[remote].complete());
  EXPECT_EQ(hs[remote].syns, 2);
  EXPECT_EQ(hs[remote].karn_rtt(), Millis(20));
  EXPECT_EQ(hs[remote].connect_time(), Millis(1020));
  EXPECT_EQ(hs[other].syns, 1);
  EXPECT_EQ(hs[other].karn_rtt(), Millis(20));
  // The capture log's own truth matches the earliest SYN: the blind spot
  // the benchmark must not share.
  EXPECT_EQ(log.AllHandshakeRtts(remote).front(), Millis(1020));
}

TEST(KarnTruth, HandshakeWithoutSynAckIsIncomplete) {
  mopnet::CaptureLog log;
  moppkt::SocketAddr local{moppkt::IpAddr(100, 64, 0, 2), 33001};
  moppkt::SocketAddr remote{moppkt::IpAddr(93, 70, 0, 3), 80};
  for (int i = 0; i < 3; ++i) {
    log.Record(Millis(1000.0 * i), mopnet::CaptureEvent::kTcpSyn, mopnet::CaptureDir::kOut, local,
               remote);
  }
  auto hs = HandshakesByRemote(log.records());
  EXPECT_FALSE(hs[remote].complete());
  EXPECT_EQ(hs[remote].syns, 3);
}

TEST(EchoMarks, CumulativeBytesMarkEachPing) {
  mopnet::CaptureLog log;
  moppkt::SocketAddr local{moppkt::IpAddr(100, 64, 0, 2), 33002};
  moppkt::SocketAddr remote{moppkt::IpAddr(93, 80, 0, 1), 7};
  using mopnet::CaptureDir;
  using mopnet::CaptureEvent;
  log.Record(Millis(1), CaptureEvent::kTcpData, CaptureDir::kOut, local, remote, 64);
  log.Record(Millis(2), CaptureEvent::kTcpData, CaptureDir::kOut, local, remote, 64);
  log.Record(Millis(9), CaptureEvent::kTcpData, CaptureDir::kIn, local, remote, 100);
  log.Record(Millis(10), CaptureEvent::kTcpData, CaptureDir::kIn, local, remote, 28);
  auto marks = EchoMarksByRemote(log.records(), {remote}, 64);
  EXPECT_EQ(marks[remote].out, (std::vector<moputil::SimTime>{Millis(1), Millis(2)}));
  EXPECT_EQ(marks[remote].in, (std::vector<moputil::SimTime>{Millis(9), Millis(10)}));
}

TEST(ErrorRate, FailedChecksCount) {
  Tally t;
  t.Op(true, "ok");
  t.Op(true, "ok");
  t.Op(false, "response short by 10 bytes");
  t.Op(true, "ok");
  EXPECT_EQ(t.attempted(), 4u);
  EXPECT_EQ(t.failed(), 1u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 0.25);
  t.Check(true, "fine");
  t.Check(false, "record attributed to the wrong app");
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 0.5);
  ASSERT_EQ(t.first_failures().size(), 2u);
  EXPECT_EQ(t.first_failures()[1], "record attributed to the wrong app");

  Tally merged;
  merged.Merge(t);
  EXPECT_EQ(merged.attempted(), 4u);
  EXPECT_EQ(merged.failed(), 2u);
}

TEST(Workloads, WorldSeedsComeFromTheSeedOnly) {
  EXPECT_EQ(WorldSeeds(7, 3), WorldSeeds(7, 3));
  EXPECT_NE(WorldSeeds(7, 3), WorldSeeds(8, 3));
  EXPECT_EQ(WorldSeeds(7, 2)[1], WorldSeeds(7, 3)[1]);
}

}  // namespace
}  // namespace perfbench
