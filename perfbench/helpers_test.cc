// Unit tests for the benchmark driver's measurement helpers (harness.h).
//
//   cmake --build .bench_build/perfbench --target perfbench_helpers_test
//   .bench_build/perfbench/perfbench_helpers_test
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness.h"

namespace datacron::perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = {4, 1, 3, 2};
  EXPECT_EQ(Percentile(&v, 50), 2);
  EXPECT_EQ(Percentile(&v, 75), 3);
  EXPECT_EQ(Percentile(&v, 100), 4);
  EXPECT_EQ(Percentile(&v, 0), 1);

  std::vector<double> ten(10);
  std::iota(ten.begin(), ten.end(), 1.0);
  EXPECT_EQ(Percentile(&ten, 90), 9);
  EXPECT_EQ(Percentile(&ten, 99), 10);
  EXPECT_EQ(Percentile(&ten, 50), 5);
}

TEST(PercentileTest, EmptyAndSingle) {
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 50), 0);
  std::vector<double> one = {7.5};
  EXPECT_EQ(Percentile(&one, 1), 7.5);
  EXPECT_EQ(Percentile(&one, 99), 7.5);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(5000, 20000.0, 42);
  const auto b = PoissonSchedule(5000, 20000.0, 42);
  const auto c = PoissonSchedule(5000, 20000.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonScheduleTest, AscendingAtTheOfferedRate) {
  const std::size_t n = 200000;
  const auto due = PoissonSchedule(n, 10000.0, 7);
  ASSERT_EQ(due.size(), n);
  for (std::size_t i = 1; i < n; ++i) ASSERT_GE(due[i], due[i - 1]);
  // n arrivals at 10k/s span n / 10k seconds; the mean gap's relative
  // standard error is 1/sqrt(n) (0.22%), so 2% is far outside chance.
  const double span_s = static_cast<double>(due.back()) / 1e9;
  EXPECT_NEAR(span_s, n / 10000.0, 0.02 * n / 10000.0);
}

TEST(DueBookTest, BatchCallChargesEveryReportFromItsOwnDueTime) {
  const std::vector<std::int64_t> due = {100, 200, 300, 1000};
  DueBook book(due);
  EXPECT_EQ(book.DueCount(50), 0u);
  EXPECT_EQ(book.DueCount(300), 3u);
  // One call starting at 350 takes the three due reports, returns at 500.
  book.Record(3, 350, 500);
  EXPECT_EQ(book.next(), 3u);
  EXPECT_EQ(book.backlog_max(), 3u);
  ASSERT_EQ(book.emit_ms().size(), 3u);
  EXPECT_DOUBLE_EQ(book.emit_ms()[0], 400 / 1e6);
  EXPECT_DOUBLE_EQ(book.emit_ms()[1], 300 / 1e6);
  EXPECT_DOUBLE_EQ(book.emit_ms()[2], 200 / 1e6);
  EXPECT_DOUBLE_EQ(book.late_ms()[0], 250 / 1e6);
  EXPECT_DOUBLE_EQ(book.late_ms()[2], 50 / 1e6);
  // The last report: call starts on time, returns 40 ns later.
  EXPECT_EQ(book.DueCount(999), 0u);
  book.Record(1, 1000, 1040);
  EXPECT_DOUBLE_EQ(book.emit_ms()[3], 40 / 1e6);
  EXPECT_EQ(book.backlog_max(), 3u);
}

TEST(DigestTest, OrderSensitive) {
  Event a;
  a.kind = EventKind::kEncounter;
  a.time = 10;
  a.entities = {1, 2};
  a.label = "x";
  Event b = a;
  b.time = 11;
  Digest ab;
  ab.Add(a);
  ab.Add(b);
  Digest ba;
  ba.Add(b);
  ba.Add(a);
  Digest ab2;
  ab2.Add(a);
  ab2.Add(b);
  EXPECT_NE(ab.value(), ba.value());
  EXPECT_EQ(ab.value(), ab2.value());

  // Field boundaries matter: "ab"+"c" differs from "a"+"bc".
  Digest s1;
  s1.Str("ab");
  s1.Str("c");
  Digest s2;
  s2.Str("a");
  s2.Str("bc");
  EXPECT_NE(s1.value(), s2.value());
}

TEST(DigestTest, CanonicalDeltaOrderIgnoresPushOrderAndHotspots) {
  const SubDelta enter{5, DeltaKind::kEnter, 100, 1000, 0.0};
  const SubDelta exit{3, DeltaKind::kExit, 200, 1000, 60.0};
  const SubDelta later{1, DeltaKind::kEnter, 100, 2000, 0.0};
  const SubDelta hot{9, DeltaKind::kHotspotOn, 0, 1000, 12.0};
  std::vector<SubDelta> pushed_serial = {enter, exit, later};
  std::vector<SubDelta> pushed_batched = {later, hot, exit, enter};
  CanonicalizeDeltas(&pushed_serial);
  CanonicalizeDeltas(&pushed_batched);
  EXPECT_EQ(pushed_serial, pushed_batched);
  ASSERT_EQ(pushed_serial.size(), 3u);
  EXPECT_EQ(pushed_serial.front(), enter);
  EXPECT_EQ(pushed_serial.back(), later);
}

TEST(TriggerIndexTest, MatchesDeltasToReportsByEntityAndTimestamp) {
  TriggerIndex idx;
  idx.Add(7, 1000, 0);
  idx.Add(8, 1000, 1);
  idx.Add(7, 2000, 2);
  idx.Seal();
  EXPECT_EQ(idx.Find(7, 1000), 0);
  EXPECT_EQ(idx.Find(8, 1000), 1);
  EXPECT_EQ(idx.Find(7, 2000), 2);
  EXPECT_EQ(idx.Find(8, 2000), -1);
  EXPECT_EQ(idx.Find(9, 1000), -1);

  const SubDelta geofence{1, DeltaKind::kDwell, 7, 2000, 600000.0};
  const SubDelta proximity{2, DeltaKind::kProximity, 8, 1000, 50.0};
  EXPECT_TRUE(IsGeofenceDelta(geofence));
  EXPECT_FALSE(IsGeofenceDelta(proximity));
  EXPECT_EQ(idx.Find(geofence.entity, geofence.time), 2);
}

}  // namespace
}  // namespace datacron::perfbench
