// Copyright 2026 The AmnesiaDB Authors
//
// Unit tests for the common substrate: Status/StatusOr, Bitmap, Histogram,
// RunningStats, CsvWriter, ascii charts, logging, the file-system module.

#include <cmath>
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "common/ascii_chart.h"
#include "common/bitmap.h"
#include "common/csv.h"
#include "common/fs.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/status.h"

namespace amnesia {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllCodesHaveDistinctNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("payload");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  AMNESIA_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  Status s = UseHalf(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// Reading the value of an error aborts in every build, Release included,
// and says which error it was.
TEST(StatusOrDeathTest, ValueOfAnErrorAbortsWithTheStatus) {
  StatusOr<int> number = Status::NotFound("no row 7");
  EXPECT_DEATH((void)number.value(),
               "StatusOr::value\\(\\) on error: NotFound: no row 7");
  EXPECT_DEATH((void)*number, "on error: NotFound: no row 7");
  StatusOr<std::string> text = Status::Internal("disk gone");
  EXPECT_DEATH((void)text->size(), "on error: Internal: disk gone");
  EXPECT_DEATH((void)std::move(text).value(), "on error: Internal: disk gone");
}

Status ReturnNotOkHelper(bool fail) {
  AMNESIA_RETURN_NOT_OK(fail ? Status::Internal("boom") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(ReturnNotOkHelper(false).ok());
  EXPECT_EQ(ReturnNotOkHelper(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Bitmap

TEST(BitmapTest, StartsCleared) {
  Bitmap b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.CountSet(), 0u);
  for (size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(BitmapTest, StartsFilledWhenRequested) {
  Bitmap b(70, true);
  EXPECT_EQ(b.CountSet(), 70u);
  EXPECT_TRUE(b.Test(69));
}

TEST(BitmapTest, SetClearAssign) {
  Bitmap b(128);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(127);
  EXPECT_EQ(b.CountSet(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  b.Assign(63, true);
  EXPECT_TRUE(b.Test(63));
  b.Assign(63, false);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.CountSet(), 3u);
}

TEST(BitmapTest, PushBackGrows) {
  Bitmap b;
  for (int i = 0; i < 200; ++i) b.PushBack(i % 3 == 0);
  EXPECT_EQ(b.size(), 200u);
  size_t expected = 0;
  for (int i = 0; i < 200; ++i) {
    if (i % 3 == 0) ++expected;
  }
  EXPECT_EQ(b.CountSet(), expected);
}

TEST(BitmapTest, CountSetPrefix) {
  Bitmap b(130);
  for (size_t i = 0; i < 130; i += 2) b.Set(i);
  EXPECT_EQ(b.CountSetPrefix(0), 0u);
  EXPECT_EQ(b.CountSetPrefix(1), 1u);
  EXPECT_EQ(b.CountSetPrefix(64), 32u);
  EXPECT_EQ(b.CountSetPrefix(130), 65u);
}

TEST(BitmapTest, SetIndicesAndForEach) {
  Bitmap b(100);
  b.Set(3);
  b.Set(64);
  b.Set(99);
  const std::vector<size_t> idx = b.SetIndices();
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 3u);
  EXPECT_EQ(idx[1], 64u);
  EXPECT_EQ(idx[2], 99u);
  size_t visits = 0;
  b.ForEachSet([&](size_t i) {
    EXPECT_TRUE(b.Test(i));
    ++visits;
  });
  EXPECT_EQ(visits, 3u);
}

TEST(BitmapTest, SelectSet) {
  Bitmap b(256);
  b.Set(10);
  b.Set(70);
  b.Set(200);
  EXPECT_EQ(b.SelectSet(0), 10u);
  EXPECT_EQ(b.SelectSet(1), 70u);
  EXPECT_EQ(b.SelectSet(2), 200u);
  EXPECT_EQ(b.SelectSet(3), b.size());  // out of population
}

TEST(BitmapTest, SelectSetManyMatchesSelectSetInInputOrder) {
  // 300 bits: word 0 sparse, words 1 and 2 all zero, word 3 dense, and a
  // partial last word (bits 256..299) holding the last set bit.
  Bitmap b(300);
  for (size_t i : {0u, 5u, 63u}) b.Set(i);
  for (size_t i = 192; i < 256; i += 2) b.Set(i);
  for (size_t i : {256u, 270u, 299u}) b.Set(i);
  const size_t population = b.CountSet();
  ASSERT_EQ(population, 38u);

  // Unsorted, repeated, first (0) and last (population - 1) set bits, the
  // first rank past the all-zero words (3), ranks inside the partial last
  // word, and ranks past the end.
  const std::vector<size_t> ranks = {37, 3,  0,  population, 36, 2, 3,
                                     35, 1,  20, 1000,       34, 4};
  const std::vector<size_t> got = b.SelectSetMany(ranks);
  ASSERT_EQ(got.size(), ranks.size());
  for (size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], b.SelectSet(ranks[i])) << "rank " << ranks[i];
  }
  EXPECT_EQ(got[0], 299u);      // last set bit
  EXPECT_EQ(got[1], 192u);      // first set bit after the zero words
  EXPECT_EQ(got[2], 0u);        // first set bit
  EXPECT_EQ(got[3], b.size());  // one past the population
  EXPECT_EQ(got[4], 270u);      // inside the partial last word
  EXPECT_EQ(got[10], b.size());

  EXPECT_TRUE(b.SelectSetMany({}).empty());
  EXPECT_EQ(Bitmap(130).SelectSetMany({0, 5}),
            (std::vector<size_t>{130, 130}));  // no set bits at all
}

TEST(BitmapTest, ResizeKeepsPrefixAndFillsNewBits) {
  Bitmap b(10);
  b.Set(5);
  b.Resize(80, true);
  EXPECT_TRUE(b.Test(5));
  EXPECT_FALSE(b.Test(4));
  EXPECT_TRUE(b.Test(10));
  EXPECT_TRUE(b.Test(79));
  EXPECT_EQ(b.CountSet(), 71u);
  b.Resize(6);
  EXPECT_EQ(b.size(), 6u);
  EXPECT_EQ(b.CountSet(), 1u);
}

TEST(BitmapTest, FillAndTrim) {
  Bitmap b(65);
  b.Fill(true);
  EXPECT_EQ(b.CountSet(), 65u);
  b.Fill(false);
  EXPECT_EQ(b.CountSet(), 0u);
}

TEST(BitmapTest, CountSetRangeMatchesPrefixDifference) {
  Bitmap b(300);
  for (size_t i = 0; i < 300; ++i) {
    if (i % 3 == 0 || i % 7 == 0) b.Set(i);
  }
  // Exhaustive over every word-boundary shape a morsel can hit.
  const size_t points[] = {0, 1, 63, 64, 65, 127, 128, 191, 200, 299, 300};
  for (size_t begin : points) {
    for (size_t end : points) {
      if (begin > end) continue;
      EXPECT_EQ(b.CountSetRange(begin, end),
                b.CountSetPrefix(end) - b.CountSetPrefix(begin))
          << "[" << begin << ", " << end << ")";
    }
  }
}

TEST(BitmapTest, ExtractWordsRealignsAnyOffset) {
  Bitmap b(300);
  for (size_t i = 0; i < 300; ++i) {
    if ((i * 2654435761u) % 5 < 2) b.Set(i);
  }
  const size_t begins[] = {0, 1, 37, 63, 64, 65, 97, 236};
  const size_t lengths[] = {0, 1, 63, 64, 65, 130};
  std::vector<uint64_t> out;
  for (size_t begin : begins) {
    for (size_t n : lengths) {
      if (begin + n > 300) continue;
      out.assign((n + 63) / 64, ~uint64_t{0});  // poison, must be rewritten
      b.ExtractWords(begin, begin + n, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((out[i >> 6] >> (i & 63)) & 1u, b.Test(begin + i) ? 1u : 0u)
            << "begin " << begin << " bit " << i;
      }
      // Bits past n must be zeroed so downstream word-ANDs are safe.
      if (n % 64 != 0 && !out.empty()) {
        EXPECT_EQ(out.back() >> (n % 64), 0u) << "begin " << begin << " n "
                                              << n;
      }
    }
  }
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, MakeRejectsBadArgs) {
  EXPECT_FALSE(Histogram::Make(0, 10, 0).ok());
  EXPECT_FALSE(Histogram::Make(10, 10, 4).ok());
  EXPECT_FALSE(Histogram::Make(11, 10, 4).ok());
  EXPECT_TRUE(Histogram::Make(0, 10, 4).ok());
}

TEST(HistogramTest, AddCountsIntoRightBuckets) {
  Histogram h = Histogram::Make(0, 100, 10).value();
  h.Add(0);
  h.Add(9);
  h.Add(10);
  h.Add(99);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
}

TEST(HistogramTest, OutOfRangeClampsIntoEdgeBuckets) {
  Histogram h = Histogram::Make(0, 100, 10).value();
  h.Add(-5);
  h.Add(1000);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
}

TEST(HistogramTest, RemoveSaturates) {
  Histogram h = Histogram::Make(0, 100, 10).value();
  h.Add(5, 3);
  h.Remove(5, 10);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.total(), 0u);
}

TEST(HistogramTest, BucketBoundsTile) {
  Histogram h = Histogram::Make(0, 97, 7).value();
  EXPECT_EQ(h.BucketLow(0), 0);
  EXPECT_EQ(h.BucketHigh(h.num_buckets() - 1), 97);
  for (size_t b = 0; b + 1 < h.num_buckets(); ++b) {
    EXPECT_EQ(h.BucketHigh(b), h.BucketLow(b + 1));
  }
}

TEST(HistogramTest, FractionAndL1Distance) {
  Histogram a = Histogram::Make(0, 100, 4).value();
  Histogram b = Histogram::Make(0, 100, 4).value();
  a.Add(10, 10);
  b.Add(80, 10);
  EXPECT_DOUBLE_EQ(a.BucketFraction(0), 1.0);
  const double d = Histogram::L1Distance(a, b).value();
  EXPECT_DOUBLE_EQ(d, 2.0);  // completely disjoint shapes
  Histogram c = Histogram::Make(0, 100, 4).value();
  c.Add(15, 5);
  EXPECT_DOUBLE_EQ(Histogram::L1Distance(a, c).value(), 0.0);
}

TEST(HistogramTest, L1DistanceRejectsMismatchedBuckets) {
  Histogram a = Histogram::Make(0, 100, 4).value();
  Histogram b = Histogram::Make(0, 100, 5).value();
  EXPECT_FALSE(Histogram::L1Distance(a, b).ok());
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h = Histogram::Make(0, 10, 2).value();
  h.Add(1, 7);
  h.Reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

// ---------------------------------------------------------- RunningStats

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 3.0;
    all.Add(x);
    (i < 40 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

// ------------------------------------------------------------------ CSV

TEST(CsvTest, PlainRows) {
  std::ostringstream out;
  CsvWriter w(&out);
  w.Header({"a", "b"});
  w.Row({"1", "2"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter w(&out);
  w.Row({"has,comma", "has\"quote", "plain"});
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(CsvTest, NumberFormatting) {
  EXPECT_EQ(CsvWriter::Num(1.5, 2), "1.50");
  EXPECT_EQ(CsvWriter::Num(int64_t{-7}), "-7");
  EXPECT_EQ(CsvWriter::Num(uint64_t{7}), "7");
}

// ----------------------------------------------------------- AsciiChart

TEST(LineChartTest, RendersSeriesAndLegend) {
  LineChart chart(20, 5);
  chart.SetTitle("demo");
  chart.AddSeries("up", {0.0, 0.5, 1.0});
  chart.SetYRange(0.0, 1.0);
  const std::string s = chart.Render();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("*=up"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
}

TEST(LineChartTest, EmptyChartSaysNoData) {
  LineChart chart;
  EXPECT_NE(chart.Render().find("(no data)"), std::string::npos);
}

TEST(LineChartTest, DeterministicRender) {
  LineChart a(30, 8), b(30, 8);
  for (LineChart* c : {&a, &b}) {
    c->AddSeries("x", {1.0, 2.0, 3.0, 2.0});
  }
  EXPECT_EQ(a.Render(), b.Render());
}

TEST(ShadeMapTest, BrightnessFollowsValues) {
  ShadeMap map(10);
  map.AddRow("all-on", std::vector<double>(10, 1.0));
  map.AddRow("all-off", std::vector<double>(10, 0.0));
  const std::string s = map.Render();
  EXPECT_NE(s.find("@@@@@@@@@@"), std::string::npos);
  EXPECT_NE(s.find("          "), std::string::npos);
}

TEST(ShadeMapTest, ResamplesRows) {
  ShadeMap map(4);
  map.AddRow("r", {0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0});
  const std::string s = map.Render();
  // Left half dark, right half bright after nearest-neighbour resampling.
  EXPECT_NE(s.find("  @@"), std::string::npos);
}

// -------------------------------------------------------------- Logging

TEST(LoggingTest, LevelRoundTrip) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(before);
}

TEST(LoggingTest, SuppressedMessageDoesNotCrash) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  AMNESIA_LOG(kDebug) << "invisible " << 42;
  SetLogLevel(before);
}

// ------------------------------------------------------------ File system

TEST(FsTest, ReplaceFileKeepsOldContentWhenTheWriteFails) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_fs_replace_test")
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteBytesFileAtomic({1, 2, 3}, path).ok());

  const Status failed = ReplaceFile(path, /*sync=*/true, [](std::FILE* f) {
    std::fputc(9, f);
    return Status::Internal("body failed");
  });
  EXPECT_EQ(failed.message(), "body failed");
  EXPECT_EQ(ReadBytesFile(path).value(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(ListDirEntries(dir).value(), std::vector<std::string>{"file"});

  ASSERT_TRUE(ReplaceFile(path, /*sync=*/true, [](std::FILE* f) {
                std::fputc(9, f);
                return Status::OK();
              }).ok());
  EXPECT_EQ(ReadBytesFile(path).value(), std::vector<uint8_t>{9});
  EXPECT_EQ(ListDirEntries(dir).value(), std::vector<std::string>{"file"});
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  EXPECT_FALSE(StatPath(dir).exists);
}

TEST(FsTest, RemovesRenamesAndTruncatesWithDistinctCodes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "amnesia_fs_entries_test")
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(EnsureDir(dir).ok());
  for (const char* name : {"a.seg", "b.seg", "keep"}) {
    ASSERT_TRUE(WriteBytesFileAtomic({1, 2, 3, 4}, dir + "/" + name).ok());
  }

  ASSERT_TRUE(TruncateFile(dir + "/keep", 1).ok());
  EXPECT_EQ(ReadBytesFile(dir + "/keep").value(), std::vector<uint8_t>{1});
  EXPECT_EQ(TruncateFile(dir + "/none", 0).code(), StatusCode::kInternal);

  uint64_t removed = 0;
  ASSERT_TRUE(RemoveMatchingFiles(
                  dir,
                  [](const std::string& name) {
                    return name.size() > 4 &&
                           name.compare(name.size() - 4, 4, ".seg") == 0;
                  },
                  &removed)
                  .ok());
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(ListDirEntries(dir).value(), std::vector<std::string>{"keep"});
  EXPECT_TRUE(
      RemoveMatchingFiles(dir + "/none", [](const std::string&) {
        return true;
      }).ok());

  // A missing source is NotFound; a non-empty directory target is
  // FailedPrecondition; a file target is replaced.
  EXPECT_EQ(RenamePath(dir + "/none", dir + "/x").code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(EnsureDir(dir + "/full").ok());
  ASSERT_TRUE(EnsureDir(dir + "/full.dropped").ok());
  ASSERT_TRUE(WriteBytesFileAtomic({5}, dir + "/full.dropped/f").ok());
  EXPECT_EQ(RenamePath(dir + "/full", dir + "/full.dropped").code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(WriteBytesFileAtomic({7}, dir + "/other").ok());
  ASSERT_TRUE(RenamePath(dir + "/other", dir + "/keep").ok());
  EXPECT_EQ(ReadBytesFile(dir + "/keep").value(), std::vector<uint8_t>{7});

  ASSERT_TRUE(RemoveFile(dir + "/keep").ok());
  EXPECT_EQ(RemoveFile(dir + "/keep").code(), StatusCode::kInternal);
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

}  // namespace
}  // namespace amnesia
