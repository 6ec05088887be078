#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "corr/pearson.h"
#include "engine/dangoron_engine.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

TEST(PairIdTest, RoundTripsAllPairs) {
  for (const int64_t n : {2, 3, 5, 17, 64, 129, 500}) {
    int64_t expected_id = 0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        const int64_t id = BasicWindowIndex::PairId(i, j, n);
        EXPECT_EQ(id, expected_id) << "n=" << n;
        int64_t ri = 0;
        int64_t rj = 0;
        BasicWindowIndex::PairFromId(id, n, &ri, &rj);
        EXPECT_EQ(ri, i);
        EXPECT_EQ(rj, j);
        ++expected_id;
      }
    }
    EXPECT_EQ(expected_id, n * (n - 1) / 2);
  }
}

TEST(PairIdTest, ClosedFormInversionSurvivesHugeN) {
  // The closed-form sqrt inversion must stay exact far beyond any size the
  // exhaustive round trip can cover, including the first and last ids of
  // each row, where an off-by-one triangular root would show.
  for (const int64_t n : {100000, 1 << 20}) {
    for (const int64_t i : {int64_t{0}, int64_t{1}, n / 3, n - 3, n - 2}) {
      for (const int64_t j : {i + 1, i + 2, (i + n) / 2, n - 1}) {
        if (j <= i || j >= n) {
          continue;
        }
        int64_t ri = 0;
        int64_t rj = 0;
        BasicWindowIndex::PairFromId(BasicWindowIndex::PairId(i, j, n), n,
                                     &ri, &rj);
        EXPECT_EQ(ri, i) << "n=" << n << " j=" << j;
        EXPECT_EQ(rj, j) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(PairIdTest, OrderInsensitive) {
  EXPECT_EQ(BasicWindowIndex::PairId(3, 7, 10),
            BasicWindowIndex::PairId(7, 3, 10));
}

TEST(BasicWindowIndexTest, RejectsBadInput) {
  Rng rng(1);
  TimeSeriesMatrix data = GenerateWhiteNoise(4, 100, &rng);

  BasicWindowIndexOptions options;
  options.basic_window = 0;
  EXPECT_FALSE(BasicWindowIndex::Build(data, options).ok());

  options.basic_window = 200;  // longer than the series
  EXPECT_FALSE(BasicWindowIndex::Build(data, options).ok());

  options.basic_window = 10;
  TimeSeriesMatrix empty;
  EXPECT_FALSE(BasicWindowIndex::Build(empty, options).ok());

  data.Set(1, 5, MissingValue());
  EXPECT_FALSE(BasicWindowIndex::Build(data, options).ok());
}

TEST(BasicWindowIndexTest, RaggedTailIsTruncated) {
  Rng rng(2);
  TimeSeriesMatrix data = GenerateWhiteNoise(2, 103, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 10;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_basic_windows(), 10);
  EXPECT_EQ(index->basic_window(), 10);
  EXPECT_EQ(index->num_series(), 2);
  EXPECT_EQ(index->num_pairs(), 1);
}

TEST(BasicWindowIndexTest, PerSeriesPrefixSumsMatchDirect) {
  Rng rng(3);
  TimeSeriesMatrix data = GenerateWhiteNoise(3, 96, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 8;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());

  for (int64_t s = 0; s < 3; ++s) {
    for (int64_t lo = 0; lo < 12; ++lo) {
      for (int64_t hi = lo + 1; hi <= 12; ++hi) {
        double sum = 0.0;
        double sumsq = 0.0;
        for (int64_t t = lo * 8; t < hi * 8; ++t) {
          const double v = data.Get(s, t);
          sum += v;
          sumsq += v * v;
        }
        EXPECT_NEAR(index->SumRange(s, lo, hi), sum, 1e-9);
        EXPECT_NEAR(index->SumSqRange(s, lo, hi), sumsq, 1e-9);
      }
    }
  }
}

TEST(BasicWindowIndexTest, WindowMeanAndStdMatchOracle) {
  Rng rng(4);
  TimeSeriesMatrix data = GenerateWhiteNoise(2, 64, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 16;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());

  for (int64_t s = 0; s < 2; ++s) {
    const auto stats = ComputeBasicWindowStats(data.Row(s), 16);
    for (int64_t w = 0; w < 4; ++w) {
      EXPECT_NEAR(index->WindowMean(s, w), stats[static_cast<size_t>(w)].mean,
                  1e-10);
      EXPECT_NEAR(index->WindowStdDev(s, w),
                  stats[static_cast<size_t>(w)].stddev, 1e-10);
    }
  }
}

TEST(BasicWindowIndexTest, PairWindowCorrelationMatchesOracle) {
  Rng rng(5);
  std::vector<double> x, y;
  GenerateCorrelatedPair(120, 0.7, &rng, &x, &y);
  auto matrix = TimeSeriesMatrix::FromRows({x, y});
  ASSERT_TRUE(matrix.ok());
  BasicWindowIndexOptions options;
  options.basic_window = 12;
  const auto index = BasicWindowIndex::Build(*matrix, options);
  ASSERT_TRUE(index.ok());

  const std::vector<double> oracle = ComputeBasicWindowCorrelations(x, y, 12);
  for (int64_t w = 0; w < 10; ++w) {
    EXPECT_NEAR(index->PairWindowCorrelation(0, w),
                oracle[static_cast<size_t>(w)], 1e-9)
        << "w=" << w;
  }
}

TEST(BasicWindowIndexTest, OneMinusCorrRangeIsMonotonePrefix) {
  Rng rng(6);
  TimeSeriesMatrix data = GenerateWhiteNoise(2, 200, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 10;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());
  double previous = 0.0;
  for (int64_t hi = 1; hi <= 20; ++hi) {
    const double value = index->OneMinusCorrRange(0, 0, hi);
    // c in [-1, 1] so each term (1 - c) is in [0, 2]: non-decreasing prefix.
    EXPECT_GE(value, previous - 1e-12);
    EXPECT_LE(value - previous, 2.0 + 1e-12);
    previous = value;
  }
}

// Parameterized: exact range correlation from the sketch must equal the
// naive Pearson over the same columns for every geometry.
class SketchRangeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(SketchRangeSweep, RangeCorrelationMatchesNaive) {
  const int64_t b = std::get<0>(GetParam());
  const int64_t num_series = std::get<1>(GetParam());
  const int64_t nb = 15;
  Rng rng(static_cast<uint64_t>(100 + b + num_series));
  TimeSeriesMatrix data = GenerateWhiteNoise(num_series, b * nb, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = b;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());

  for (int64_t i = 0; i < num_series; ++i) {
    for (int64_t j = i + 1; j < num_series; ++j) {
      const int64_t p = BasicWindowIndex::PairId(i, j, num_series);
      for (const auto& [lo, hi] :
           {std::pair<int64_t, int64_t>{0, nb}, {0, 3}, {5, 9}, {nb - 2, nb}}) {
        const double expected = PearsonNaive(
            data.RowRange(i, lo * b, (hi - lo) * b),
            data.RowRange(j, lo * b, (hi - lo) * b));
        EXPECT_NEAR(index->PairRangeCorrelation(p, lo, hi), expected, 1e-8)
            << "pair (" << i << "," << j << ") range [" << lo << "," << hi
            << ")";
        EXPECT_NEAR(index->RangeCorrelationFromRaw(i, j, lo, hi), expected,
                    1e-8);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SketchRangeSweep,
    ::testing::Combine(::testing::Values<int64_t>(4, 9, 24),
                       ::testing::Values<int64_t>(2, 5, 8)));

TEST(BasicWindowIndexTest, ParallelBuildMatchesSequential) {
  Rng rng(7);
  TimeSeriesMatrix data = GenerateWhiteNoise(10, 240, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 24;
  const auto sequential = BasicWindowIndex::Build(data, options);
  ThreadPool pool(4);
  const auto parallel = BasicWindowIndex::Build(data, options, &pool);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  for (int64_t p = 0; p < sequential->num_pairs(); ++p) {
    for (int64_t w = 0; w < sequential->num_basic_windows(); ++w) {
      EXPECT_DOUBLE_EQ(sequential->DotRange(p, w, w + 1),
                       parallel->DotRange(p, w, w + 1));
      EXPECT_DOUBLE_EQ(sequential->PairWindowCorrelation(p, w),
                       parallel->PairWindowCorrelation(p, w));
    }
  }
}

TEST(BasicWindowIndexTest, NoPairSketchesMode) {
  Rng rng(8);
  TimeSeriesMatrix data = GenerateWhiteNoise(4, 64, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 8;
  options.build_pair_sketches = false;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->has_pair_sketches());
  // Per-series statistics still work.
  EXPECT_NEAR(index->SumRange(0, 0, 8),
              [&] {
                double sum = 0;
                for (int64_t t = 0; t < 64; ++t) sum += data.Get(0, t);
                return sum;
              }(),
              1e-9);
  // Raw-data range correlation works without pair sketches.
  const double expected =
      PearsonNaive(data.RowRange(0, 0, 64), data.RowRange(1, 0, 64));
  EXPECT_NEAR(index->RangeCorrelationFromRaw(0, 1, 0, 8), expected, 1e-9);
}

TEST(BasicWindowIndexTest, MemoryAccounting) {
  Rng rng(9);
  TimeSeriesMatrix data = GenerateWhiteNoise(4, 64, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 8;
  const auto with_pairs = BasicWindowIndex::Build(data, options);
  options.build_pair_sketches = false;
  const auto without_pairs = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(with_pairs.ok());
  ASSERT_TRUE(without_pairs.ok());
  EXPECT_GT(with_pairs->MemoryBytes(), without_pairs->MemoryBytes());
  EXPECT_GT(without_pairs->MemoryBytes(), 0);
}

// --------------------------------------------------------- pair ranges --

// Pair-range builds. 110 series make three 48-series Gram tiles, the last
// ragged (14 rows: a row-group remainder), and 21 basic windows end in a
// ragged 5-window batch, so every kernel tail is exercised.
constexpr int64_t kRangeSeries = 110;
constexpr int64_t kRangeBasicWindow = 24;
constexpr int64_t kRangeWindows = 21;

TimeSeriesMatrix RangeTestData() {
  Rng rng(42);
  return GenerateWhiteNoise(kRangeSeries, kRangeBasicWindow * kRangeWindows,
                            &rng);
}

BasicWindowIndexOptions RangeOptions(int64_t pair_begin, int64_t pair_end) {
  BasicWindowIndexOptions options;
  options.basic_window = kRangeBasicWindow;
  options.pair_begin = pair_begin;
  options.pair_end = pair_end;
  return options;
}

// Ranges that cut mid-row, mid-tile (and mid 8-pair group), hold a single
// pair, are empty, or over-shoot the pair count.
std::vector<std::pair<int64_t, int64_t>> RangeCuts() {
  const int64_t n = kRangeSeries;
  const int64_t num_pairs = n * (n - 1) / 2;
  return {
      {BasicWindowIndex::PairId(3, 50, n), BasicWindowIndex::PairId(7, 20, n)},
      {BasicWindowIndex::PairId(50, 53, n) + 3,
       BasicWindowIndex::PairId(61, 100, n) + 5},
      {BasicWindowIndex::PairId(97, 99, n),
       BasicWindowIndex::PairId(105, 109, n)},
      {777, 778},
      {400, 400},
      {num_pairs - 1000, num_pairs + 12345},
      {0, 1},
  };
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(PairRangeIndexTest, RangeRowsAreBitIdenticalToFullBuild) {
  const TimeSeriesMatrix data = RangeTestData();
  const int64_t num_pairs = kRangeSeries * (kRangeSeries - 1) / 2;
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const bool blocked : {true, false}) {
      BasicWindowIndexOptions full_options = RangeOptions(0, 0);
      full_options.use_blocked_kernel = blocked;
      const auto full = BasicWindowIndex::Build(data, full_options, &pool);
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(full->HasAllPairs());
      for (const auto& [begin, end] : RangeCuts()) {
        BasicWindowIndexOptions options = RangeOptions(begin, end);
        options.use_blocked_kernel = blocked;
        const auto range = BasicWindowIndex::Build(data, options, &pool);
        ASSERT_TRUE(range.ok());
        const int64_t lo = std::min(begin, num_pairs);
        const int64_t hi = std::min(end, num_pairs);
        EXPECT_EQ(range->pair_begin(), lo);
        EXPECT_EQ(range->pair_end(), hi);
        EXPECT_TRUE(range->CoversPairs(lo, hi));
        EXPECT_FALSE(range->HasAllPairs());
        EXPECT_EQ(BasicWindowIndex::EstimateMemoryBytes(
                      kRangeSeries, data.length(), options),
                  range->MemoryBytes());
        for (int64_t p = lo; p < hi; ++p) {
          for (int64_t w = 0; w <= kRangeWindows; ++w) {
            ASSERT_EQ(Bits(range->PairDotLane(p)[w]),
                      Bits(full->PairDotLane(p)[w]))
                << "threads=" << threads << " blocked=" << blocked
                << " range [" << begin << "," << end << ") pair " << p
                << " slot " << w;
            if (w < kRangeWindows) {
              ASSERT_EQ(Bits(range->OneMinusCorrRange(p, 0, w + 1)),
                        Bits(full->OneMinusCorrRange(p, 0, w + 1)))
                  << "pair " << p << " slot " << w + 1;
            }
          }
        }
      }
    }
  }
}

TEST(PairRangeIndexTest, MemoryIsTheRangeShare) {
  const TimeSeriesMatrix data = RangeTestData();
  const auto full = BasicWindowIndex::Build(data, RangeOptions(0, 0));
  const auto quarter = BasicWindowIndex::Build(data, RangeOptions(0, 5995 / 4));
  const auto empty = BasicWindowIndex::Build(data, RangeOptions(9, 9));
  ASSERT_TRUE(full.ok() && quarter.ok() && empty.ok());
  // Series prefixes stay full; the pair rows shrink with the range.
  const int64_t series_bytes =
      2 * kRangeSeries * (kRangeWindows + 1) * int64_t{sizeof(double)};
  EXPECT_EQ(empty->MemoryBytes(), series_bytes);
  const int64_t pair_row_bytes = (full->MemoryBytes() - series_bytes) / 5995;
  EXPECT_EQ(pair_row_bytes * 5995, full->MemoryBytes() - series_bytes);
  EXPECT_EQ(quarter->MemoryBytes() - series_bytes,
            pair_row_bytes * (5995 / 4));
  EXPECT_FALSE(BasicWindowIndex::Build(data, RangeOptions(-1, 5)).ok());
}

TEST(PairRangeIndexTest, UncoveredQueriesAndPivotScansAreRefused) {
  const TimeSeriesMatrix data = RangeTestData();
  const int64_t n = kRangeSeries;
  const int64_t begin = BasicWindowIndex::PairId(3, 50, n);
  const int64_t end = BasicWindowIndex::PairId(20, 21, n);
  const auto full = BasicWindowIndex::Build(data, RangeOptions(0, 0));
  const auto range = BasicWindowIndex::Build(data, RangeOptions(begin, end));
  ASSERT_TRUE(full.ok() && range.ok());

  DangoronOptions options;
  options.basic_window = kRangeBasicWindow;
  options.enable_jumping = false;
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 4 * kRangeBasicWindow;
  query.step = kRangeBasicWindow;
  query.threshold = 0.2;
  query.absolute = true;

  // Inside the range: both tiers answer exactly as the full index does.
  query.pair_begin = begin + 10;
  query.pair_end = end;
  for (const bool jumping : {false, true}) {
    options.enable_jumping = jumping;
    const auto from_full = DangoronEngine::QueryPrepared(options, *full, query,
                                                         nullptr, nullptr);
    const auto from_range = DangoronEngine::QueryPrepared(
        options, *range, query, nullptr, nullptr);
    ASSERT_TRUE(from_full.ok() && from_range.ok())
        << from_range.status().message();
    ASSERT_EQ(from_full->num_windows(), from_range->num_windows());
    for (int64_t k = 0; k < from_full->num_windows(); ++k) {
      const auto a = from_full->WindowEdges(k);
      const auto b = from_range->WindowEdges(k);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "window " << k;
    }
  }
  options.enable_jumping = false;

  // Outside the range — past either end, or unrestricted — is an error.
  for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{begin - 1, end},
                               {begin, end + 1},
                               {0, 0}}) {
    query.pair_begin = lo;
    query.pair_end = hi;
    const auto refused = DangoronEngine::QueryPrepared(options, *range, query,
                                                       nullptr, nullptr);
    ASSERT_FALSE(refused.ok()) << "[" << lo << "," << hi << ")";
    EXPECT_EQ(refused.status().code(), StatusCode::kOutOfRange);
  }

  // A pivot scan reads pairs (z, s) outside any range.
  query.pair_begin = begin;
  query.pair_end = end;
  options.horizontal_pruning = true;
  options.num_pivots = 2;
  const auto pivots = DangoronEngine::QueryPrepared(options, *range, query,
                                                    nullptr, nullptr);
  ASSERT_FALSE(pivots.ok());
  EXPECT_EQ(pivots.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(DangoronEngine::QueryPrepared(options, *full, query, nullptr,
                                            nullptr)
                  .ok());
}

}  // namespace
}  // namespace dangoron
