#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "bound/bounds.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "corr/pearson.h"
#include "engine/dangoron_engine.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// ------------------------------------------------------ Horizontal bound --

// The horizontal bound is a theorem (PSD-ness of the 3x3 correlation
// matrix): generate arbitrary triples and verify containment.
TEST(HorizontalBoundTest, AlwaysContainsTrueCorrelation) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const int64_t length = 64;
    // Three series with random mutual structure: z arbitrary, x and y are
    // mixtures of z and noise.
    std::vector<double> z(length);
    std::vector<double> x(length);
    std::vector<double> y(length);
    const double ax = rng.NextUniform(-1.0, 1.0);
    const double ay = rng.NextUniform(-1.0, 1.0);
    for (int64_t t = 0; t < length; ++t) {
      z[static_cast<size_t>(t)] = rng.NextGaussian();
      x[static_cast<size_t>(t)] = ax * z[static_cast<size_t>(t)] +
                                  std::sqrt(1 - ax * ax) * rng.NextGaussian();
      y[static_cast<size_t>(t)] = ay * z[static_cast<size_t>(t)] +
                                  std::sqrt(1 - ay * ay) * rng.NextGaussian();
    }
    const double c_xz = PearsonNaive(x, z);
    const double c_yz = PearsonNaive(y, z);
    const double c_xy = PearsonNaive(x, y);
    const HorizontalBound bound = HorizontalBoundFromPivot(c_xz, c_yz);
    EXPECT_GE(c_xy, bound.lower - 1e-9) << "trial " << trial;
    EXPECT_LE(c_xy, bound.upper + 1e-9) << "trial " << trial;
  }
}

TEST(HorizontalBoundTest, DegenerateCases) {
  // Perfectly correlated pivot: c_xy must equal c_yz.
  const HorizontalBound tight = HorizontalBoundFromPivot(1.0, 0.6);
  EXPECT_NEAR(tight.lower, 0.6, 1e-12);
  EXPECT_NEAR(tight.upper, 0.6, 1e-12);

  // Uninformative pivot: full interval.
  const HorizontalBound loose = HorizontalBoundFromPivot(0.0, 0.0);
  EXPECT_NEAR(loose.lower, -1.0, 1e-12);
  EXPECT_NEAR(loose.upper, 1.0, 1e-12);
}

TEST(HorizontalBoundTest, IntervalIsValidAndClamped) {
  Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const double a = rng.NextUniform(-1.0, 1.0);
    const double b = rng.NextUniform(-1.0, 1.0);
    const HorizontalBound bound = HorizontalBoundFromPivot(a, b);
    EXPECT_LE(bound.lower, bound.upper + 1e-12);
    EXPECT_GE(bound.lower, -1.0 - 1e-12);
    EXPECT_LE(bound.upper, 1.0 + 1e-12);
  }
}

TEST(HorizontalBoundTest, MultiplePivotsTighten) {
  // Intersection across pivots is at least as tight as any single pivot.
  const std::vector<double> c_xz = {0.9, 0.2, -0.5};
  const std::vector<double> c_yz = {0.8, 0.1, -0.4};
  const HorizontalBound multi = HorizontalBoundFromPivots(c_xz, c_yz);
  for (size_t p = 0; p < c_xz.size(); ++p) {
    const HorizontalBound single = HorizontalBoundFromPivot(c_xz[p], c_yz[p]);
    EXPECT_GE(multi.lower, single.lower - 1e-12);
    EXPECT_LE(multi.upper, single.upper + 1e-12);
  }
}

// -------------------------------------------------------- Temporal bound --

struct BoundFixture {
  TimeSeriesMatrix data;
  std::optional<BasicWindowIndex> index;
  int64_t b = 8;
  int64_t nb = 0;

  // Builds a two-series matrix from the given pair generator.
  void Build(std::vector<double> x, std::vector<double> y) {
    auto matrix = TimeSeriesMatrix::FromRows({std::move(x), std::move(y)});
    CHECK(matrix.ok());
    data = std::move(*matrix);
    BasicWindowIndexOptions options;
    options.basic_window = b;
    auto built = BasicWindowIndex::Build(data, options);
    CHECK(built.ok());
    index.emplace(std::move(*built));
    nb = index->num_basic_windows();
  }

  // Exact correlation of window starting at basic window w0 spanning ns.
  double Exact(int64_t w0, int64_t ns) const {
    return index->PairRangeCorrelation(0, w0, w0 + ns);
  }
};

// On stationary data (the paper's assumption), Eq. 2 bounds hold for the
// overwhelming majority of (window, horizon) combinations. We verify
// containment with a small slack and require a near-zero violation rate.
TEST(TemporalBoundTest, BoundsHoldOnStationaryData) {
  Rng rng(3);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 200, 0.5, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));

  const int64_t ns = 12;
  const int64_t m = 1;
  const TemporalBound bound(&*fixture.index, ns, m);

  int64_t checks = 0;
  int64_t upper_violations = 0;
  int64_t lower_violations = 0;
  for (int64_t k = 0; k + ns + 40 <= fixture.nb; k += 3) {
    const double corr0 = fixture.Exact(k, ns);
    for (int64_t j = 1; j <= 40; j += 3) {
      const double actual = fixture.Exact(k + j * m, ns);
      const double upper = bound.UpperBound(0, k, corr0, j);
      const double lower = bound.LowerBound(0, k, corr0, j);
      ++checks;
      if (actual > upper + 0.05) {
        ++upper_violations;
      }
      if (actual < lower - 0.05) {
        ++lower_violations;
      }
    }
  }
  ASSERT_GT(checks, 500);
  // Statistical bound: tolerate a tiny violation rate from sampling noise.
  EXPECT_LT(static_cast<double>(upper_violations) / checks, 0.01);
  EXPECT_LT(static_cast<double>(lower_violations) / checks, 0.01);
}

TEST(TemporalBoundTest, UpperBoundMonotoneInHorizon) {
  Rng rng(4);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 100, 0.3, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 10, 1);
  const double corr0 = fixture.Exact(0, 10);
  double previous = -2.0;
  for (int64_t j = 1; j <= 50; ++j) {
    const double upper = bound.UpperBound(0, 0, corr0, j);
    EXPECT_GE(upper, previous - 1e-12) << "j=" << j;
    previous = upper;
  }
}

TEST(TemporalBoundTest, LowerBoundNonIncreasingInHorizon) {
  Rng rng(5);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 100, 0.3, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 10, 1);
  const double corr0 = fixture.Exact(0, 10);
  double previous = 2.0;
  for (int64_t j = 1; j <= 50; ++j) {
    const double lower = bound.LowerBound(0, 0, corr0, j);
    EXPECT_LE(lower, previous + 1e-12) << "j=" << j;
    previous = lower;
  }
}

TEST(TemporalBoundTest, BinarySearchMatchesLinearScan) {
  Rng rng(6);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 150, 0.2, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const int64_t ns = 15;
  const TemporalBound bound(&*fixture.index, ns, 1);

  for (const double beta : {0.3, 0.5, 0.8}) {
    for (int64_t k = 0; k + ns + 60 <= fixture.nb; k += 7) {
      const double corr0 = fixture.Exact(k, ns);
      if (corr0 >= beta) {
        continue;
      }
      const int64_t max_steps = 60;
      const int64_t fast =
          bound.MaxSkippableBelow(0, k, corr0, beta, max_steps);
      // Linear oracle.
      int64_t slow = 0;
      for (int64_t j = 1; j <= max_steps; ++j) {
        if (bound.UpperBound(0, k, corr0, j) < beta) {
          slow = j;
        } else {
          break;
        }
      }
      EXPECT_EQ(fast, slow) << "beta=" << beta << " k=" << k;
    }
  }
}

TEST(TemporalBoundTest, AboveSearchMatchesLinearScan) {
  Rng rng(7);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 150, 0.9, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const int64_t ns = 15;
  const TemporalBound bound(&*fixture.index, ns, 1);

  const double beta = 0.5;
  for (int64_t k = 0; k + ns + 60 <= fixture.nb; k += 7) {
    const double corr0 = fixture.Exact(k, ns);
    if (corr0 < beta) {
      continue;
    }
    const int64_t fast = bound.MaxSkippableAbove(0, k, corr0, beta, 60);
    int64_t slow = 0;
    for (int64_t j = 1; j <= 60; ++j) {
      if (bound.LowerBound(0, k, corr0, j) >= beta) {
        slow = j;
      } else {
        break;
      }
    }
    EXPECT_EQ(fast, slow) << "k=" << k;
  }
}

TEST(TemporalBoundTest, ZeroMaxStepsSkipsNothing) {
  Rng rng(8);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 50, 0.0, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 5, 1);
  EXPECT_EQ(bound.MaxSkippableBelow(0, 0, 0.0, 0.9, 0), 0);
  EXPECT_EQ(bound.MaxSkippableAbove(0, 0, 0.95, 0.9, 0), 0);
}

TEST(TemporalBoundTest, AboveSkipHorizonIsConservative) {
  // The lower bound must assume every *entering* basic window has c = -1,
  // so it decays by 2*m/ns per step even for a near-perfectly correlated
  // pair: lower(j) ~ corr0 - 2j/ns. With corr0 ~ 0.999, beta = 0.5 and
  // ns = 8, that admits j <= ns*(corr0 - beta)/2 ~ 1.99: exactly one or two
  // skippable windows, never more.
  Rng rng(9);
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 60, 0.999, &rng, &x, &y);
  BoundFixture fixture;
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 8, 1);
  const double corr0 = fixture.Exact(0, 8);
  EXPECT_GE(corr0, 0.9);
  const int64_t skip = bound.MaxSkippableAbove(0, 0, corr0, 0.5, 40);
  EXPECT_GE(skip, 1);
  EXPECT_LE(skip, 2);
}

TEST(TemporalBoundTest, AntiCorrelatedPairSkipsFar) {
  // Persistent negative correlation burns jump budget slowly relative to a
  // high threshold, so below-skips reach far.
  Rng rng(10);
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 60, -0.8, &rng, &x, &y);
  BoundFixture fixture;
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 8, 1);
  const double corr0 = fixture.Exact(0, 8);
  ASSERT_LT(corr0, 0.0);
  EXPECT_GT(bound.MaxSkippableBelow(0, 0, corr0, 0.9, 40), 0);
}

// Random prefixes: six series of Gaussian noise with shared factors, where
// series 1 copies series 0 in some basic windows and negates it in others,
// so the sketch holds windows clamped at c = +1 and c = -1 (1 - c exactly 0
// or 2) next to ordinary ones. Every search must return what the brute
// force returns: the largest j in [1, max_steps] whose bound predicate
// holds at every step 1..j — including max_steps caps and max_steps = 0.
TEST(TemporalBoundTest, SearchesMatchBruteForceOnRandomPrefixes) {
  constexpr int64_t kSeries = 6;
  constexpr int64_t kB = 8;
  constexpr int64_t kWindows = 90;
  Rng rng(11);
  std::vector<std::vector<double>> rows(kSeries,
                                        std::vector<double>(kB * kWindows));
  for (int64_t t = 0; t < kB * kWindows; ++t) {
    const double factor = rng.NextGaussian();
    for (int64_t s = 0; s < kSeries; ++s) {
      rows[s][t] = 0.6 * factor + rng.NextGaussian();
    }
  }
  for (int64_t w = 0; w < kWindows; w += 3) {
    const double sign = (w / 3) % 2 == 0 ? 1.0 : -1.0;
    for (int64_t t = w * kB; t < (w + 1) * kB; ++t) {
      rows[1][t] = sign * rows[0][t];
    }
  }
  auto matrix = TimeSeriesMatrix::FromRows(std::move(rows));
  ASSERT_TRUE(matrix.ok());
  BasicWindowIndexOptions options;
  options.basic_window = kB;
  const auto index = BasicWindowIndex::Build(*matrix, options);
  ASSERT_TRUE(index.ok());
  // (Recovered from prefix differences, so a clamped window can read an
  // ulp off ±1; most read exactly.)
  int64_t clamped = 0;
  for (int64_t w = 0; w < kWindows; ++w) {
    const double c = index->PairWindowCorrelation(0, w);
    clamped += c == 1.0 || c == -1.0;
  }
  ASSERT_GE(clamped, kWindows / 4);

  int64_t partial = 0;
  int64_t capped = 0;
  for (const int64_t m : {1, 2, 3}) {
    for (const int64_t ns : {4, 10}) {
      const TemporalBound bound(&*index, ns, m);
      for (int trial = 0; trial < 3000; ++trial) {
        const int64_t pair = rng.NextInt(0, index->num_pairs() - 1);
        const int64_t w0 = rng.NextInt(0, kWindows - 1);
        const int64_t horizon = (kWindows - w0) / m;
        const int64_t max_steps =
            trial % 7 == 0 ? 0 : rng.NextInt(0, horizon);
        const double beta = rng.NextUniform(0.05, 0.95);
        const double below = rng.NextUniform(-1.0, beta);
        const double above = rng.NextUniform(beta, 1.0);
        const double within = rng.NextUniform(-beta, beta);
        auto brute = [&](auto pred) {
          int64_t j = 0;
          while (j < max_steps && pred(j + 1)) {
            ++j;
          }
          return j;
        };
        const int64_t want_below = brute([&](int64_t j) {
          return bound.UpperBound(pair, w0, below, j) < beta;
        });
        const int64_t want_above = brute([&](int64_t j) {
          return bound.LowerBound(pair, w0, above, j) >= beta;
        });
        const int64_t want_within = brute([&](int64_t j) {
          return bound.UpperBound(pair, w0, within, j) < beta &&
                 bound.LowerBound(pair, w0, within, j) > -beta;
        });
        ASSERT_EQ(bound.MaxSkippableBelow(pair, w0, below, beta, max_steps),
                  want_below)
            << "pair " << pair << " w0 " << w0 << " max " << max_steps;
        ASSERT_EQ(bound.MaxSkippableAbove(pair, w0, above, beta, max_steps),
                  want_above)
            << "pair " << pair << " w0 " << w0 << " max " << max_steps;
        ASSERT_EQ(bound.MaxSkippableWithin(pair, w0, within, -beta, beta,
                                           max_steps),
                  want_within)
            << "pair " << pair << " w0 " << w0 << " max " << max_steps;
        for (const int64_t want : {want_below, want_above, want_within}) {
          partial += want > 0 && want < max_steps;
          capped += want > 0 && want == max_steps;
        }
      }
    }
  }
  // Both outcomes a search can end in were exercised many times.
  EXPECT_GT(partial, 1000);
  EXPECT_GT(capped, 1000);
}

// The approx tier over a range-built index: its jump walks read the same
// octet lanes as over the full index, so the answers — edges, anchor
// values and jump counters — are the full index's, bit for bit, for ranges
// cut mid-octet and mid-row, in every threshold mode and pool size.
TEST(ApproxTierRangeTest, RangeIndexAnswersLikeTheFullIndex) {
  constexpr int64_t kSeries = 40;
  constexpr int64_t kB = 8;
  Rng rng(12);
  std::vector<std::vector<double>> rows(kSeries,
                                        std::vector<double>(kB * 60));
  for (int64_t s = 0; s < kSeries; ++s) {
    double level = rng.NextGaussian();
    for (double& v : rows[s]) {
      level += 0.3 * rng.NextGaussian();
      v = level;
    }
  }
  auto matrix = TimeSeriesMatrix::FromRows(std::move(rows));
  ASSERT_TRUE(matrix.ok());
  BasicWindowIndexOptions full_options;
  full_options.basic_window = kB;
  const auto full = BasicWindowIndex::Build(*matrix, full_options);
  ASSERT_TRUE(full.ok());

  SlidingQuery query;
  query.start = 0;
  query.end = matrix->length();
  query.window = 10 * kB;
  query.step = kB;
  const int64_t n = kSeries;
  for (const auto& [begin, end] :
       {std::pair<int64_t, int64_t>{3, 5},
        {BasicWindowIndex::PairId(2, 17, n),
         BasicWindowIndex::PairId(9, 10, n)},
        {BasicWindowIndex::PairId(30, 31, n) + 5, 780}}) {
    BasicWindowIndexOptions options = full_options;
    options.pair_begin = begin;
    options.pair_end = end;
    const auto range = BasicWindowIndex::Build(*matrix, options);
    ASSERT_TRUE(range.ok());
    query.pair_begin = begin;
    query.pair_end = end;
    for (const bool absolute : {false, true}) {
      query.absolute = absolute;
      query.threshold = absolute ? 0.7 : 0.6;
      for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        DangoronOptions engine_options;
        engine_options.basic_window = kB;
        engine_options.enable_jumping = true;
        EngineStats full_stats;
        EngineStats range_stats;
        const auto a = DangoronEngine::QueryPrepared(engine_options, *full,
                                                     query, &pool, &full_stats);
        const auto b = DangoronEngine::QueryPrepared(
            engine_options, *range, query, &pool, &range_stats);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_GT(full_stats.cells_jumped, 0);
        EXPECT_EQ(full_stats.cells_jumped, range_stats.cells_jumped);
        EXPECT_EQ(full_stats.jumps, range_stats.jumps);
        ASSERT_EQ(a->num_windows(), b->num_windows());
        for (int64_t k = 0; k < a->num_windows(); ++k) {
          const auto x = a->WindowEdges(k);
          const auto y = b->WindowEdges(k);
          ASSERT_EQ(x.size(), y.size()) << "window " << k;
          for (size_t e = 0; e < x.size(); ++e) {
            ASSERT_EQ(x[e].i, y[e].i);
            ASSERT_EQ(x[e].j, y[e].j);
            ASSERT_EQ(std::bit_cast<uint64_t>(x[e].value),
                      std::bit_cast<uint64_t>(y[e].value))
                << "range [" << begin << "," << end << ") window " << k;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dangoron
