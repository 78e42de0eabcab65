// GpRegressor::predict_batch against predict(), bit for bit, in every lane:
// block sizes 1-8 (so the last block of a call is ragged), training sets of
// n = 1, 2, 31 and 120 points in d = 1 and 6 dimensions, a fit whose jitter
// escalated, and a capped refit whose training set is not a prefix of the
// previous one. The dispatched entry point runs the body dispatch picks
// for the CPU; the AVX2 body is also called directly, so it is pinned on
// every AVX2 CPU even if dispatch changes.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tuner/gp/gp_regressor.hpp"

namespace repro::tuner {
namespace {

using Points = std::vector<std::vector<double>>;

Points random_points(std::size_t count, std::size_t d, repro::Rng& rng) {
  Points points(count, std::vector<double>(d));
  for (auto& point : points) {
    for (double& v : point) v = rng.uniform();
  }
  return points;
}

std::vector<double> bowl_targets(const Points& xs, repro::Rng& rng) {
  std::vector<double> ys;
  for (const auto& point : xs) {
    double target = 0.0;
    for (double v : point) target += (v - 0.4) * (v - 0.4);
    ys.push_back(target + 0.05 * rng.normal());
  }
  return ys;
}

/// Query points: fresh draws, copies of training points (distance 0),
/// points far outside [0,1]^d (variance near the prior, mean near the data
/// mean) and repeats of the same point inside one block.
Points queries(const Points& train, std::size_t d, repro::Rng& rng) {
  Points qs = random_points(13, d, rng);
  qs.push_back(train.front());
  qs.push_back(train.back());
  qs.push_back(std::vector<double>(d, 7.5));
  const std::vector<double> repeated = qs[2];
  qs.push_back(repeated);
  qs.push_back(repeated);
  return qs;
}

using BatchFn = void (*)(const GpRegressor&, std::span<const std::vector<double>>,
                         std::span<GpPrediction>);

void dispatched(const GpRegressor& gp, std::span<const std::vector<double>> xs,
                std::span<GpPrediction> out) {
  gp.predict_batch(xs, out);
}

/// Every block size 1..kBatchLanes over every offset window of `qs`.
void expect_batch_matches_predict(const GpRegressor& gp, const Points& qs, BatchFn batch,
                                  const std::string& label) {
  std::vector<GpPrediction> reference;
  for (const auto& q : qs) reference.push_back(gp.predict(q));
  for (std::size_t size = 1; size <= GpRegressor::kBatchLanes; ++size) {
    for (std::size_t begin = 0; begin + size <= qs.size(); ++begin) {
      std::vector<GpPrediction> out(size);
      batch(gp, std::span<const std::vector<double>>(qs).subspan(begin, size), out);
      for (std::size_t j = 0; j < size; ++j) {
        const GpPrediction& want = reference[begin + j];
        ASSERT_EQ(std::memcmp(&out[j].mean, &want.mean, sizeof(double)), 0)
            << label << " size " << size << " begin " << begin << " lane " << j
            << ": " << out[j].mean << " vs " << want.mean;
        ASSERT_EQ(std::memcmp(&out[j].variance, &want.variance, sizeof(double)), 0)
            << label << " size " << size << " begin " << begin << " lane " << j
            << ": " << out[j].variance << " vs " << want.variance;
      }
    }
  }
}

void expect_all_fits_match(BatchFn batch) {
  for (std::size_t d : {1u, 6u}) {
    for (std::size_t n : {1u, 2u, 31u, 120u}) {
      const std::string label = "d=" + std::to_string(d) + " n=" + std::to_string(n);
      repro::Rng rng(1000 * d + n);
      const Points xs = random_points(n, d, rng);
      const std::vector<double> ys = bowl_targets(xs, rng);
      GpRegressor gp;
      ASSERT_TRUE(n < 2 ? gp.fit(xs, ys) : gp.optimize_hyperparams(xs, ys)) << label;
      expect_batch_matches_predict(gp, queries(xs, d, rng), batch, label);
    }
  }
}

void expect_escalated_fit_matches(BatchFn batch) {
  // Repeated points make K singular. A noise variance just below zero makes
  // their block indefinite until the jitter outweighs it, so the fit only
  // succeeds after the ladder escalates past its first value.
  repro::Rng rng(77);
  Points xs = random_points(6, 6, rng);
  const std::vector<double> repeated = xs[1];
  for (int copy = 0; copy < 3; ++copy) xs.push_back(repeated);
  const std::vector<double> ys = bowl_targets(xs, rng);
  GpRegressor gp(GpHyperparams{0.35, 1.0, -5e-10});
  ASSERT_TRUE(gp.fit(xs, ys));
  ASSERT_GT(gp.full_refactorizations(), 1u) << "jitter did not escalate";
  expect_batch_matches_predict(gp, queries(xs, 6, rng), batch, "escalated");
}

void expect_capped_refit_matches(BatchFn batch) {
  // BO GP past its 120-row cap refits on the best half plus the most recent
  // rows: not a prefix of the previous training set, so the caches reset.
  repro::Rng rng(5);
  const Points all = random_points(150, 6, rng);
  const std::vector<double> all_y = bowl_targets(all, rng);
  GpRegressor gp;
  ASSERT_TRUE(gp.optimize_hyperparams(Points(all.begin(), all.begin() + 120),
                                      std::vector<double>(all_y.begin(), all_y.begin() + 120)));
  Points capped;
  std::vector<double> capped_y;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 5 == 0 || i >= 60) {
      capped.push_back(all[i]);
      capped_y.push_back(all_y[i]);
    }
  }
  ASSERT_EQ(capped.size(), 102u);
  const std::size_t refits = gp.full_refactorizations();
  ASSERT_TRUE(gp.fit(capped, capped_y));
  ASSERT_GT(gp.full_refactorizations(), refits) << "refit reused the old factor";
  expect_batch_matches_predict(gp, queries(capped, 6, rng), batch, "capped");
}

TEST(GpPredictBatch, DispatchedBatchMatchesPredictBitForBit) {
  expect_all_fits_match(dispatched);
  expect_escalated_fit_matches(dispatched);
  expect_capped_refit_matches(dispatched);
}

TEST(GpPredictBatch, Avx2BodyMatchesPredictBitForBit) {
  if (!detail::gp_batch_has_avx2()) GTEST_SKIP() << "CPU has no AVX2";
  expect_all_fits_match(detail::gp_predict_batch_avx2);
  expect_escalated_fit_matches(detail::gp_predict_batch_avx2);
  expect_capped_refit_matches(detail::gp_predict_batch_avx2);
}

TEST(GpPredictBatch, RejectsUnfittedModelAndBadBlockSizes) {
  GpRegressor gp;
  const Points qs = {{0.5}};
  std::vector<GpPrediction> out(1);
  EXPECT_THROW(gp.predict_batch(qs, out), std::logic_error);
  ASSERT_TRUE(gp.fit(Points{{0.1}, {0.9}}, std::vector<double>{1.0, 2.0}));
  std::vector<GpPrediction> too_many(2);
  EXPECT_THROW(gp.predict_batch(qs, too_many), std::invalid_argument);
  const Points nine(GpRegressor::kBatchLanes + 1, std::vector<double>{0.5});
  std::vector<GpPrediction> nine_out(nine.size());
  EXPECT_THROW(gp.predict_batch(nine, nine_out), std::invalid_argument);
  gp.predict_batch({}, {});  // an empty block is a no-op
}

}  // namespace
}  // namespace repro::tuner
