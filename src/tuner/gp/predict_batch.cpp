// GpRegressor::predict_batch: the posterior at up to kBatchLanes inputs at
// once, one input per SIMD lane. Each lane performs exactly predict()'s
// arithmetic in predict()'s order: the squared distance summed in dimension
// order, matern52's sqrt, multiplies and divides, the mean dot k*.alpha, the
// forward solve over the factor's rows (`v -= row[k] * x[k]` for ascending
// k, then one divide) and the sum of squares, each as a separately rounded
// multiply followed by an add or subtract. Lane arithmetic is IEEE per
// element, so every lane reproduces predict() bit for bit. exp stays a
// scalar libm call per lane: a vector exp would not match glibc's bits.
// The build compiles with -ffp-contract=off, so -march=native cannot fuse
// the multiplies into FMAs here either.
//
// The AVX2 body is chosen once per process by __builtin_cpu_supports; any
// other host or architecture loops over predict().

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tuner/gp/gp_regressor.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REPRO_GP_BATCH_AVX2 1
#endif

namespace repro::tuner {
namespace detail {

bool gp_batch_has_avx2() noexcept {
#ifdef REPRO_GP_BATCH_AVX2
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

#ifdef REPRO_GP_BATCH_AVX2

#define REPRO_AVX2 __attribute__((target("avx2")))

namespace {

/// Eight lanes as two AVX2 registers. The operators are the IEEE lane-wise
/// operations, so an expression over Lanes groups and rounds exactly as the
/// same expression over double.
struct Lanes {
  __m256d lo;
  __m256d hi;
};

REPRO_AVX2 inline Lanes splat(double x) { return {_mm256_set1_pd(x), _mm256_set1_pd(x)}; }
REPRO_AVX2 inline Lanes load(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}
REPRO_AVX2 inline void store(double* p, Lanes a) {
  _mm256_storeu_pd(p, a.lo);
  _mm256_storeu_pd(p + 4, a.hi);
}
REPRO_AVX2 inline Lanes operator+(Lanes a, Lanes b) {
  return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}
REPRO_AVX2 inline Lanes operator-(Lanes a, Lanes b) {
  return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
}
REPRO_AVX2 inline Lanes operator*(Lanes a, Lanes b) {
  return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
}
REPRO_AVX2 inline Lanes operator/(Lanes a, Lanes b) {
  return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
}
REPRO_AVX2 inline Lanes sqrt(Lanes a) { return {_mm256_sqrt_pd(a.lo), _mm256_sqrt_pd(a.hi)}; }

}  // namespace

REPRO_AVX2 void gp_predict_batch_avx2(const GpRegressor& gp,
                                      std::span<const std::vector<double>> xs,
                                      std::span<GpPrediction> out) {
  constexpr std::size_t kLanes = GpRegressor::kBatchLanes;
  static_assert(kLanes == 8, "Lanes holds two __m256d");
  const std::size_t lanes = xs.size();
  assert(lanes >= 1 && lanes <= kLanes && out.size() == lanes);
  const std::size_t n = gp.X_.size();
  const std::size_t d = xs[0].size();
  const GpHyperparams& hyper = gp.hyper_;

  // Inputs lane-interleaved by dimension; idle lanes repeat lane 0 so every
  // lane stays finite. v holds the forward-solve result row by row.
  std::vector<double> q(d * kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::vector<double>& x = xs[l < lanes ? l : 0];
    assert(x.size() == d);
    for (std::size_t k = 0; k < d; ++k) q[k * kLanes + l] = x[k];
  }
  std::vector<double> v(n * kLanes);

  // One pass over the training rows. Row i yields k*_i, its term of the
  // mean dot k*.alpha, v_i of the forward solve L v = k* and its term of the
  // sum of squares; each of the three sums still runs over ascending i.
  Lanes mean = splat(0.0);
  Lanes sumsq = splat(0.0);
  alignas(32) double s_lanes[kLanes];
  alignas(32) double e_lanes[kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    // k*_i = matern52(sqrt(sum_k (x_k - X_ik)^2)).
    const double* xi = gp.X_[i].data();
    Lanes sq = splat(0.0);
    for (std::size_t k = 0; k < d; ++k) {
      const Lanes diff = load(&q[k * kLanes]) - splat(xi[k]);
      sq = sq + diff * diff;
    }
    const Lanes s = splat(std::sqrt(5.0)) * sqrt(sq) / splat(hyper.lengthscale);
    store(s_lanes, s);
    for (std::size_t l = 0; l < lanes; ++l) e_lanes[l] = std::exp(-s_lanes[l]);
    const Lanes k_i =
        splat(hyper.signal_variance) * (splat(1.0) + s + s * s / splat(3.0)) * load(e_lanes);
    mean = mean + k_i * splat(gp.alpha_[i]);

    // v_i = (k*_i - sum_{c<i} L(i,c) v_c) / L(i,i), subtracting in ascending c.
    const double* row = gp.chol_.row(i);
    Lanes acc = k_i;
    for (std::size_t c = 0; c < i; ++c) acc = acc - splat(row[c]) * load(&v[c * kLanes]);
    const Lanes v_i = acc / splat(row[i]);
    store(&v[i * kLanes], v_i);
    sumsq = sumsq + v_i * v_i;
  }

  alignas(32) double mean_lanes[kLanes];
  alignas(32) double sumsq_lanes[kLanes];
  store(mean_lanes, mean);
  store(sumsq_lanes, sumsq);
  for (std::size_t l = 0; l < lanes; ++l) {
    out[l] = gp.finish_prediction(mean_lanes[l], sumsq_lanes[l]);
  }
}

#else

void gp_predict_batch_avx2(const GpRegressor&, std::span<const std::vector<double>>,
                           std::span<GpPrediction>) {
  throw std::logic_error("gp_predict_batch_avx2: not an x86 build");
}

#endif

}  // namespace detail

void GpRegressor::predict_batch(std::span<const std::vector<double>> xs,
                                std::span<GpPrediction> out) const {
  if (!fitted_) throw std::logic_error("GpRegressor::predict_batch before fit");
  if (out.size() != xs.size() || xs.size() > kBatchLanes) {
    throw std::invalid_argument("GpRegressor::predict_batch: bad block size");
  }
  if (xs.empty()) return;
  if (detail::gp_batch_has_avx2()) {
    detail::gp_predict_batch_avx2(*this, xs, out);
  } else {
    for (std::size_t j = 0; j < xs.size(); ++j) out[j] = predict(xs[j]);
  }
}

}  // namespace repro::tuner
