#pragma once
// Canonical sequential reduction kernels for the surrogate/ask hot path,
// built around one non-negotiable constraint: *reduction order is part of
// the result*. The paper's statistics assume bit-repeatable experiments, and
// the reprolint float rules forbid reductions whose accumulation order
// depends on the execution environment. A `_mm256_hadd_pd`-style horizontal
// sum gives a different dot product on an AVX2 host than the scalar loop
// gives on a machine without one — silent cross-host nondeterminism.
//
// Every kernel here therefore accumulates strictly left to right, the order
// the exact GP, the random forest and TPE have always used, so every
// committed campaign artifact stays byte-compatible. They are centralized so
// those inner loops share one audited implementation instead of re-rolling
// the loop per call site.
//
// src/ is compiled with -ffp-contract=off so REPRO_NATIVE's -march=native
// cannot fuse these loops into FMAs, which would change the rounding and
// with it every downstream bit.

#include <cstddef>

namespace repro::simd::seq {

[[nodiscard]] double dot(const double* a, const double* b, std::size_t n) noexcept;
[[nodiscard]] double squared_distance(const double* a, const double* b,
                                      std::size_t n) noexcept;
[[nodiscard]] double sum_squares(const double* x, std::size_t n) noexcept;
[[nodiscard]] double sum(const double* x, std::size_t n) noexcept;

/// Sequential sum and sum-of-squares of y[indices[i]] for i in [begin, end)
/// — the random-forest node-statistics gather loop.
void gathered_sum_and_squares(const double* y, const std::size_t* indices,
                              std::size_t begin, std::size_t end, double& sum,
                              double& sum_squares) noexcept;

}  // namespace repro::simd::seq
