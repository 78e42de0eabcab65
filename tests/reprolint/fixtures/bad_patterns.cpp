// Fixture: deliberately nondeterministic code. Every reprolint rule must
// fire at least once in this file. It is never compiled — it is data for
// the gate-demonstration test (reprolint_detects_banned_patterns) and for
// tests/reprolint/test_reprolint.cpp.
#include <atomic>
#include <chrono>
#include <immintrin.h>
#include <execution>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

int bad_rand() { return rand(); }

unsigned bad_seed_source() {
  std::random_device device;
  return device();
}

long bad_wall_clock() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

long bad_c_clock() {
  timespec ts{};
  clock_gettime(0, &ts);
  return ts.tv_sec;
}

int bad_unseeded_engine() {
  std::mt19937 engine;
  return static_cast<int>(engine());
}

double bad_distribution(std::mt19937& engine) {
  std::uniform_real_distribution<double> distribution(0.0, 1.0);
  return distribution(engine);
}

void bad_shuffle(std::vector<int>& values, std::mt19937& engine) {
  std::shuffle(values.begin(), values.end(), engine);
}

int bad_iteration(const std::unordered_map<int, int>& table) {
  int sum = 0;
  for (const auto& [key, value] : table) sum += key * value;
  return sum;
}

std::atomic<double> bad_shared_total{0.0};

double bad_parallel_reduce(const std::vector<double>& values) {
  return std::reduce(std::execution::par, values.begin(), values.end());
}

// Horizontal SIMD reduce: lane-combination order comes from the instruction,
// so switching dispatch tiers reassociates the sum. (Fixture only — never
// compiled; the intrinsic needs an AVX-512 target.)
double bad_simd_reduce(__m512d accumulator) {
  return _mm512_reduce_add_pd(accumulator);
}

// Explicit fused multiply-add: one rounding where the reference rounds
// twice. (Fixture only — never compiled.)
__m256d bad_fused(__m256d a, __m256d b, __m256d c) { return _mm256_fmadd_pd(a, b, c); }

double bad_libm_fma(double a, double b, double c) { return std::fma(a, b, c); }

void bad_raw_thread() {
  std::thread worker([] {});
  worker.join();
}
