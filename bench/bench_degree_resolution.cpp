// A-degres: the §2.4 degree-resolution algorithm is Θ(s^2).
//
// google-benchmark microbenchmarks for scalar interpolation, full scalar
// resolution, and exponent-domain resolution (the Eq. (12) path), plus a
// complexity fit over s. Exponent-domain resolution is timed two ways:
// over prefix bases built once outside the timed loop (what a protocol task
// pays — PublicParams holds the pseudonym set's bases), and from raw points
// (bases built per call, what a crash-gap resolution pays).
#include <benchmark/benchmark.h>

#include "poly/lagrange.hpp"
#include "poly/polynomial.hpp"
#include "support/rng.hpp"

namespace {

using dmw::Xoshiro256ss;
using dmw::num::Group64;
using Poly = dmw::poly::Polynomial<Group64>;

struct Fixture {
  const Group64& g = Group64::test_group();
  std::vector<std::uint64_t> points;
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> lambdas;

  explicit Fixture(std::size_t degree) {
    Xoshiro256ss rng(degree * 7 + 1);
    const Poly p = Poly::random_zero_const(g, degree, rng);
    while (points.size() < degree + 2) {
      const auto candidate = g.random_nonzero_scalar(rng);
      if (std::find(points.begin(), points.end(), candidate) == points.end())
        points.push_back(candidate);
    }
    values = p.eval_all(g, points);
    for (const auto& v : values) lambdas.push_back(g.pow(g.z1(), v));
  }
};

void BM_InterpolateAtZero(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  Fixture fx(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmw::poly::interpolate_at_zero(fx.g, fx.points, fx.values, s));
  }
  state.SetComplexityN(static_cast<std::int64_t>(s));
}
BENCHMARK(BM_InterpolateAtZero)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_PaperInterpolation(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  Fixture fx(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmw::poly::paper_interpolation_at_zero(fx.g, fx.points, fx.values, s));
  }
  state.SetComplexityN(static_cast<std::int64_t>(s));
}
BENCHMARK(BM_PaperInterpolation)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_ResolveDegreeScalar(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  Fixture fx(degree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmw::poly::resolve_degree(fx.g, fx.points, fx.values));
  }
  state.SetComplexityN(static_cast<std::int64_t>(degree));
}
BENCHMARK(BM_ResolveDegreeScalar)
    ->RangeMultiplier(2)
    ->Range(2, 64)
    ->Complexity();

void BM_ResolveDegreeExponent(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  Fixture fx(degree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmw::poly::resolve_degree_in_exponent(fx.g, fx.points, fx.lambdas));
  }
  state.SetComplexityN(static_cast<std::int64_t>(degree));
}
BENCHMARK(BM_ResolveDegreeExponent)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

void BM_ResolveDegreeExponentPrebuilt(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  Fixture fx(degree);
  const auto bases = dmw::poly::lagrange_prefix_bases(
      fx.g, std::span<const std::uint64_t>(fx.points));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dmw::poly::resolve_degree_in_exponent(fx.g, bases, fx.lambdas));
  }
  state.SetComplexityN(static_cast<std::int64_t>(degree));
}
BENCHMARK(BM_ResolveDegreeExponentPrebuilt)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

void BM_ShareGeneration(benchmark::State& state) {
  // Horner evaluation of a degree-sigma polynomial at n points (Phase II).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Group64& g = Group64::test_group();
  Xoshiro256ss rng(3);
  const Poly p = Poly::random_zero_const(g, n, rng);
  std::vector<std::uint64_t> points(n);
  for (auto& x : points) x = g.random_nonzero_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.eval_all(g, points));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ShareGeneration)->RangeMultiplier(2)->Range(4, 64)->Complexity();

}  // namespace

BENCHMARK_MAIN();
