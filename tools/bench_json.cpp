// bench_json: machine-readable perf trajectory for the exponentiation engine.
//
// Emits BENCH_commit.json with ns/op for the DMW commitment/verification hot
// path on both group backends:
//   - Pedersen commit       z1^a z2^b   (fixed-base tables vs naive pows)
//   - variable-base pow                 (sliding window vs square-and-multiply)
//   - multi-exponentiation  prod C^x    (windowed Straus vs naive product)
//   - batched independent pows          (lane engine vs scalar ladder)
// Future PRs compare their numbers against the checked-in file to catch
// regressions and record improvements.
//
// The pow_batch_* keys measure multi_pow_batched — the Phase III
// share-verify shape — on two copies of the same group, one with lane
// grouping engaged (SimdMode::kAuto) and one pinned to the scalar ladder
// (SimdMode::kOff). The emitted `simd` object records which kernel the
// measuring machine actually dispatched: on a host with no vector unit
// kAuto degenerates to the scalar path and pow_batch_speedup is honestly
// ~1.0x, which is why BENCH_commit.json's `min` floor on pow_batch_speedup
// carries `requires: {"simd": true}` in its `gates` block:
// check_bench_regression.py skips it whenever simd.backend == "scalar".
//
// Usage: bench_json [--out FILE] [--quick] [--stdout]
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "numeric/group.hpp"
#include "numeric/multiexp.hpp"
#include "numeric/simd.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace {

using dmw::Xoshiro256ss;
using dmw::num::Group256;
using dmw::num::Group64;

double g_min_seconds = 0.05;

double bench_ns(const std::function<void()>& fn) {
  return dmw::bench_ns(fn, g_min_seconds);
}

/// One backend's measurements. `sink` defeats dead-code elimination: every
/// result folds into it and the total is emitted alongside the numbers.
template <class G>
void bench_backend(dmw::JsonWriter& json, const G& g, std::size_t multiexp_len,
                   std::uint64_t& sink) {
  Xoshiro256ss rng(0xb5eed);
  // A rotating pool of operands so the loop does not optimize into a
  // constant-folded special case.
  constexpr std::size_t kPool = 16;
  std::vector<typename G::Scalar> sa, sb;
  std::vector<typename G::Elem> bases;
  for (std::size_t i = 0; i < kPool; ++i) {
    sa.push_back(g.random_scalar(rng));
    sb.push_back(g.random_scalar(rng));
    bases.push_back(g.pow(g.z1(), g.random_scalar(rng)));
  }
  std::vector<typename G::Elem> vec_bases;
  std::vector<typename G::Scalar> vec_exps;
  for (std::size_t i = 0; i < multiexp_len; ++i) {
    vec_bases.push_back(g.pow(g.z2(), g.random_scalar(rng)));
    vec_exps.push_back(g.random_scalar(rng));
  }

  auto fold = [&](const typename G::Elem& e) {
    sink = sink * 1099511628211ULL + static_cast<std::uint64_t>(g.is_identity(e));
  };

  std::size_t i = 0;
  const double commit_ns = bench_ns([&] {
    fold(g.commit(sa[i % kPool], sb[i % kPool]));
    ++i;
  });
  const double commit_naive_ns = bench_ns([&] {
    // dmwlint:allow(naive-call) ablation baseline being measured
    fold(g.commit_naive(sa[i % kPool], sb[i % kPool]));
    ++i;
  });
  const double pow_ns = bench_ns([&] {
    fold(g.pow(bases[i % kPool], sa[i % kPool]));
    ++i;
  });
  const double pow_naive_ns = bench_ns([&] {
    // dmwlint:allow(naive-call) ablation baseline being measured
    fold(g.pow_naive(bases[i % kPool], sa[i % kPool]));
    ++i;
  });
  const double multiexp_ns = bench_ns([&] {
    fold(dmw::num::multi_pow<G>(g, vec_bases, vec_exps));
  });
  const double multiexp_naive_ns = bench_ns([&] {
    // dmwlint:allow(naive-call) ablation baseline being measured
    fold(dmw::num::multi_pow_naive<G>(g, vec_bases, vec_exps));
  });

  // Batched independent exponentiations, lane engine vs scalar ladder. Two
  // copies of the group pin the SimdMode so both paths measure the same
  // inputs; the values and OpCounts are bit-identical by the montlane.hpp
  // contract, so the only thing that differs is wall time.
  constexpr std::size_t kBatch = 64;
  std::vector<typename G::Elem> batch_bases;
  std::vector<typename G::Scalar> batch_exps;
  for (std::size_t j = 0; j < kBatch; ++j) {
    batch_bases.push_back(g.pow(g.z1(), g.random_scalar(rng)));
    batch_exps.push_back(g.random_scalar(rng));
  }
  G lanes_g = g;
  lanes_g.set_simd_mode(dmw::num::simd::SimdMode::kAuto);
  G scalar_g = g;
  scalar_g.set_simd_mode(dmw::num::simd::SimdMode::kOff);
  const double pow_batch_lanes_ns = bench_ns([&] {
    const auto out =
        dmw::num::multi_pow_batched<G>(lanes_g, batch_bases, batch_exps);
    fold(out[i % kBatch]);
    ++i;
  });
  const double pow_batch_scalar_ns = bench_ns([&] {
    const auto out =
        dmw::num::multi_pow_batched<G>(scalar_g, batch_bases, batch_exps);
    fold(out[i % kBatch]);
    ++i;
  });

  json.key("commit_ns").value(commit_ns);
  json.key("commit_naive_ns").value(commit_naive_ns);
  json.key("commit_speedup").value(commit_naive_ns / commit_ns);
  json.key("pow_ns").value(pow_ns);
  json.key("pow_naive_ns").value(pow_naive_ns);
  json.key("pow_speedup").value(pow_naive_ns / pow_ns);
  json.key("multiexp_len").value(static_cast<std::uint64_t>(multiexp_len));
  json.key("multiexp_ns").value(multiexp_ns);
  json.key("multiexp_naive_ns").value(multiexp_naive_ns);
  json.key("multiexp_speedup").value(multiexp_naive_ns / multiexp_ns);
  json.key("pow_batch_len").value(static_cast<std::uint64_t>(kBatch));
  json.key("pow_batch_lanes_ns").value(pow_batch_lanes_ns);
  json.key("pow_batch_scalar_ns").value(pow_batch_scalar_ns);
  json.key("pow_batch_speedup").value(pow_batch_scalar_ns /
                                      pow_batch_lanes_ns);
}

}  // namespace

int main(int argc, char** argv) try {
  dmw::Logger::instance().set_level(dmw::LogLevel::kInfo);
  dmw::Flags flags(argc, argv, {"out", "quick!", "stdout!", "help!"});
  const std::string out_path = flags.get_string("out", "BENCH_commit.json");
  const bool quick = flags.get_bool("quick");
  const bool to_stdout = flags.get_bool("stdout");
  if (flags.get_bool("help")) {
    std::puts("bench_json [--out FILE] [--quick] [--stdout]");
    return 0;
  }
  if (quick) g_min_seconds = 0.005;

  const Group64& g64 = Group64::test_group();
  Xoshiro256ss grng(1);
  // Same fixture as bench_crypto: 250-bit p (one limb bit reserved), 160-bit q.
  const Group256 g256 = Group256::generate(250, 160, grng);

  std::uint64_t sink = 0;
  dmw::JsonWriter json;
  json.begin_object();
  json.key("bench").value("commit");
  json.key("schema_version").value(std::uint64_t{2});
  // Floor-bearing benches record the measuring machine (see
  // check_bench_regression.py): lane floors are meaningless on a host whose
  // dispatch resolves to the scalar kernels.
  json.key("hardware_concurrency")
      .value(std::uint64_t{dmw::ThreadPool::default_thread_count()});
  json.key("simd").begin_object();
  json.key("compiled").value(dmw::num::simd::compiled_in());
  json.key("backend").value(
      dmw::num::simd::backend_name(dmw::num::simd::active_backend()));
  json.key("lanes").value(std::uint64_t{dmw::num::simd::kLanes});
  json.end_object();
  json.key("group64").begin_object();
  json.key("group").value(g64.describe());
  bench_backend(json, g64, /*multiexp_len=*/16, sink);
  json.end_object();
  json.key("group256").begin_object();
  json.key("group").value("GroupBig<4>: 250-bit p, 160-bit q (seed 1)");
  bench_backend(json, g256, /*multiexp_len=*/16, sink);
  json.end_object();
  json.key("sink").value(sink);
  json.end_object();

  const std::string text = json.str() + "\n";
  if (to_stdout) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      DMW_ERROR() << "bench_json: cannot open " << out_path;
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    DMW_INFO() << "bench_json: wrote " << out_path;
  }
  return 0;
} catch (const std::exception& error) {
  DMW_ERROR() << error.what()
              << " (usage: bench_json [--out FILE] [--quick] [--stdout])";
  return 1;
}
