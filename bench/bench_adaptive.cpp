// A/B bench for the adaptive policy engine (SyncOptions::adaptive), emitted
// as BENCH_adaptive.json: each paper workload runs end-to-end on a cluster
// under a swept grid of static data-plane configurations and under the
// tuner, timed by wall clock (UseRealTime — the cluster's work runs on
// other threads, so the benchmark thread's CPU time would undercount it).
//
//   /0../7  static     - merge_slack in {0, 8, 32, 64} x conv_threads in
//                        {1, auto}, no tuner; "best static" is the fastest
//                        of these eight rows per workload and pair
//   /8      adaptive   - the tuner and the adaptive codec with default
//                        TunerConfig: exactly hdsm-bench's paper_sl set-up
//   /9      adaptive, codec pinned off - isolates what the codec knob
//                        costs or buys on top of the other two knobs
//
// Each row's label names its configuration.  The bar (ROADMAP item 5):
// adaptive within 3 % of the best swept static on every workload and pair.
// Pairs LL (homogeneous, identity fast path reachable) and SL
// (heterogeneous, conversion on the critical path) both run, at the
// paper's n = 255.
//
// Set HDSM_BENCH_FAST=1 for a smoke-sized run (CI's bench-smoke target).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/experiment.hpp"
#include "workloads/sor.hpp"

namespace dsm = hdsm::dsm;
namespace work = hdsm::work;

namespace {

bool fast_mode() {
  const char* v = std::getenv("HDSM_BENCH_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr std::size_t kSlacks[] = {0, 8, 32, 64};
constexpr std::int64_t kStatics = 8;  ///< configs 0..7: the static sweep
constexpr std::int64_t kAdaptive = 8;
constexpr std::int64_t kAdaptiveNoCodec = 9;

dsm::ShardedHomeOptions config(std::int64_t kind) {
  dsm::ShardedHomeOptions opts;
  if (kind < kStatics) {
    opts.dsd.merge_slack = kSlacks[kind / 2];
    opts.dsd.conv_threads = kind % 2 == 0 ? 1 : 0;  // 0 = auto lanes
    return opts;
  }
  opts.dsd.adaptive = true;
  opts.dsd.codec = dsm::CodecMode::Adaptive;
  if (kind == kAdaptiveNoCodec) opts.dsd.tuner.pin_codec = 0;
  return opts;
}

std::string label(std::int64_t kind) {
  if (kind == kAdaptive) return "adaptive";
  if (kind == kAdaptiveNoCodec) return "adaptive codec=off";
  return "static slack=" + std::to_string(kSlacks[kind / 2]) +
         (kind % 2 == 0 ? " lanes=1" : " lanes=auto");
}

const work::PairSpec& pair_of(std::int64_t p) {
  // 0 = LL (homogeneous), 1 = SL (heterogeneous).
  return work::paper_pairs()[p == 0 ? 0 : 2];
}

void annotate(benchmark::State& state, const dsm::ShareStats& total) {
  const double iters = static_cast<double>(state.iterations());
  state.SetLabel(label(state.range(1)));
  state.counters["adapt_episodes"] =
      static_cast<double>(total.adapt_episodes) / iters;
  state.counters["adapt_switches"] =
      static_cast<double>(total.adapt_switches) / iters;
  state.counters["fastpath_blocks"] =
      static_cast<double>(total.fastpath_blocks) / iters;
  state.counters["update_blocks"] =
      static_cast<double>(total.updates_sent) / iters;
  state.counters["t_tag_ms"] = static_cast<double>(total.tag_ns) / 1e6 / iters;
}

void sweep(benchmark::internal::Benchmark* b) {
  b->ArgNames({"pair", "config"});
  for (std::int64_t pair = 0; pair < 2; ++pair) {
    for (std::int64_t kind = 0; kind <= kAdaptiveNoCodec; ++kind) {
      b->Args({pair, kind});
    }
  }
  b->UseRealTime()->Unit(benchmark::kMillisecond);
}

void BM_AdaptiveMatmul(benchmark::State& state) {
  const work::PairSpec& pair = pair_of(state.range(0));
  const std::uint32_t n = fast_mode() ? 33 : 255;
  dsm::ShareStats total;
  for (auto _ : state) {
    dsm::Cluster cluster(work::matmul_gthv(n), *pair.home,
                         {pair.remote, pair.remote}, config(state.range(1)));
    const auto c = work::run_matmul(cluster, n);
    benchmark::DoNotOptimize(c.data());
    total += cluster.total_stats();
  }
  annotate(state, total);
}
BENCHMARK(BM_AdaptiveMatmul)->Apply(sweep);

void BM_AdaptiveLu(benchmark::State& state) {
  // One barrier per elimination step: the episode stream is long, the
  // per-step payloads shrink as elimination proceeds — exactly the drift a
  // static configuration cannot follow.
  const work::PairSpec& pair = pair_of(state.range(0));
  const std::uint32_t n = fast_mode() ? 40 : 255;
  dsm::ShareStats total;
  for (auto _ : state) {
    dsm::Cluster cluster(work::lu_gthv(n), *pair.home,
                         {pair.remote, pair.remote}, config(state.range(1)));
    const auto m = work::run_lu(cluster, n);
    benchmark::DoNotOptimize(m.data());
    total += cluster.total_stats();
  }
  annotate(state, total);
}
BENCHMARK(BM_AdaptiveLu)->Apply(sweep);

void BM_AdaptiveSor(benchmark::State& state) {
  // Two barriers per iteration, interleaved red/black dirty runs: the
  // workload where run coalescing and the per-episode costs of scattered
  // small updates dominate.
  const work::PairSpec& pair = pair_of(state.range(0));
  const std::uint32_t n = fast_mode() ? 32 : 255;
  const std::uint32_t iters = fast_mode() ? 4 : 8;
  dsm::ShareStats total;
  for (auto _ : state) {
    dsm::Cluster cluster(work::sor_gthv(n), *pair.home,
                         {pair.remote, pair.remote}, config(state.range(1)));
    const auto g = work::run_sor(cluster, n, iters);
    benchmark::DoNotOptimize(g.data());
    total += cluster.total_stats();
  }
  annotate(state, total);
}
BENCHMARK(BM_AdaptiveSor)->Apply(sweep);

}  // namespace

// Default the JSON artifact on so a bare run leaves BENCH_adaptive.json
// next to the binary; explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out = "--benchmark_out=BENCH_adaptive.json";
  std::string fmt = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
