// Kernel micro-benchmarks (google-benchmark): the hot analysis paths that
// bound SkeletonHunter's 8-second average detection time — STFT feature
// extraction, constrained clustering, LOF scoring, and the log-normal
// Z-test — and whole skeleton inference and its fidelity gate at task
// scale.
#include <benchmark/benchmark.h>

#include "cluster/task.h"
#include "common/rng.h"
#include "core/fidelity.h"
#include "core/skeleton_inference.h"
#include "dsp/fft.h"
#include "dsp/stft.h"
#include "dsp/wavelet.h"
#include "ml/clustering.h"
#include "ml/lof.h"
#include "ml/stats_tests.h"
#include "workload/traffic.h"

namespace skh {
namespace {

std::vector<double> burst_like(std::size_t n, std::uint64_t seed) {
  RngStream rng{seed};
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = ((i % 30) > 24 ? 15.0 : 2.0) + rng.normal(0, 0.3);
  }
  return s;
}

void BM_FftReal(benchmark::State& state) {
  const auto sig = burst_like(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::fft_real(sig));
  }
}
BENCHMARK(BM_FftReal)->Arg(256)->Arg(1024)->Arg(4096);

void BM_StftFeature(benchmark::State& state) {
  const auto sig = burst_like(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::stft_feature(sig));
  }
}
BENCHMARK(BM_StftFeature)->Arg(900)->Arg(1800)->Arg(3600);

void BM_HaarFeature(benchmark::State& state) {
  const auto sig = burst_like(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::haar_feature(sig));
  }
}
BENCHMARK(BM_HaarFeature)->Arg(900)->Arg(3600);

void BM_ConstrainedClustering(benchmark::State& state) {
  // 33-bin STFT features, as inference clusters: with a handful of
  // dimensions the distance term of the linkage would hide.
  const auto n = static_cast<std::size_t>(state.range(0));
  RngStream rng{4};
  ml::FeatureMatrix features;
  std::vector<std::size_t> host_of;
  const std::size_t groups = 8;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = i % groups;
    std::vector<double> s(900);
    for (std::size_t t = 0; t < s.size(); ++t) {
      s[t] = ((t % (20 + 3 * g)) < 4 ? 15.0 : 2.0) + rng.normal(0, 0.3);
    }
    features.push_back(dsp::stft_feature(s));
    host_of.push_back(i / groups);
  }
  ml::ConstrainedClusterConfig cfg;
  cfg.host_of = host_of;
  cfg.candidate_ks = {groups};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::constrained_cluster(features, cfg));
  }
}
BENCHMARK(BM_ConstrainedClustering)->Arg(64)->Arg(128)->Arg(256);

void BM_LofScore(benchmark::State& state) {
  RngStream rng{5};
  std::vector<std::vector<double>> lookback;
  for (int i = 0; i < 10; ++i) {
    std::vector<double> w(7);
    for (auto& x : w) x = 16.0 + rng.normal(0, 0.5);
    lookback.push_back(std::move(w));
  }
  const std::vector<double> query{15, 16, 17, 14, 16, 0.8, 19};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::lof_score_of(query, lookback, {3, 1.8}));
  }
}
BENCHMARK(BM_LofScore);

void BM_ZTest(benchmark::State& state) {
  RngStream rng{6};
  std::vector<double> baseline(static_cast<std::size_t>(state.range(0)));
  for (auto& x : baseline) x = rng.lognormal(std::log(16.0), 0.1);
  const auto model = ml::fit_lognormal(baseline);
  std::vector<double> window(baseline.size() / 2);
  for (auto& x : window) x = rng.lognormal(std::log(16.5), 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::z_test(model, window));
  }
}
BENCHMARK(BM_ZTest)->Arg(1800)->Arg(7200);

void BM_BestLag(benchmark::State& state) {
  const auto a = burst_like(900, 7);
  auto b = a;
  std::rotate(b.begin(), b.begin() + 9, b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::best_lag(a, b));
  }
}
BENCHMARK(BM_BestLag);

/// Observations of a tp8/pp4 task of `endpoints` RNICs, one container per
/// host, with workload-generated 900 s burst series.
std::vector<core::EndpointObservation> task_observations(
    std::size_t endpoints) {
  workload::ParallelismConfig par;
  par.tp = 8;
  par.pp = 4;
  par.dp = static_cast<std::uint32_t>(endpoints / (par.tp * par.pp));
  cluster::TaskInfo task;
  task.id = TaskId{0};
  task.request.num_containers = par.num_containers();
  task.request.gpus_per_container = par.tp;
  std::vector<cluster::ContainerInfo> containers;
  for (std::uint32_t c = 0; c < par.num_containers(); ++c) {
    cluster::ContainerInfo ci;
    ci.id = ContainerId{c};
    ci.task = task.id;
    ci.host = HostId{c};
    ci.index_in_task = c;
    for (std::uint32_t g = 0; g < par.tp; ++g) {
      ci.rnics.push_back(RnicId{c * par.tp + g});
    }
    task.containers.push_back(ci.id);
    containers.push_back(ci);
  }
  const auto layout = workload::make_layout(task, containers, par);
  RngStream rng{8};
  const auto series = workload::burst_series_for_layout(layout, {}, rng);
  std::vector<core::EndpointObservation> obs(layout.roles.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    obs[i].endpoint = layout.roles[i].endpoint;
    obs[i].host = obs[i].endpoint.container.value();
    obs[i].container_index = obs[i].endpoint.container.value();
    obs[i].rnic_rank = layout.roles[i].rail;
    obs[i].throughput = series[i];
  }
  return obs;
}

/// Candidate DP degrees around the true one, as a deployment would list.
core::InferenceConfig task_inference(std::size_t endpoints) {
  const auto dp = static_cast<std::uint32_t>(endpoints / 32);
  core::InferenceConfig cfg;
  cfg.candidate_dp = {dp / 2, dp, dp * 2};
  return cfg;
}

void BM_InferSkeleton(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto obs = task_observations(n);
  const auto cfg = task_inference(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::infer_skeleton(obs, cfg));
  }
}
BENCHMARK(BM_InferSkeleton)
    ->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ValidateSkeleton(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto obs = task_observations(n);
  const auto inferred = core::infer_skeleton(obs, task_inference(n));
  if (!inferred) {
    state.SkipWithError("inference found no skeleton");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::validate_skeleton(inferred->pairs, obs));
  }
}
BENCHMARK(BM_ValidateSkeleton)
    ->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace skh

BENCHMARK_MAIN();
