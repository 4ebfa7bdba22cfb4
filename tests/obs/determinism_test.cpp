// The observability determinism contract: every Kind::Deterministic
// aggregate (counter values and histogram buckets) is bit-identical at
// HJ_THREADS 1, 2 and 8 for the same workload, because the observation
// multiset is a pure function of the input and u64 shard merging
// commutes. Timing metrics are explicitly outside the contract and are
// excluded by snapshotting with a kind filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/parallel.hpp"
#include "core/planner.hpp"
#include "hypersim/network.hpp"
#include "obs/obs.hpp"

namespace hj {
namespace {

#ifndef HJ_DISABLE_OBS

/// One seeded workload: a plan_batch over ~12 random small shapes
/// (repeats and axis permutations included, so the dedup and relabel
/// counters fire), plus a stencil simulation on every fourth workload.
void run_workload(u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<u64> axis(2, 20);
  std::uniform_int_distribution<u32> rank(1, 3);
  std::vector<Shape> shapes;
  for (int i = 0; i < 12; ++i) {
    SmallVec<u64, 4> extents;
    const u32 r = rank(rng);
    for (u32 a = 0; a < r; ++a) extents.push_back(axis(rng));
    shapes.push_back(Shape{extents});
    // Re-enqueue an axis permutation of every third shape so canonical
    // dedup has something to deduplicate.
    if (i % 3 == 0 && extents.size() > 1) {
      std::reverse(extents.begin(), extents.end());
      shapes.push_back(Shape{extents});
    }
  }
  ShardedPlanCache cache;
  const std::vector<PlanResult> plans =
      plan_batch(shapes, {}, nullptr, &cache);
  if (seed % 4 == 0) {
    for (const PlanResult& r : plans) {
      if (r.embedding->host_dim() > 10) continue;
      const sim::SimResult s = sim::simulate_stencil(*r.embedding);
      ASSERT_TRUE(s.consistent());
      break;
    }
  }
}

TEST(ObsDeterminism, DeterministicAggregatesMatchAcrossThreadCounts) {
  obs::set_enabled(true);
  std::vector<obs::Registry::Snapshot> runs;
  for (const u32 threads : {1u, 2u, 8u}) {
    par::set_thread_override(threads);
    obs::Registry::global().reset();
    obs::EventLog::global().clear();
    for (u64 seed = 1; seed <= 50; ++seed) run_workload(seed);
    runs.push_back(
        obs::Registry::global().snapshot(obs::Kind::Deterministic));
    EXPECT_EQ(obs::EventLog::global().dropped(), 0u) << threads;
  }
  par::set_thread_override(0);
  obs::set_enabled(false);
  obs::EventLog::global().clear();

  ASSERT_FALSE(runs[0].counters.empty());
  ASSERT_FALSE(runs[0].histograms.empty());
  // Sanity: the workload actually exercised the instrumented layers.
  EXPECT_GT(runs[0].counters.at("plan.batch.shapes"), 0u);
  EXPECT_GT(runs[0].counters.at("plan.batch.unique"), 0u);
  EXPECT_GT(runs[0].counters.at("sim.runs"), 0u);
  EXPECT_GT(runs[0].histograms.at("plan.dilation").count, 0u);
  // Dedup must have merged at least the injected permutations.
  EXPECT_LT(runs[0].counters.at("plan.batch.unique"),
            runs[0].counters.at("plan.batch.shapes"));

  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

// The same contract, extended to the structured event log: the
// concatenation of Kind::Deterministic event LINES (not just aggregate
// counters) is bit-identical at HJ_THREADS 1/2/8, because Det events are
// emitted only from serial or canonically ordered call sites and carry
// no clock/thread fields. Timing events are free to interleave and are
// filtered out by deterministic_text().
TEST(ObsDeterminism, DeterministicEventStreamsMatchAcrossThreadCounts) {
  obs::set_enabled(true);
  std::vector<std::string> streams;
  for (const u32 threads : {1u, 2u, 8u}) {
    par::set_thread_override(threads);
    obs::Registry::global().reset();
    obs::EventLog::global().clear();
    for (u64 seed = 1; seed <= 20; ++seed) run_workload(seed);
    // Span events share the bounded capture: a drop could hide a Det line.
    EXPECT_EQ(obs::EventLog::global().dropped(), 0u) << threads;
    streams.push_back(obs::EventLog::global().deterministic_text());
  }
  par::set_thread_override(0);
  obs::set_enabled(false);
  obs::EventLog::global().clear();

  ASSERT_FALSE(streams[0].empty());
  // The batch-summary event is Det and fires once per plan_batch call.
  EXPECT_NE(streams[0].find("\"ev\":\"plan.batch\""), std::string::npos);
  EXPECT_EQ(streams[0].find("ts_us"), std::string::npos);
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
}

TEST(ObsDeterminism, TimingMetricsAreExcludedFromTheContract) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  run_workload(7);
  const auto det =
      obs::Registry::global().snapshot(obs::Kind::Deterministic);
  const auto all = obs::Registry::global().snapshot();
  obs::set_enabled(false);
  EXPECT_EQ(obs::EventLog::global().dropped(), 0u);
  obs::EventLog::global().clear();
  // plancache hit counts depend on worker scheduling: Timing by design.
  EXPECT_EQ(det.counters.count("plancache.hits"), 0u);
  EXPECT_EQ(all.counters.count("plancache.hits"), 1u);
  for (const auto& [name, value] : det.counters)
    EXPECT_EQ(all.counters.at(name), value) << name;
}

#endif  // HJ_DISABLE_OBS

}  // namespace
}  // namespace hj
