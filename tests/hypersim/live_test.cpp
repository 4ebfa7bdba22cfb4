// Tests for the live-recovery stack: FaultSchedule parsing and replay,
// the run_live detection layer (consecutive-failure counters and the
// delivery watchdog), the epoch driver, and end-to-end certified recovery
// with bit-identical logs at every thread count.
#include "hypersim/live.hpp"

#include <gtest/gtest.h>

#include "core/io.hpp"
#include "core/parallel.hpp"
#include "manytoone/manytoone.hpp"
#include "search/provider.hpp"

namespace hj::sim {
namespace {

// Restores the thread override even when an assertion fails mid-test.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { par::set_thread_override(0); }
};

PlanResult plan_shape(const Shape& shape) {
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  return planner.plan(shape);
}

LiveOptions full_options() {
  LiveOptions opts;
  opts.recovery.direct_provider = search::make_search_provider();
  opts.recovery.degrade_provider = m2o::make_degrade_provider();
  return opts;
}

// --- FaultSchedule ----------------------------------------------------------

TEST(FaultSchedule, ParseAndCanonicalOrder) {
  const FaultSchedule s = FaultSchedule::parse(
      "# a comment\n"
      "\n"
      "20 link 4 5\n"
      "10 node 3\n"
      "10 link 0 2\n"
      "10 node 1\n");
  ASSERT_EQ(s.size(), 4u);
  // Sorted by (cycle, node-before-link, address).
  EXPECT_EQ(s.events()[0], (FaultEvent{10, true, 1, 0}));
  EXPECT_EQ(s.events()[1], (FaultEvent{10, true, 3, 0}));
  EXPECT_EQ(s.events()[2], (FaultEvent{10, false, 0, 2}));
  EXPECT_EQ(s.events()[3], (FaultEvent{20, false, 4, 5}));
  EXPECT_EQ(s.events()[0].to_string(), "node 1");
  EXPECT_EQ(s.events()[2].to_string(), "link 0-2");
}

TEST(FaultSchedule, ParseRejectsMalformedLines) {
  EXPECT_THROW((void)FaultSchedule::parse("x node 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("5\n"), std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("5 nodule 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("5 node\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("5 link 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::parse("5 link 3 4\n"),
               std::invalid_argument);  // not cube-adjacent
  EXPECT_THROW((void)FaultSchedule::parse("5 node 3 junk\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::load("/nonexistent/schedule.txt"),
               std::invalid_argument);
}

TEST(FaultSchedule, ApplyUntilIsIncremental) {
  FaultSchedule s;
  s.add_node_failure(10, 3);
  s.add_link_failure(20, 0, 1);
  FaultSet f;
  std::size_t cursor = 0;
  s.apply_until(5, f, cursor);
  EXPECT_TRUE(f.empty());
  s.apply_until(10, f, cursor);
  EXPECT_TRUE(f.node_failed(3));
  EXPECT_FALSE(f.link_failed(0, 1));
  s.apply_until(100, f, cursor);
  EXPECT_TRUE(f.link_failed(0, 1));
  EXPECT_EQ(cursor, 2u);
}

TEST(FaultSchedule, DiagnosePrefersNodeOverLinkAndEarliest) {
  FaultSchedule s;
  s.add_link_failure(5, 2, 3);
  s.add_node_failure(8, 2);
  // Before the node arrival, the link event explains a 2->3 failure.
  auto d1 = s.diagnose(2, 3, 6);
  ASSERT_TRUE(d1.has_value());
  EXPECT_FALSE(d1->is_node);
  // After it, the dead endpoint node wins (it explains every incident
  // link).
  auto d2 = s.diagnose(2, 3, 10);
  ASSERT_TRUE(d2.has_value());
  EXPECT_TRUE(d2->is_node);
  EXPECT_EQ(d2->a, 2u);
  // Unrelated links have no explanation.
  EXPECT_FALSE(s.diagnose(4, 5, 100).has_value());
}

TEST(FaultSchedule, RandomIsSeedDeterministic) {
  const FaultSchedule a = FaultSchedule::random(6, 2, 2, 10, 5, 42);
  const FaultSchedule b = FaultSchedule::random(6, 2, 2, 10, 5, 42);
  const FaultSchedule c = FaultSchedule::random(6, 2, 2, 10, 5, 43);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.events(), b.events());
  EXPECT_NE(a.events(), c.events());
  u32 nodes = 0;
  for (const FaultEvent& e : a.events()) nodes += e.is_node ? 1 : 0;
  EXPECT_EQ(nodes, 2u);
}

TEST(FaultSchedule, RandomRejectsExactlyTheRequestsWithNoFreshHardware) {
  // The demo schedule of `hj_embed recover 2` (Q1, 2 node + 1 link
  // events) cannot be drawn: with both nodes dead no live link is left.
  EXPECT_THROW((void)FaultSchedule::random(1, 2, 1, 2, 6, 42),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::random(1, 1, 1, 2, 6, 42),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::random(1, 3, 0, 2, 6, 42),
               std::invalid_argument);
  EXPECT_THROW((void)FaultSchedule::random(1, 0, 2, 2, 6, 42),
               std::invalid_argument);
  EXPECT_EQ(FaultSchedule::random(1, 2, 0, 2, 6, 42).size(), 2u);
  EXPECT_EQ(FaultSchedule::random(1, 0, 1, 2, 6, 42).size(), 1u);

  // Exactness in Q1-Q3: node draws come first and do not depend on the
  // link count, so the nodes a schedule kills are those of its node-only
  // prefix. A request must succeed iff it fits the node count and the
  // links left with both endpoints alive.
  for (u32 n = 1; n <= 3; ++n) {
    const u64 nodes = u64{1} << n;
    for (u32 k = 0; k <= nodes; ++k) {
      for (u64 seed = 0; seed < 8; ++seed) {
        const FaultSchedule dead = FaultSchedule::random(n, k, 0, 0, 1, seed);
        FaultSet killed;
        for (const FaultEvent& e : dead.events()) killed.fail_node(e.a);
        u64 live_links = 0;
        for (CubeNode v = 0; v < nodes; ++v)
          for (u32 d = 0; d < n; ++d) {
            const CubeNode w = v ^ (u64{1} << d);
            if (v < w && !killed.link_failed(v, w)) ++live_links;
          }
        for (u32 l = 0; l <= live_links + 1; ++l) {
          if (l <= live_links) {
            const FaultSchedule s = FaultSchedule::random(n, k, l, 0, 1, seed);
            EXPECT_EQ(s.size(), u64{k} + l) << n << " " << k << " " << l;
          } else {
            EXPECT_THROW((void)FaultSchedule::random(n, k, l, 0, 1, seed),
                         std::invalid_argument)
                << n << " " << k << " " << l;
          }
        }
      }
      EXPECT_THROW((void)FaultSchedule::random(n, static_cast<u32>(nodes) + 1,
                                               0, 0, 1, 0),
                   std::invalid_argument);
    }
  }
}

// --- SimConfig validation ---------------------------------------------------

TEST(LiveConfig, RejectsNonsensicalDetectionSettings) {
  SimConfig cfg{4};
  cfg.detect_threshold = 0;
  EXPECT_THROW(CubeNetwork{cfg}, std::invalid_argument);
  cfg.detect_threshold = 4;
  cfg.watchdog_cycles = 0;
  EXPECT_THROW(CubeNetwork{cfg}, std::invalid_argument);
  cfg.watchdog_cycles = 4096;
  cfg.max_retries = 2;  // below detect_threshold: detection could never fire
  EXPECT_THROW(CubeNetwork{cfg}, std::invalid_argument);
}

TEST(LiveConfig, RejectsWatchdogBelowRouteServiceTime) {
  SimConfig cfg{4};
  cfg.message_flits = 4;
  cfg.watchdog_cycles = 5;  // longest route below is 4 hops x 4 flits = 16
  CubeNetwork net(cfg);
  (void)net.add_message(CubePath{0, 1, 3, 7, 15});
  EXPECT_THROW((void)net.run_live(0, FaultSchedule{}),
               std::invalid_argument);
}

// --- run_live detection -----------------------------------------------------

TEST(RunLive, DrainsCleanlyWithoutFaults) {
  SimConfig cfg{3};
  CubeNetwork net(cfg);
  (void)net.add_message(CubePath{0, 1, 3});
  (void)net.add_message(CubePath{7, 6});
  const LiveEpochResult r = net.run_live(0, FaultSchedule{});
  EXPECT_TRUE(r.drained());
  EXPECT_FALSE(r.detected);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.delivered, 2u);
  EXPECT_EQ(r.message_delivered, (std::vector<u8>{1, 1}));
}

TEST(RunLive, ConsecutiveFailuresDetectAnArrivedLinkFault) {
  // An 8-flit message starts streaming over 0->1 (first attempt at cycle
  // 1); the link dies mid-message at cycle 3. Attempts at cycles 3..6
  // fail, so the counter reaches detect_threshold=4 at cycle 6 and the
  // epoch pauses that same cycle.
  FaultSchedule schedule;
  schedule.add_link_failure(3, 0, 1);
  SimConfig cfg{3};
  cfg.detect_threshold = 4;
  cfg.message_flits = 8;
  CubeNetwork net(cfg);
  (void)net.add_message(CubePath{0, 1, 3});
  const LiveEpochResult r = net.run_live(0, schedule);
  ASSERT_TRUE(r.detected);
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections[0].from, 0u);
  EXPECT_EQ(r.detections[0].to, 1u);
  EXPECT_EQ(r.detections[0].consecutive_failures, 4u);
  EXPECT_FALSE(r.detections[0].by_watchdog);
  EXPECT_EQ(r.detections[0].cycle, 3u + 4u - 1u);
  EXPECT_EQ(r.end_cycle, 3u + 4u - 1u);
  EXPECT_EQ(r.message_delivered, (std::vector<u8>{0}));
}

TEST(RunLive, NodeFaultMidRouteIsDetectedOnAnIncidentLink) {
  // Node 3 dies at cycle 2, after the flit already crossed 1->3 (cycle
  // 1): the stall shows up on the outgoing link 3->7 instead. Either
  // incident link is fine — what matters is that diagnosis maps the
  // suspected link back to the node death.
  FaultSchedule schedule;
  schedule.add_node_failure(2, 3);
  SimConfig cfg{3};
  CubeNetwork net(cfg);
  (void)net.add_message(CubePath{1, 3, 7});
  const LiveEpochResult r = net.run_live(0, schedule);
  ASSERT_TRUE(r.detected);
  EXPECT_TRUE(r.detections[0].from == 3u || r.detections[0].to == 3u);
  // Ground truth diagnoses the suspected link back to the node death.
  auto diag = schedule.diagnose(r.detections[0].from, r.detections[0].to,
                                r.end_cycle);
  ASSERT_TRUE(diag.has_value());
  EXPECT_TRUE(diag->is_node);
  EXPECT_EQ(diag->a, 3u);
}

TEST(RunLive, WatchdogPromotesAStallWhenCountersCannot) {
  // detect_threshold is set high, so the counter path stays silent; the
  // watchdog must flag the stuck hop after watchdog_cycles of no
  // progress.
  FaultSchedule schedule;
  schedule.add_link_failure(0, 0, 1);
  SimConfig cfg{3};
  cfg.detect_threshold = 50;
  cfg.max_retries = 1000;
  cfg.watchdog_cycles = 10;
  CubeNetwork net(cfg);
  (void)net.add_message(CubePath{0, 1, 3});
  const LiveEpochResult r = net.run_live(0, schedule);
  ASSERT_TRUE(r.detected);
  EXPECT_TRUE(r.detections[0].by_watchdog);
  EXPECT_EQ(r.detections[0].from, 0u);
  EXPECT_EQ(r.detections[0].to, 1u);
  EXPECT_EQ(r.detections[0].cycle, 10u);
}

TEST(RunLive, StartCycleOffsetsScheduleReplay) {
  // An event at cycle 5 is already in effect when the epoch starts at
  // cycle 8, even though nothing was detected before.
  FaultSchedule schedule;
  schedule.add_link_failure(5, 0, 1);
  SimConfig cfg{3};
  CubeNetwork net(cfg);
  (void)net.add_message(CubePath{0, 1});
  const LiveEpochResult r = net.run_live(8, schedule);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.detections[0].cycle, 8u + 4u);
}

// --- The epoch driver -------------------------------------------------------

TEST(LiveRun, CleanScheduleDeliversEverything) {
  const PlanResult base = plan_shape(Shape{3, 3, 3});
  const LiveRunResult r = run_stencil_with_recovery(
      base.embedding, FaultSchedule{}, full_options());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.delivered, r.messages);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.log.empty());
  EXPECT_TRUE(r.report.fault_free);
}

TEST(LiveRun, EndToEndScenarioWithThreeArrivals) {
  // The acceptance scenario: a 3D mesh, >= 3 mid-run arrivals, every
  // message delivered-or-accounted, the final embedding certified against
  // every arrived fault, and any repair that stopped at rung (a) or (b)
  // within dilation d+1.
  const PlanResult base = plan_shape(Shape{4, 4, 4});
  ASSERT_TRUE(base.report.valid);
  const u32 d = base.report.dilation;

  FaultSchedule schedule;
  // A link fault (reroutable), then a node death, then another link cut.
  const CubeNode victim = base.embedding->map(21);
  schedule.add_link_failure(2, base.embedding->map(0),
                            base.embedding->map(0) ^ 1);
  schedule.add_node_failure(9, victim);
  schedule.add_link_failure(16, victim ^ 0x30, victim ^ 0x30 ^ 2);
  ASSERT_EQ(schedule.size(), 3u);

  LiveOptions opts = full_options();
  opts.sim.message_flits = 4;
  const LiveRunResult r =
      run_stencil_with_recovery(base.embedding, schedule, opts);

  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.delivered + r.failed, r.messages);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
  EXPECT_GE(r.log.size(), 1u);
  for (const RecoveryEpochLog& e : r.log) {
    EXPECT_LE(e.arrival_cycle, e.detect_cycle);
    if (e.rung == "reroute" || e.rung == "migrate") {
      EXPECT_LE(e.dilation, d + 1) << "rung " << e.rung;
    }
  }
  // Every scheduled fault is known to the final fault set.
  EXPECT_TRUE(r.faults.node_failed(victim));
  EXPECT_TRUE(r.faults.link_failed(base.embedding->map(0),
                                   base.embedding->map(0) ^ 1));
}

TEST(LiveRun, PersistentTransientIsQuarantined) {
  // No scheduled arrivals, but a heavy transient: suspects that the
  // schedule cannot explain must be quarantined as permanent links and
  // routed around, and the run still drains.
  const PlanResult base = plan_shape(Shape{3, 3, 3});
  FaultModel transient;
  transient.set_transient(0.8, 7);
  LiveOptions opts = full_options();
  opts.sim.faults = &transient;
  const LiveRunResult r =
      run_stencil_with_recovery(base.embedding, FaultSchedule{}, opts);
  EXPECT_EQ(r.delivered + r.failed, r.messages);
  bool quarantined = false;
  for (const RecoveryEpochLog& e : r.log)
    if (e.fault.find("quarantine") != std::string::npos) quarantined = true;
  EXPECT_TRUE(quarantined)
      << "a 0.8 drop rate must trip the consecutive-failure detector";
  // Quarantined links are conservative false positives: the final
  // embedding must still certify against the ground truth (no permanent
  // faults at all).
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
}

TEST(LiveRun, AuditSweepCatchesUndetectedArrival) {
  // A node death at the very end of the drain: no remaining traffic may
  // cross it, so detection can stay silent — the audit sweep must still
  // leave a certified final embedding.
  const PlanResult base = plan_shape(Shape{3, 3, 3});
  FaultSchedule schedule;
  schedule.add_node_failure(1, base.embedding->map(13));
  LiveOptions opts = full_options();
  opts.sim.message_flits = 1;
  const LiveRunResult r =
      run_stencil_with_recovery(base.embedding, schedule, opts);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.report.fault_free);
  EXPECT_FALSE(r.log.empty());
}

// --- Determinism ------------------------------------------------------------

TEST(LiveDeterminism, IdenticalLogAndEmbeddingAtEveryThreadCount) {
  const ThreadOverrideGuard guard;
  const PlanResult base = plan_shape(Shape{3, 3, 7});
  const FaultSchedule schedule = FaultSchedule::random(
      base.embedding->host_dim(), 2, 2, 3, 7, 1234);

  std::string ref_log, ref_emb;
  for (const u32 threads : {1u, 2u, 8u}) {
    par::set_thread_override(threads);
    LiveOptions opts = full_options();
    opts.sim.message_flits = 4;
    const LiveRunResult r =
        run_stencil_with_recovery(base.embedding, schedule, opts);
    const std::string log = recovery_log_json(r);
    const std::string emb = io::to_text(*r.embedding);
    if (ref_log.empty()) {
      ref_log = log;
      ref_emb = emb;
      EXPECT_GE(r.log.size(), 2u) << "scenario should exercise repairs";
    } else {
      EXPECT_EQ(log, ref_log) << "RecoveryLog differs at " << threads
                              << " threads";
      EXPECT_EQ(emb, ref_emb) << "final embedding differs at " << threads
                              << " threads";
    }
  }
}

}  // namespace
}  // namespace hj::sim
