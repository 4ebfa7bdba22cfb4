// Differential oracle for the hypersim stepping core.
//
// `reference()` is a deliberately naive simulator: link usage lives in a
// std::map keyed by (from, to) node pairs and rebuilt every cycle, routes
// are walked node by node, dependents are found by scanning every queued
// message, and the live hardware state is re-derived from the fault
// schedule on every transmission. It shares no code with CubeNetwork's
// stepping core. Over hundreds of seeded cases (Q2-Q8, random adjacent
// routes with `after` dependencies, 1-4 flits, bandwidth 1-2, both
// switching modes, transient drops, flapping links, permanent faults,
// mid-run arrivals, non-zero start cycles) CubeNetwork::run() and
// run_live() must match it field for field, detection order included.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "hypersim/network.hpp"

namespace hj::sim {
namespace {

using Link = std::pair<CubeNode, CubeNode>;

struct Msg {
  CubePath route;
  i64 after = -1;
};

/// Everything either entry point reports, computed the slow way.
struct RefResult {
  u64 executed = 0;
  u64 delivered = 0;
  u64 failed = 0;
  u64 dropped = 0;
  u64 deferred = 0;
  bool pending = false;  // traffic left when the loop stopped
  std::vector<u8> message_delivered;
  std::vector<DetectionEvent> detections;
};

/// True iff the permanent hardware (known faults plus every scheduled
/// arrival with cycle <= now) kills the undirected link a-b.
bool hardware_dead(const FaultModel* fm, const FaultSchedule& sched, u64 now,
                   CubeNode a, CubeNode b) {
  if (fm && fm->permanent().link_failed(a, b)) return true;
  for (const FaultEvent& e : sched.events()) {
    if (e.cycle > now) continue;
    if (e.is_node ? (e.a == a || e.a == b)
                  : ((e.a == a && e.b == b) || (e.a == b && e.b == a)))
      return true;
  }
  return false;
}

RefResult reference(const SimConfig& cfg, const std::vector<Msg>& msgs,
                    bool live, u64 start, const FaultSchedule& sched) {
  const std::size_t n = msgs.size();
  const u32 flits = cfg.message_flits;
  const u32 dim = std::max(cfg.cube_dim, 1u);
  const FaultModel* fm = cfg.faults;
  RefResult out;
  out.message_delivered.assign(n, 0);
  std::vector<std::vector<u32>> crossed(n);
  for (std::size_t m = 0; m < n; ++m)
    crossed[m].assign(msgs[m].route.size() - 1, 0);
  std::vector<bool> failed(n, false);
  std::vector<u32> retries(n, 0);
  std::vector<u64> last_progress(n, 0), failed_since(n, 0),
      blocked_since(n, 0);

  const auto children = [&](std::size_t m) {
    std::vector<u32> c;
    for (std::size_t k = 0; k < n; ++k)
      if (msgs[k].after == static_cast<i64>(m)) c.push_back(static_cast<u32>(k));
    return c;
  };
  std::function<void(u32)> fail = [&](u32 m) {
    if (failed[m]) return;
    failed[m] = true;
    ++out.failed;
    for (u32 c : children(m)) fail(c);
  };
  std::function<void(u32, std::vector<u32>&)> release =
      [&](u32 m, std::vector<u32>& into) {
        if (failed[m]) return;
        if (!crossed[m].empty()) {
          into.push_back(m);
          return;
        }
        out.message_delivered[m] = 1;
        ++out.delivered;
        for (u32 c : children(m)) release(c, into);
      };

  // run() never simulates a route that crosses a known permanent fault.
  if (!live && fm) {
    for (u32 m = 0; m < n; ++m) {
      const CubePath& r = msgs[m].route;
      bool dead = false;
      for (std::size_t i = 0; i < r.size(); ++i)
        dead = dead || fm->permanent().node_failed(r[i]) ||
               (i + 1 < r.size() && fm->permanent().link_failed(r[i], r[i + 1]));
      if (dead) fail(m);
    }
  }
  std::vector<u32> active;
  for (u32 m = 0; m < n; ++m)
    if (msgs[m].after < 0) release(m, active);

  std::map<Link, u32> streak;
  std::set<Link> suspected;
  while (!active.empty() && out.executed < cfg.max_cycles) {
    ++out.executed;
    const u64 now = start + out.executed;
    std::map<Link, u32> used;
    std::vector<u32> next;
    for (u32 m : active) {
      if (failed[m]) continue;
      const CubePath& r = msgs[m].route;
      std::vector<u32>& c = crossed[m];
      const u32 hops = static_cast<u32>(c.size());
      bool progressed = false;
      for (u32 h = hops; h-- > 0;) {
        const u32 upstream = h == 0 ? flits : c[h - 1];
        if (c[h] >= flits || c[h] >= upstream) continue;
        if (cfg.switching == Switching::StoreAndForward && upstream < flits)
          continue;
        const Link l{r[h], r[h + 1]};
        if (used[l] >= cfg.link_bandwidth) {
          ++blocked_since[m];
          continue;
        }
        ++used[l];
        const u64 drop_key =
            l.first * dim + static_cast<u64>(std::countr_zero(l.first ^ l.second));
        const bool drop =
            (live && hardware_dead(fm, sched, now, l.first, l.second)) ||
            (fm && fm->flapping_down(now, l.first, l.second)) ||
            (fm && fm->drops(now, drop_key));
        if (drop) {
          ++out.dropped;
          ++failed_since[m];
          if (live && ++streak[l] == cfg.detect_threshold &&
              !suspected.count(l)) {
            suspected.insert(l);
            out.detections.push_back(
                DetectionEvent{now, l.first, l.second, streak[l], false});
          }
          if (++retries[m] > cfg.max_retries) {
            fail(m);
            break;
          }
          continue;
        }
        if (live) streak[l] = 0;
        ++c[h];
        progressed = true;
      }
      if (failed[m]) continue;
      if (progressed) {
        last_progress[m] = out.executed;
        failed_since[m] = 0;
        blocked_since[m] = 0;
      }
      if (c[hops - 1] < flits) {
        if (live && out.executed - last_progress[m] >= cfg.watchdog_cycles) {
          if (failed_since[m] > 0 && failed_since[m] >= blocked_since[m]) {
            u32 stuck = 0;
            while (stuck + 1 < hops && c[stuck] >= flits) ++stuck;
            const Link l{r[stuck], r[stuck + 1]};
            if (!suspected.count(l)) {
              suspected.insert(l);
              out.detections.push_back(
                  DetectionEvent{now, l.first, l.second, streak[l], true});
            }
          } else {
            ++out.deferred;
          }
          last_progress[m] = out.executed;
          failed_since[m] = 0;
          blocked_since[m] = 0;
        }
        next.push_back(m);
      } else {
        out.message_delivered[m] = 1;
        ++out.delivered;
        for (u32 child : children(m)) release(child, next);
      }
    }
    active = next;
    if (live && !out.detections.empty()) break;
  }
  out.pending = !active.empty();
  return out;
}

SimResult reference_run(const SimConfig& cfg, const std::vector<Msg>& msgs) {
  const RefResult ref = reference(cfg, msgs, false, 0, FaultSchedule{});
  SimResult r;
  r.cycles = ref.executed;
  r.messages = msgs.size();
  r.switching = cfg.switching;
  r.message_flits = cfg.message_flits;
  r.link_bandwidth = cfg.link_bandwidth;
  std::map<Link, u32> load;
  for (const Msg& m : msgs) {
    r.total_hops += m.route.size() - 1;
    r.max_route_len =
        std::max(r.max_route_len, static_cast<u32>(m.route.size() - 1));
    for (std::size_t i = 0; i + 1 < m.route.size(); ++i)
      r.max_link_load =
          std::max(r.max_link_load, ++load[{m.route[i], m.route[i + 1]}]);
  }
  r.delivered = ref.delivered;
  r.failed_messages = ref.failed;
  r.dropped_flits = ref.dropped;
  r.completed = r.delivered == r.messages && r.failed_messages == 0;
  r.slowdown_vs_bound =
      r.messages == 0 ? 1.0
      : !r.completed
          ? 0.0
          : static_cast<double>(r.cycles) /
                static_cast<double>(std::max<u64>(1, r.lower_bound()));
  return r;
}

LiveEpochResult reference_live(const SimConfig& cfg,
                               const std::vector<Msg>& msgs, u64 start,
                               const FaultSchedule& sched) {
  const RefResult ref = reference(cfg, msgs, true, start, sched);
  LiveEpochResult r;
  r.end_cycle = start + ref.executed;
  r.messages = msgs.size();
  r.delivered = ref.delivered;
  r.dropped_flits = ref.dropped;
  r.detections = ref.detections;
  r.detected = !r.detections.empty();
  r.truncated =
      !r.detected && ref.pending && ref.executed >= cfg.max_cycles;
  r.deferred_watchdogs = ref.deferred;
  r.message_delivered = ref.message_delivered;
  return r;
}

/// One seeded case: traffic, fault model, schedule and configuration.
struct Case {
  SimConfig cfg;
  std::vector<Msg> msgs;
  FaultModel faults;
  FaultSchedule schedule;
  u64 start = 0;
};

Case make_case(u64 seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](u64 lo, u64 hi) {  // inclusive
    return lo + rng() % (hi - lo + 1);
  };
  Case c;
  const u32 dim = static_cast<u32>(2 + seed % 7);  // Q2..Q8
  const u64 nodes = u64{1} << dim;
  const auto random_link = [&] {
    const CubeNode a = rng() & (nodes - 1);
    return Link{a, a ^ (u64{1} << pick(0, dim - 1))};
  };

  c.cfg.cube_dim = dim;
  c.cfg.link_bandwidth = static_cast<u32>(pick(1, 2));
  c.cfg.message_flits = static_cast<u32>(pick(1, 4));
  c.cfg.switching =
      rng() % 2 ? Switching::CutThrough : Switching::StoreAndForward;
  // A high threshold leaves stalls to the watchdog.
  c.cfg.detect_threshold =
      static_cast<u32>(rng() % 3 == 0 ? pick(5, 24) : pick(1, 4));
  c.cfg.max_retries = c.cfg.detect_threshold + static_cast<u32>(pick(0, 40));
  c.cfg.max_cycles = rng() % 4 == 0 ? pick(1, 12) : pick(40, 400);

  // Random walks, revisits and zero-hop routes included; a third of the
  // messages wait on an earlier one. A hotspot case starts every walk on
  // the link 0->1, so bandwidth stalls outlast the watchdog.
  const bool hotspot = rng() % 3 == 0;
  const u64 count = pick(1, 40);
  u32 longest = 0;
  for (u64 i = 0; i < count; ++i) {
    Msg m;
    CubeNode v = hotspot ? 0 : rng() & (nodes - 1);
    m.route.push_back(v);
    const u64 hops = rng() % 8 == 0 ? 0 : pick(1, 6);
    for (u64 h = 0; h < hops; ++h) {
      v ^= u64{1} << (hotspot && h == 0 ? 0 : pick(0, dim - 1));
      m.route.push_back(v);
    }
    if (i > 0 && rng() % 3 == 0) m.after = static_cast<i64>(pick(0, i - 1));
    longest = std::max(longest, static_cast<u32>(hops));
    c.msgs.push_back(std::move(m));
  }
  c.cfg.watchdog_cycles =
      std::max<u64>(1, u64{longest} * c.cfg.message_flits + pick(0, 8));

  // Fault mix: permanent nodes/links, transient drops, flapping links.
  if (rng() % 3 == 0) c.faults.permanent().fail_node(rng() & (nodes - 1));
  if (rng() % 3 == 0) {
    const Link l = random_link();
    c.faults.permanent().fail_link(l.first, l.second);
  }
  if (rng() % 2 == 0) {
    const double ps[] = {0.02, 0.1, 0.3};
    c.faults.set_transient(ps[rng() % 3], rng());
  }
  for (u64 f = rng() % 3; f-- > 0;) {
    const Link l = random_link();
    const u64 period = pick(2, 60);
    c.faults.add_flapping(FlapSpec{l.first, l.second, period,
                                   pick(0, period - 1), pick(0, 40)});
  }
  c.cfg.faults = &c.faults;

  // Mid-run arrivals around a non-zero start cycle. Q2 has too little
  // fresh hardware for more than one node and one link arrival.
  c.start = rng() % 2 ? 0 : pick(1, 500);
  if (rng() % 4 != 0)
    c.schedule = FaultSchedule::random(
        dim, static_cast<u32>(pick(0, dim > 2 ? 2 : 1)),
        static_cast<u32>(pick(0, dim > 2 ? 3 : 1)),
        c.start > 0 ? pick(0, c.start + 20) : pick(0, 20), pick(0, 15),
        rng());
  return c;
}

void queue(CubeNetwork& net, const std::vector<Msg>& msgs) {
  for (const Msg& m : msgs) net.add_message(m.route, m.after);
}

void expect_same(const SimResult& want, const SimResult& got, u64 seed) {
  EXPECT_EQ(want.cycles, got.cycles) << "seed " << seed;
  EXPECT_EQ(want.messages, got.messages) << "seed " << seed;
  EXPECT_EQ(want.total_hops, got.total_hops) << "seed " << seed;
  EXPECT_EQ(want.max_link_load, got.max_link_load) << "seed " << seed;
  EXPECT_EQ(want.max_route_len, got.max_route_len) << "seed " << seed;
  EXPECT_EQ(want.switching, got.switching) << "seed " << seed;
  EXPECT_EQ(want.message_flits, got.message_flits) << "seed " << seed;
  EXPECT_EQ(want.link_bandwidth, got.link_bandwidth) << "seed " << seed;
  EXPECT_EQ(want.completed, got.completed) << "seed " << seed;
  EXPECT_EQ(want.delivered, got.delivered) << "seed " << seed;
  EXPECT_EQ(want.failed_messages, got.failed_messages) << "seed " << seed;
  EXPECT_EQ(want.dropped_flits, got.dropped_flits) << "seed " << seed;
  EXPECT_EQ(want.slowdown_vs_bound, got.slowdown_vs_bound) << "seed " << seed;
  EXPECT_TRUE(got.consistent()) << "seed " << seed;
}

void expect_same(const LiveEpochResult& want, const LiveEpochResult& got,
                 u64 seed) {
  EXPECT_EQ(want.end_cycle, got.end_cycle) << "seed " << seed;
  EXPECT_EQ(want.messages, got.messages) << "seed " << seed;
  EXPECT_EQ(want.delivered, got.delivered) << "seed " << seed;
  EXPECT_EQ(want.dropped_flits, got.dropped_flits) << "seed " << seed;
  EXPECT_EQ(want.detected, got.detected) << "seed " << seed;
  EXPECT_EQ(want.truncated, got.truncated) << "seed " << seed;
  EXPECT_EQ(want.deferred_watchdogs, got.deferred_watchdogs)
      << "seed " << seed;
  EXPECT_EQ(want.detections, got.detections) << "seed " << seed;
  EXPECT_EQ(want.message_delivered, got.message_delivered)
      << "seed " << seed;
}

constexpr u64 kCases = 240;

TEST(NetworkOracle, RunMatchesNaiveReference) {
  u64 failed = 0, dropped = 0, truncated = 0;
  for (u64 seed = 1; seed <= kCases; ++seed) {
    const Case c = make_case(seed);
    CubeNetwork net(c.cfg);
    queue(net, c.msgs);
    const SimResult got = net.run();
    expect_same(reference_run(c.cfg, c.msgs), got, seed);
    failed += got.failed_messages > 0;
    dropped += got.dropped_flits > 0;
    truncated += !got.completed && got.failed_messages == 0;
  }
  // The seeds must exercise every outcome, not just clean drains.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(truncated, 0u);
}

TEST(NetworkOracle, RunLiveMatchesNaiveReference) {
  u64 detected = 0, by_watchdog = 0, deferred = 0, drained = 0, truncated = 0;
  for (u64 seed = 1; seed <= kCases; ++seed) {
    const Case c = make_case(seed);
    CubeNetwork net(c.cfg);
    queue(net, c.msgs);
    const LiveEpochResult got = net.run_live(c.start, c.schedule);
    expect_same(reference_live(c.cfg, c.msgs, c.start, c.schedule), got,
                seed);
    detected += got.detected;
    for (const DetectionEvent& d : got.detections) by_watchdog += d.by_watchdog;
    deferred += got.deferred_watchdogs > 0;
    drained += got.drained();
    truncated += got.truncated;
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(by_watchdog, 0u);
  EXPECT_GT(deferred, 0u);
  EXPECT_GT(drained, 0u);
  EXPECT_GT(truncated, 0u);
}

}  // namespace
}  // namespace hj::sim
