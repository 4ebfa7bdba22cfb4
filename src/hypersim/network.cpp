#include "hypersim/network.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/bitword.hpp"
#include "obs/obs.hpp"

namespace hj::sim {
namespace {

/// Directed link id: source node * dim + flipped bit. Also the key of the
/// transient-drop hash (FaultModel::drops), so it must stay this formula.
u64 link_id(CubeNode from, CubeNode to, u32 dim) {
  require(Hypercube::adjacent(from, to),
          "link_id: nodes %llu and %llu are not cube-adjacent",
          static_cast<unsigned long long>(from),
          static_cast<unsigned long long>(to));
  return from * dim + static_cast<u64>(std::countr_zero(from ^ to));
}

/// The queued routes with every hop interned to a dense link index, in one
/// pass per run. The index keys every per-link array of the stepping core:
/// bandwidth, failure streaks and suspicions are array slots, not map
/// entries looked up on every transmission attempt.
struct Interned {
  /// Message m's hops are [first_hop[m], first_hop[m + 1]).
  std::vector<u32> first_hop{0};
  std::vector<u32> hop_link;  // dense link of each hop
  std::vector<u64> link_key;  // dense link -> link_id
  std::vector<u32> load;      // dense link -> messages routed over it
  u32 max_route_len = 0;
};

Interned intern(const std::vector<CubePath>& routes, u32 dim) {
  Interned t;
  std::unordered_map<u64, u32> index;
  for (const CubePath& r : routes) {
    for (std::size_t i = 0; i + 1 < r.size(); ++i) {
      const u64 key = link_id(r[i], r[i + 1], dim);
      const auto [it, fresh] =
          index.try_emplace(key, static_cast<u32>(t.link_key.size()));
      if (fresh) {
        t.link_key.push_back(key);
        t.load.push_back(0);
      }
      ++t.load[it->second];
      t.hop_link.push_back(it->second);
    }
    t.first_hop.push_back(static_cast<u32>(t.hop_link.size()));
    t.max_route_len =
        std::max(t.max_route_len, static_cast<u32>(r.size() - 1));
  }
  return t;
}

/// What the stepping core reports to its entry points.
struct Outcome {
  u64 executed = 0;  // cycles stepped
  u64 delivered = 0;
  u64 failed = 0;  // messages that can never arrive, dependents included
  u64 dropped = 0;
  /// Transmission attempts deferred because the link's bandwidth was
  /// already spent this cycle (a queue-depth proxy).
  u64 blocked = 0;
  u64 deferred_watchdogs = 0;
  bool pending = false;  // traffic still in flight when stepping stopped
  std::vector<u8> message_delivered;
};

/// The one stepping core behind run() and run_live(). `hooks` supplies
/// what differs between them:
///   doomed(route)             fail this route before the first cycle;
///   begin_cycle(now, active)  per-cycle hook ahead of arbitration;
///   link_dead(now, from, to)  permanent-fault oracle for one transmission;
///   suspect(event, link)      sink for the detection layer's suspicions;
///   end_cycle()               true to pause after the cycle just stepped.
/// Cycle k of the run is absolute cycle start_cycle + k.
///
/// Flit state: crossed[hop] = flits of the hop's message that have crossed
/// it. A flit may cross hop h this cycle when
///   * it exists at the upstream node: crossed[h] < crossed[h-1]
///     (crossed[-1] == flits: the whole train starts at the source), and
///   * under store-and-forward, the entire train is upstream:
///     crossed[h-1] == flits, and
///   * link h has spare bandwidth this cycle.
/// Hops are served destination-first so a flit never moves twice per
/// cycle; messages are served in active-list order (deterministic
/// arbitration).
template <class Hooks>
Outcome step(const SimConfig& config, const std::vector<CubePath>& routes,
             const std::vector<i64>& deps, const Interned& t,
             u64 start_cycle, Hooks& hooks) {
  const u32 n = static_cast<u32>(routes.size());
  const u32 flits = config.message_flits;
  const bool cut_through = config.switching == Switching::CutThrough;
  const FaultModel* faults = config.faults;
  const bool transient = faults && faults->has_transient();
  const bool flapping = faults && faults->has_flapping();
  Outcome out;
  out.message_delivered.assign(n, 0);

  std::vector<u32> crossed(t.hop_link.size(), 0);
  // Dependency bookkeeping: children[m] are released when m completes.
  std::vector<std::vector<u32>> children(n);
  BitwordSet failed(n);
  std::vector<u32> retries(n, 0);
  // Watchdog state: cycle of each message's last flit progress, plus — to
  // tell a dead network from a saturated one — how many of its
  // transmission attempts since then outright *failed* (dead/flapping
  // link, transient drop) versus were merely *blocked* on link bandwidth
  // already spent by other traffic.
  struct Stall {
    u64 since = 0, failed = 0, blocked = 0;
  };
  std::vector<Stall> stall(n);
  // Per dense link: flits carried this cycle (zeroed through the dirty
  // list), and consecutive failed transmissions, reset by any success — a
  // dead link never succeeds, so its streak climbs to detect_threshold
  // within a few cycles of the first attempt.
  std::vector<u32> used(t.link_key.size(), 0);
  std::vector<u32> dirty;
  std::vector<u32> streak(t.link_key.size(), 0);

  const auto fail = [&](u32 m, const auto& self) -> void {
    if (failed.test(m)) return;
    failed.set(m);
    ++out.failed;
    for (u32 c : children[m]) self(c, self);
  };
  // Release a message: zero-hop messages complete instantly and cascade.
  const auto release = [&](u32 m, std::vector<u32>& into,
                           const auto& self) -> void {
    if (failed.test(m)) return;
    if (t.first_hop[m] != t.first_hop[m + 1]) {
      into.push_back(m);
      return;
    }
    out.message_delivered[m] = 1;
    ++out.delivered;
    for (u32 c : children[m]) self(c, into, self);
  };
  std::vector<u32> roots;
  for (u32 m = 0; m < n; ++m) {
    if (deps[m] >= 0)
      children[static_cast<u32>(deps[m])].push_back(m);
    else
      roots.push_back(m);
  }
  for (u32 m = 0; m < n; ++m)
    if (hooks.doomed(routes[m])) fail(m, fail);
  std::vector<u32> active, next;
  for (u32 m : roots) release(m, active, release);

  while (!active.empty() && out.executed < config.max_cycles) {
    ++out.executed;
    const u64 now = start_cycle + out.executed;
    hooks.begin_cycle(now, active.size());
    for (u32 l : dirty) used[l] = 0;
    dirty.clear();
    next.clear();
    for (u32 m : active) {
      if (failed.test(m)) continue;
      const CubePath& r = routes[m];
      u32* c = crossed.data() + t.first_hop[m];
      const u32* links = t.hop_link.data() + t.first_hop[m];
      const u32 hops = t.first_hop[m + 1] - t.first_hop[m];
      bool progressed = false;
      for (u32 h = hops; h-- > 0;) {
        const u32 upstream = h == 0 ? flits : c[h - 1];
        if (c[h] >= flits || c[h] >= upstream) continue;
        if (!cut_through && upstream < flits) continue;
        const u32 l = links[h];
        if (used[l] >= config.link_bandwidth) {
          ++out.blocked;
          ++stall[m].blocked;
          continue;
        }
        // A failed transmission still occupies the link slot.
        if (used[l]++ == 0) dirty.push_back(l);
        if (hooks.link_dead(now, r[h], r[h + 1]) ||
            (flapping && faults->flapping_down(now, r[h], r[h + 1])) ||
            (transient && faults->drops(now, t.link_key[l]))) {
          ++out.dropped;
          ++stall[m].failed;
          if (++streak[l] == config.detect_threshold)
            hooks.suspect(DetectionEvent{now, r[h], r[h + 1], streak[l], false},
                          l);
          if (++retries[m] > config.max_retries) {
            fail(m, fail);
            break;  // retry budget exhausted: message (and dependents) die
          }
          continue;
        }
        streak[l] = 0;
        ++c[h];
        progressed = true;
      }
      if (failed.test(m)) continue;
      if (progressed) stall[m] = Stall{out.executed};
      if (c[hops - 1] < flits) {
        // Watchdog: a message with no flit progress for watchdog_cycles is
        // stuck behind something the failure streaks did not catch (e.g.
        // a persistently unlucky transient link whose streaks keep being
        // broken by other traffic). Suspect its stuck hop — but only when
        // failed transmissions dominate the stall: a stall made of
        // bandwidth-blocked attempts means the network is saturated, not
        // dead, and suspecting it would make a storm's congestion trigger
        // bogus repairs. Defer those and re-arm.
        if (out.executed - stall[m].since >= config.watchdog_cycles) {
          if (stall[m].failed > 0 && stall[m].failed >= stall[m].blocked) {
            u32 stuck = 0;
            while (stuck + 1 < hops && c[stuck] >= flits) ++stuck;
            const u32 l = links[stuck];
            hooks.suspect(DetectionEvent{now, r[stuck], r[stuck + 1],
                                         streak[l], true},
                          l);
          } else {
            ++out.deferred_watchdogs;
          }
          stall[m] = Stall{out.executed};  // one decision per stall period
        }
        next.push_back(m);
      } else {
        out.message_delivered[m] = 1;
        ++out.delivered;
        for (u32 child : children[m]) release(child, next, release);
      }
    }
    active.swap(next);
    if (hooks.end_cycle()) break;
  }
  out.pending = !active.empty();
  return out;
}

}  // namespace

CubeNetwork::CubeNetwork(SimConfig config) : config_(config) {
  require(config_.cube_dim <= 30, "CubeNetwork: cube too large to simulate");
  require(config_.link_bandwidth >= 1, "CubeNetwork: bandwidth must be >= 1");
  require(config_.message_flits >= 1, "CubeNetwork: empty messages");
  require(config_.detect_threshold >= 1,
          "CubeNetwork: detect_threshold must be >= 1 (a link cannot be "
          "suspected after zero failures); the default is 4");
  require(config_.detect_threshold <= config_.max_retries,
          "CubeNetwork: detect_threshold (%u) must not exceed max_retries "
          "(%u), or messages exhaust their retry budget before the "
          "detection layer can fire",
          config_.detect_threshold, config_.max_retries);
  require(config_.watchdog_cycles >= 1,
          "CubeNetwork: watchdog_cycles must be >= 1 (a zero-cycle watchdog "
          "would flag every message instantly); the default is 4096");
}

u64 CubeNetwork::add_message(CubePath route, i64 after) {
  const Hypercube host(config_.cube_dim);
  require(!route.empty(), "add_message: empty route");
  require(after < static_cast<i64>(routes_.size()),
          "add_message: dependency on a message not yet queued");
  for (std::size_t i = 0; i < route.size(); ++i)
    require(host.contains(route[i]) &&
                (i + 1 == route.size() ||
                 Hypercube::adjacent(route[i], route[i + 1])),
            "add_message: route must follow cube links");
  routes_.push_back(std::move(route));
  deps_.push_back(after);
  return routes_.size() - 1;
}

void CubeNetwork::add_stencil_exchange(const Embedding& emb) {
  require(emb.host_dim() == config_.cube_dim,
          "add_stencil_exchange: embedding host does not match the network");
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    CubePath fwd = emb.edge_path(e);
    if (fwd.size() < 2) return;  // contracted edge: same processor
    CubePath rev = fwd;
    rev.reverse();
    routes_.push_back(std::move(fwd));
    deps_.push_back(-1);
    routes_.push_back(std::move(rev));
    deps_.push_back(-1);
  });
}

void CubeNetwork::add_axis_shift(const Embedding& emb, u32 axis) {
  require(emb.host_dim() == config_.cube_dim,
          "add_axis_shift: embedding host does not match the network");
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    if (e.axis != axis) return;
    CubePath p = emb.edge_path(e);
    if (p.size() < 2) return;
    routes_.push_back(std::move(p));
    deps_.push_back(-1);
  });
}

void CubeNetwork::add_broadcast(const Embedding& emb, MeshIndex root) {
  require(emb.host_dim() == config_.cube_dim,
          "add_broadcast: embedding host does not match the network");
  const CubeNode src = emb.map(root);
  for (MeshIndex i = 0; i < emb.guest().num_nodes(); ++i) {
    if (i == root) continue;
    const CubeNode dst = emb.map(i);
    if (dst == src) continue;
    routes_.push_back(Hypercube::ecube_path(src, dst));
    deps_.push_back(-1);
  }
}

SimResult CubeNetwork::run() {
  HJ_SPAN_N("sim.run", routes_.size());
  SimResult result;
  result.messages = routes_.size();
  result.switching = config_.switching;
  result.message_flits = config_.message_flits;
  result.link_bandwidth = config_.link_bandwidth;
  const bool observing = obs::enabled();

  // Static route statistics (over all queued routes, failed or not).
  const Interned t = intern(routes_, std::max(config_.cube_dim, 1u));
  result.total_hops = t.hop_link.size();
  result.max_route_len = t.max_route_len;
  for (u32 load : t.load)
    result.max_link_load = std::max(result.max_link_load, load);
  if (observing) {
    obs::Histogram& route_len =
        obs::Registry::global().histogram("sim.route_len");
    for (const CubePath& r : routes_) route_len.observe(r.size() - 1);
  }

  // A message whose route crosses a known permanent fault can never be
  // delivered: it fails up front (and, transitively, its dependents)
  // instead of stalling the run to max_cycles. No fault arrives mid-run
  // and nothing listens for suspicions.
  struct StaticFaults {
    const FaultSet* known;
    obs::Histogram* active_hist;
    bool doomed(const CubePath& r) const {
      return known && !known->path_avoids(r);
    }
    void begin_cycle(u64, std::size_t active) const {
      if (active_hist) active_hist->observe(active);
    }
    static bool link_dead(u64, CubeNode, CubeNode) { return false; }
    static void suspect(const DetectionEvent&, u32) {}
    static bool end_cycle() { return false; }
  } hooks{config_.faults && !config_.faults->permanent().empty()
              ? &config_.faults->permanent()
              : nullptr,
          observing
              ? &obs::Registry::global().histogram("sim.active_messages")
              : nullptr};
  const Outcome o = step(config_, routes_, deps_, t, 0, hooks);

  result.cycles = o.executed;
  result.delivered = o.delivered;
  result.failed_messages = o.failed;
  result.dropped_flits = o.dropped;
  // A run that still has messages in flight was truncated by max_cycles.
  result.completed =
      result.delivered == result.messages && result.failed_messages == 0;
  result.slowdown_vs_bound =
      result.messages == 0
          ? 1.0
          : !result.completed
                ? 0.0
                : static_cast<double>(result.cycles) /
                      static_cast<double>(std::max<u64>(1, result.lower_bound()));
  if (observing) {
    // Deterministic-kind: the simulator is sequential with deterministic
    // arbitration, so every number here is a pure function of the queued
    // routes and the fault model.
    auto& reg = obs::Registry::global();
    reg.counter("sim.runs").add();
    reg.counter("sim.messages").add(result.messages);
    reg.counter("sim.cycles").add(result.cycles);
    reg.counter("sim.delivered").add(result.delivered);
    reg.counter("sim.failed_messages").add(result.failed_messages);
    reg.counter("sim.dropped_flits").add(result.dropped_flits);
    reg.counter("sim.blocked_attempts").add(o.blocked);
    obs::Histogram& link_load = reg.histogram("sim.link_load");
    obs::Histogram& link_util = reg.histogram("sim.link_util_pct");
    const u64 capacity = result.cycles * config_.link_bandwidth;
    for (u32 load : t.load) {
      link_load.observe(load);
      // Share of the run each used link spent carrying flits; only
      // meaningful when the run drained (a truncated run's cycle count
      // measures the cap, not the traffic).
      if (result.completed && capacity > 0)
        link_util.observe(u64{load} * config_.message_flits * 100 / capacity);
    }
  }
  routes_.clear();
  deps_.clear();
  return result;
}

LiveEpochResult CubeNetwork::run_live(u64 start_cycle,
                                      const FaultSchedule& schedule) {
  HJ_SPAN_N("sim.run_live", routes_.size());
  LiveEpochResult result;
  result.messages = routes_.size();

  const Interned t = intern(routes_, std::max(config_.cube_dim, 1u));
  const u32 flits = config_.message_flits;
  require(config_.watchdog_cycles >= u64{t.max_route_len} * flits,
          "run_live: watchdog_cycles (%llu) is below the longest route's "
          "service time (%u hops x %u flits = %llu cycles); a healthy "
          "message would be flagged as stuck — raise watchdog_cycles",
          static_cast<unsigned long long>(config_.watchdog_cycles),
          t.max_route_len, flits,
          static_cast<unsigned long long>(u64{t.max_route_len} * flits));

  // Ground-truth hardware state: the faults known before the run plus
  // every scheduled arrival whose cycle has passed. Nothing is pre-failed
  // from it — a message crossing an arrived fault simply keeps failing its
  // transmissions until the detection layer notices. Each suspected link
  // is reported once; the epoch pauses at the end of the first suspicious
  // cycle, so every message got its arbitration turn and the pause point
  // is independent of which message tripped the detector first.
  struct LiveFaults {
    const FaultSchedule& schedule;
    FaultSet hardware;
    std::size_t cursor = 0;
    std::vector<u8> suspected;
    std::vector<DetectionEvent>& detections;
    static bool doomed(const CubePath&) { return false; }
    void begin_cycle(u64 now, std::size_t) {
      schedule.apply_until(now, hardware, cursor);
    }
    bool link_dead(u64, CubeNode from, CubeNode to) const {
      return hardware.link_failed(from, to);
    }
    void suspect(const DetectionEvent& e, u32 link) {
      if (suspected[link]) return;
      suspected[link] = 1;
      detections.push_back(e);
    }
    bool end_cycle() const { return !detections.empty(); }
  } hooks{.schedule = schedule,
          .hardware = config_.faults ? config_.faults->permanent() : FaultSet{},
          .suspected = std::vector<u8>(t.link_key.size(), 0),
          .detections = result.detections};
  Outcome o = step(config_, routes_, deps_, t, start_cycle, hooks);

  result.end_cycle = start_cycle + o.executed;
  result.delivered = o.delivered;
  result.dropped_flits = o.dropped;
  result.deferred_watchdogs = o.deferred_watchdogs;
  result.message_delivered = std::move(o.message_delivered);
  result.detected = !result.detections.empty();
  result.truncated =
      !result.detected && o.pending && o.executed >= config_.max_cycles;
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("sim.live.epochs").add();
    reg.counter("sim.live.cycles").add(o.executed);
    reg.counter("sim.live.detections").add(result.detections.size());
    reg.counter("sim.live.delivered").add(result.delivered);
    reg.counter("sim.live.dropped_flits").add(result.dropped_flits);
    reg.counter("sim.live.deferred_watchdogs").add(result.deferred_watchdogs);
  }
  routes_.clear();
  deps_.clear();
  return result;
}

SimResult simulate_stencil(const Embedding& emb, u32 link_bandwidth,
                           Switching sw, u32 flits) {
  CubeNetwork net(
      SimConfig{emb.host_dim(), link_bandwidth, 1'000'000, sw, flits});
  net.add_stencil_exchange(emb);
  return net.run();
}

SimResult simulate_stencil(const Embedding& emb, const SimConfig& config) {
  require(config.cube_dim == emb.host_dim(),
          "simulate_stencil: config cube dimension %u does not match the "
          "embedding host Q%u",
          config.cube_dim, emb.host_dim());
  CubeNetwork net(config);
  net.add_stencil_exchange(emb);
  return net.run();
}

}  // namespace hj::sim
