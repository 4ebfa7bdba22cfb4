// hjbench: the repository benchmark program.
//
//   hjbench env
//       print the build stamp (compiler, build type, sanitizers) as JSON
//   hjbench gen --workload W --seed N
//       print the workload's generated inputs (for the self-test)
//   hjbench run --workload W --seed N --seconds S --trace 0|1
//               --hj-embed PATH --dir DIR
//       run one workload; report lines first, the result JSON last
//
// Workloads (see README.md for why each exists and what it measures):
//   serve-hot   open loop of Zipf requests into `hj_embed serve <store>`
//   serve-cold  closed loop of distinct shapes into `hj_embed serve -`
//   storm-live  seeded storms replayed through run_stencil_with_recovery
//   fig2-sweep  coverage::sweep_3d at every core
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) records spans around the calls into each layer and
// reports the per-layer metrics plus trace.overhead.
#include <sys/stat.h>

#include <set>
#include <thread>

#include "common.hpp"
#include "core/coverage.hpp"
#include "core/parallel.hpp"
#include "core/planner.hpp"
#include "core/verify.hpp"
#include "daemon.hpp"
#include "gen.hpp"
#include "hypersim/live.hpp"
#include "hypersim/network.hpp"
#include "manytoone/manytoone.hpp"
#include "search/provider.hpp"
#include "store/precompute.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"

namespace hjb {
namespace {

using hj::PlanResult;
using hj::Shape;

const char* const kWorkloads[] = {"serve-hot", "serve-cold", "storm-live",
                                  "fig2-sweep"};

struct Args {
  std::string cmd, workload, hj_embed, dir;
  u64 seed = 1;
  double seconds = 10;
  int trace = 0;
};

u32 nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Outcome bookkeeping of one run: correctness problems, op counts and
/// the metrics it reports.
struct Run {
  Args args;
  Metrics m;
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) std::printf("check failed: %s\n", what.c_str());
    correct = false;
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return args.dir + "/" + name;
  }
};

Shape parse_shape(const std::string& s) {
  hj::SmallVec<u64, 4> ext;
  std::size_t p = 0;
  while (p < s.size()) {
    const std::size_t x = s.find('x', p);
    ext.push_back(std::strtoull(s.substr(p, x - p).c_str(), nullptr, 10));
    if (x == std::string::npos) break;
    p = x + 1;
  }
  return Shape(ext);
}

u32 ceil_log2(u64 n) {
  u32 d = 0;
  while ((u64{1} << d) < n) ++d;
  return d;
}

/// The reference certificate of `line`: Planner::plan on the canonical
/// shape, relabelled to the requested order, as the daemon computes it.
PlanResult reference_plan(hj::Planner& planner, const std::string& line) {
  const Shape s = parse_shape(line);
  const PlanResult canon = planner.plan(s.sorted());
  return hj::relabel_plan(canon, s);
}

/// A serve reply is certified when its verdict is one of the served ones,
/// it names the requested shape, dilation <= 2 and the cube is at least
/// the minimal one.
bool certified(const ServeReply& r, const std::string& line) {
  if (r.kind > ServeReply::Degraded) return false;
  if (r.shape != line) return false;
  return r.dil <= 2 && r.cube >= ceil_log2(parse_shape(line).num_nodes());
}

bool is_tail(const std::string& line) {
  const std::string canon = parse_shape(line).sorted().to_string();
  for (const std::string& t : known_tail_shapes())
    if (t == canon) return true;
  return false;
}

/// Compare a seeded sample of distinct certified replies against the
/// in-process reference. The sample skips the search-tail shapes: one
/// of them costs seconds to plan in-process too, and their replies are
/// still checked by certified().
void check_against_reference(Run& run, const std::vector<std::string>& lines,
                             const std::vector<ServeReply>& replies,
                             const std::vector<bool>& ok) {
  Rng rng(stream_seed(run.args.workload, run.args.seed, 40));
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (ok[i] && !is_tail(lines[i])) idx.push_back(i);
  rng.shuffle(idx);
  hj::Planner planner;
  planner.set_direct_provider(hj::search::make_search_provider());
  std::set<std::string> seen;
  for (std::size_t i : idx) {
    if (seen.size() >= 16) break;
    if (!seen.insert(lines[i]).second) continue;
    const PlanResult ref = reference_plan(planner, lines[i]);
    const ServeReply& r = replies[i];
    run.check(r.cube == ref.report.host_dim && r.dil == ref.report.dilation &&
                  r.cong == ref.report.congestion &&
                  r.wl == ref.report.wirelength,
              "reply for " + lines[i] + " differs from the in-process plan");
  }
}

// ---- serve: open loop ----------------------------------------------------

/// One fixed-rate step of the open loop.
struct Step {
  double rate = 0;
  double seconds = 0;
  std::vector<double> lat_us;   // certified replies, timed from the due time
  std::vector<double> late_us;  // how late the generator sent each request
  std::vector<double> srv_us;   // the daemon's own queue + handling time
  u64 sent = 0, ok = 0, fails = 0, shed = 0;  // shed is part of fails
  u64 backlog = 0;  // replies outstanding when the step's last request went
  ServeStatsLine stats;

  [[nodiscard]] double late_p99() const { return quantile(late_us, 0.99); }
  /// A step is invalid when the generator, not the daemon, fell behind.
  [[nodiscard]] bool valid() const { return late_p99() <= kSloP99Us / 4; }
  [[nodiscard]] bool meets_slo() const {
    // A failed request counts as missing the limit, so any failure fails
    // the step.
    return valid() && fails == 0 && quantile(lat_us, 0.99) <= kSloP99Us &&
           static_cast<double>(backlog) <= 8 + rate * kSloP99Us * 1e-6;
  }
};

/// The requests one open-loop step offers: lines with their due times
/// (ns from the step start).
struct Offered {
  double rate = 0;
  std::vector<std::string> lines;
  std::vector<u64> due_off;
};

/// Poisson arrivals at `rate` for `lines`, gaps drawn from `rng`.
Offered poisson(double rate, std::vector<std::string> lines, Rng& rng) {
  Offered o;
  o.rate = rate;
  double t = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    t += -std::log(1.0 - rng.unit()) / rate;
    o.due_off.push_back(static_cast<u64>(t * 1e9));
  }
  o.lines = std::move(lines);
  return o;
}

/// Feed `daemon` an open loop, one step per entry of `offered`, every
/// request timed from its due time. One thread both sends (at each
/// request's due time) and reads replies (in between, by polling the
/// daemon's output), so the load generator adds one busy thread beside
/// the daemon's two. `stats` is read after each step, once the step's
/// replies are in. Does not stop the daemon. `first_id` is the daemon's
/// id for the first request.
std::vector<Step> open_loop(Run& run, Daemon& daemon,
                            const std::vector<Offered>& offered,
                            u64 first_id) {
  struct Req {
    std::string line;
    u64 due_off;
    std::size_t step;
  };
  std::vector<Req> reqs;
  std::vector<double> rates;
  for (std::size_t k = 0; k < offered.size(); ++k) {
    rates.push_back(offered[k].rate);
    for (std::size_t j = 0; j < offered[k].lines.size(); ++j)
      reqs.push_back({offered[k].lines[j], offered[k].due_off[j], k});
  }
  const std::size_t n = reqs.size();
  std::vector<u64> due(n, 0), sent(n, 0), recv(n, 0);
  std::vector<ServeReply> replies(n);
  std::vector<unsigned char> got(n, 0);
  std::size_t received = 0;
  bool dup = false, stray = false, eof = false;
  std::optional<ServeStatsLine> stats;

  // Consume every complete line read so far.
  const auto drain = [&] {
    while (std::optional<std::string> line = daemon.buffered_line()) {
      if (line->rfind("stats ", 0) == 0) {
        stats = daemon.read_stats(*line);
        continue;
      }
      const u64 t = now_ns();
      const std::optional<ServeReply> r = parse_reply(*line);
      if (!r || r->id < first_id || r->id - first_id >= n) {
        stray = true;
        continue;
      }
      const std::size_t i = r->id - first_id;
      dup = dup || got[i];
      got[i] = 1;
      recv[i] = t;
      replies[i] = *r;
      ++received;
    }
  };

  std::vector<Step> steps(rates.size());
  std::size_t i = 0;
  for (std::size_t k = 0; k < rates.size() && !eof; ++k) {
    Step& st = steps[k];
    st.rate = rates[k];
    const u64 t0 = now_ns() + 1'000'000;
    const std::size_t first = i;
    while (i < n && reqs[i].step == k && !eof) {
      // Spin, polling for replies without blocking: on this kind of host
      // a blocking wait can wake milliseconds late, which would make the
      // generator the bottleneck and blur reply timestamps.
      due[i] = t0 + reqs[i].due_off;
      while (now_ns() < due[i] && !eof) {
        eof = !daemon.fill(0);
        drain();
      }
      Tracer::Scope span("serve.send", first_id + i);
      sent[i] = now_ns();
      daemon.send(reqs[i].line);
      ++i;
    }
    st.sent = i - first;
    st.backlog = i - received;
    st.seconds = secs_since(t0);
    const u64 give_up = now_ns() + 10'000'000'000ull;
    while (received < i && !eof && now_ns() < give_up) {
      eof = !daemon.fill(0);
      drain();
    }
    stats.reset();
    daemon.send("stats");
    while (!stats && !eof && now_ns() < give_up + 10'000'000'000ull) {
      eof = !daemon.fill(1'000'000'000ull);
      drain();
    }
    run.check(stats.has_value(), "serve daemon did not answer stats");
    if (stats) st.stats = *stats;
  }

  for (std::size_t j = 0, k = 0; k < steps.size(); ++k) {
    Step& st = steps[k];
    for (const std::size_t end = j + st.sent; j < end; ++j) {
      st.late_us.push_back(static_cast<double>(sent[j] - due[j]) * 1e-3);
      if (got[j] && certified(replies[j], reqs[j].line)) {
        ++st.ok;
        st.lat_us.push_back(static_cast<double>(recv[j] - due[j]) * 1e-3);
        st.srv_us.push_back(static_cast<double>(replies[j].us));
      } else {
        ++st.fails;
        const bool shed = got[j] && replies[j].kind == ServeReply::Shed;
        st.shed += shed;
        run.check(shed, "request " + reqs[j].line + " got no certified reply");
      }
    }
  }
  run.check(!eof, "the serve daemon exited mid-run");
  run.check(!dup, "a request got more than one reply");
  run.check(!stray, "the daemon sent a reply for no request");

  std::vector<std::string> lines;
  std::vector<bool> ok;
  for (std::size_t j = 0; j < n; ++j) {
    lines.push_back(reqs[j].line);
    ok.push_back(got[j] && certified(replies[j], reqs[j].line));
  }
  check_against_reference(run, lines, replies, ok);
  return steps;
}

// ---- serve: closed loop --------------------------------------------------

/// One closed-loop pass over a fresh daemon.
struct Pass {
  u32 outstanding = 1;
  double seconds = 0;
  std::vector<double> lat_us;  // certified replies, from the send time
  u64 sent = 0, ok = 0, fails = 0, shed = 0;  // shed is part of fails
  double ready_s = 0;  // daemon start to its first `stats` reply
  ServeStatsLine stats;
  double rss_mb = 0;
};

/// Latency limit of the cold closed loop: the daemon's default
/// per-request deadline.
constexpr double kColdSloP99Us = 100000.0;

/// Send `lines` to a fresh daemon (storeless by default), keeping up to
/// `k` requests outstanding; each request is timed from its send. The
/// client spins for replies, as the open loop does.
Pass closed_loop(Run& run, const std::vector<std::string>& lines, u32 k,
                 const std::string& store = "-") {
  const u64 ts = now_ns();
  Daemon daemon(run.args.hj_embed, store, run.path("serve-closed.log"));
  daemon.stats();
  Pass p;
  p.ready_s = secs_since(ts);
  p.outstanding = k;
  const std::size_t n = lines.size();
  std::vector<u64> sent(n, 0);
  std::vector<ServeReply> replies(n);
  std::vector<bool> ok(n, false), got(n, false);
  std::size_t next = 0, done = 0, out = 0;
  const u64 t0 = now_ns();
  while (done < n) {
    while (out < k && next < n) {
      Tracer::Scope span("serve.send", next + 1);
      sent[next] = now_ns();
      daemon.send(lines[next]);
      ++next;
      ++out;
    }
    const std::optional<std::string> line = daemon.spin_line();
    const u64 t = now_ns();
    if (!line) break;
    const std::optional<ServeReply> r = parse_reply(*line);
    if (!r || r->id == 0 || r->id > next || got[r->id - 1]) {
      run.check(false, "unexpected serve reply: " + *line);
      break;
    }
    const std::size_t i = r->id - 1;
    got[i] = true;
    replies[i] = *r;
    --out;
    ++done;
    ++p.sent;
    if (certified(*r, lines[i])) {
      ok[i] = true;
      ++p.ok;
      p.lat_us.push_back(static_cast<double>(t - sent[i]) * 1e-3);
    } else {
      ++p.fails;
      p.shed += r->kind == ServeReply::Shed;
      run.check(r->kind == ServeReply::Shed,
                "request " + lines[i] + " got no certified reply");
    }
  }
  p.seconds = secs_since(t0);
  run.check(done == n, "the serve daemon stopped answering");
  p.stats = daemon.stats();
  p.rss_mb = daemon.peak_rss();
  const int rc = daemon.finish();
  run.check(rc == 0, "serve daemon exited with status " + std::to_string(rc));
  check_against_reference(run, lines, replies, ok);
  return p;
}

// ---- shared set-up -------------------------------------------------------

/// Build a store with `hj_embed precompute` in a fresh directory; returns
/// the store path.
std::string build_store(Run& run, const std::string& name, u64 budget) {
  const std::string dir = run.path(name);
  mkdir(dir.c_str(), 0755);
  const std::string store = dir + "/plans.hjs";
  std::remove(store.c_str());
  std::remove((store + ".ckpt").c_str());
  const int rc = run_tool(
      {run.args.hj_embed, "precompute", store, std::to_string(budget)},
      {"HJ_THREADS=" + std::to_string(nproc())}, run.path("precompute.log"));
  run.check(rc == 0, "hj_embed precompute failed");
  return store;
}

/// Median wall time of `reps` calls of setup(i).
template <class F>
double median_setup(u32 reps, F&& setup) {
  std::vector<double> t;
  for (u32 i = 0; i < reps; ++i) {
    const u64 t0 = now_ns();
    setup(i);
    t.push_back(secs_since(t0));
  }
  return median(t);
}

/// p50 over every operation; p99 and max within each window (a pass, a
/// round, or the whole run), reported as the median over windows so one
/// host hiccup in one window does not decide the run.
void report_latency(Run& run, const std::vector<std::vector<double>>& windows) {
  std::vector<double> all, p99, max;
  for (const std::vector<double>& w : windows) {
    all.insert(all.end(), w.begin(), w.end());
    p99.push_back(quantile(w, 0.99));
    max.push_back(vmax(w));
  }
  run.m.set("p50_us", quantile(all, 0.5), "us");
  run.m.set("p99_us", median(p99), "us");
  run.m.set("max_us", median(max), "us");
}

/// A search provider factory that counts and times every call (and
/// records it as a span), wrapped around the planner's default searcher.
struct SearchCount {
  std::atomic<u64> calls{0}, found{0}, ns_total{0}, ns_wasted{0};
};
SearchCount g_search;

hj::DirectProvider counted_search() {
  hj::DirectProvider inner = hj::search::make_search_provider();
  return [inner](const hj::Mesh& m,
                 u32 dim) -> std::optional<std::vector<hj::CubeNode>> {
    Tracer::Scope span("search.call");
    const u64 t0 = now_ns();
    std::optional<std::vector<hj::CubeNode>> r = inner(m, dim);
    const u64 dt = now_ns() - t0;
    g_search.calls.fetch_add(1, std::memory_order_relaxed);
    g_search.ns_total.fetch_add(dt, std::memory_order_relaxed);
    if (r) g_search.found.fetch_add(1, std::memory_order_relaxed);
    else g_search.ns_wasted.fetch_add(dt, std::memory_order_relaxed);
    return r;
  };
}

// ---- storm-live helpers --------------------------------------------------

struct StormSetup {
  std::vector<PlanResult> plans;
  std::vector<hj::sim::Storm> storms;
  std::vector<StormCase> cases;
};

/// Plan the E20 embeddings.
std::vector<PlanResult> plan_storm_shapes() {
  hj::Planner planner;
  planner.set_direct_provider(counted_search());
  std::vector<PlanResult> plans;
  for (const Shape& sh : storm_shapes()) {
    Tracer::Scope span("planner.plan");
    plans.push_back(planner.plan(sh));
  }
  return plans;
}

/// Generate round `round` of the storms.
void generate_storms(StormSetup& s, u64 seed, u64 round) {
  s.cases = storm_round(seed, round);
  s.storms.clear();
  for (const StormCase& c : s.cases)
    s.storms.push_back(hj::sim::StormGenerator(c.spec).generate());
}

/// Everything a storm replay must reproduce exactly.
struct StormSig {
  int verdict = -1;
  u64 messages = 0, delivered = 0, failed = 0, cycles = 0;
  u32 epochs = 0;
  bool operator==(const StormSig&) const = default;
};

hj::sim::LiveRunResult replay_storm(const StormSetup& s, std::size_t i) {
  Tracer::Scope span("live.run", i + 1);
  hj::sim::FaultModel faults;
  s.storms[i].install_flapping(faults);
  hj::sim::LiveOptions opts;
  opts.sim.message_flits = 4;
  opts.sim.faults = &faults;
  opts.recovery.direct_provider = counted_search();
  opts.recovery.degrade_provider = hj::m2o::make_degrade_provider();
  return hj::sim::run_stencil_with_recovery(s.plans[s.cases[i].shape].embedding,
                                            s.storms[i].schedule, opts);
}

StormSig sig_of(const hj::sim::LiveRunResult& r) {
  return {static_cast<int>(r.verdict), r.messages, r.delivered, r.failed,
          r.cycles, r.epochs};
}

// ---- fig2-sweep helpers --------------------------------------------------

/// Exact Figure-2 counts measured at the seed (total, uncovered, methods
/// 1-4) for n = 9 and n = 10.
bool sweep_exact(u32 n, const hj::coverage::SweepCounts& c) {
  if (n == 9)
    return c.total == 134217728 && c.by_method[0] == 5209758 &&
           c.by_method[1] == 38315283 && c.by_method[2] == 71055945 &&
           c.by_method[3] == 1933838 && c.by_method[4] == 17702904;
  if (n == 10)
    return c.total == 1073741824 && c.by_method[0] == 31115883 &&
           c.by_method[1] == 297268607 && c.by_method[2] == 572395936 &&
           c.by_method[3] == 14389816 && c.by_method[4] == 158571582;
  return false;
}

// ---- workloads: end-to-end -----------------------------------------------

void serve_hot(Run& run) {
  std::string store;
  std::unique_ptr<Daemon> daemon;
  const double setup = median_setup(3, [&](u32 i) {
    if (daemon) daemon->finish();
    store = build_store(run, "store" + std::to_string(i), kHotBudget);
    daemon = std::make_unique<Daemon>(run.args.hj_embed, store,
                                      run.path("serve-hot.log"));
    daemon->stats();
  });
  HotStream stream(run.args.seed);
  Rng gaps(stream_seed("serve-hot", run.args.seed, 3));
  const double step_s =
      run.args.seconds / static_cast<double>(std::size(kHotRates));
  std::vector<Offered> offered;
  for (const double rate : kHotRates) {
    std::vector<std::string> lines;
    for (double t = 0; t < step_s; t += 1.0 / rate)
      lines.push_back(stream.next());
    offered.push_back(poisson(rate, std::move(lines), gaps));
  }
  const std::vector<Step> steps = open_loop(run, *daemon, offered, 1);
  const double rss = daemon->peak_rss();
  const int rc = daemon->finish();
  run.check(rc == 0, "serve daemon exited with status " + std::to_string(rc));

  u64 sent = 0, ok = 0, fails = 0, shed = 0;
  double busy = 0, slo = 0;
  for (const Step& s : steps) {
    sent += s.sent;
    ok += s.ok;
    fails += s.fails;
    shed += s.shed;
    busy += s.seconds;
    if (s.meets_slo()) slo = s.rate;
    std::printf("step rate=%.0f sent=%llu ok=%llu fails=%llu backlog=%llu "
                "p50_us=%.1f p99_us=%.1f daemon_p50_us=%.0f daemon_p99_us=%.0f "
                "gen.late_us.p99=%.1f valid=%d meets_slo=%d\n",
                s.rate, static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.ok),
                static_cast<unsigned long long>(s.fails),
                static_cast<unsigned long long>(s.backlog),
                quantile(s.lat_us, 0.5), quantile(s.lat_us, 0.99),
                quantile(s.srv_us, 0.5), quantile(s.srv_us, 0.99),
                s.late_p99(), s.valid() ? 1 : 0, s.meets_slo() ? 1 : 0);
  }
  run.check(steps[kHotNominal].valid(),
            "the generator, not the daemon, limited the nominal step");
  run.attempted = sent;
  // A shed is the daemon's documented answer under load: it counts
  // against ok_frac and the SLO, while `failed` counts broken replies.
  run.failed = fails - shed;
  run.m.set("setup_s", setup, "s");
  report_latency(run, {steps[kHotNominal].lat_us});
  run.m.set("p99_us.peak", quantile(steps.back().lat_us, 0.99), "us");
  run.m.set("slo_rps", slo, "1/s");
  run.m.set("shapes_per_s", static_cast<double>(ok) / busy, "1/s");
  run.m.set("ok_frac", static_cast<double>(ok) / static_cast<double>(sent),
            "ratio");
  run.m.set("rss_mb", rss, "MB");
}

/// Shares of a serve-cold run after which the low step, then the
/// nominal full passes stop; the rest goes to passes without the
/// search-tail shapes.
constexpr double kColdLowShare = 0.25, kColdFullShare = 0.55;

void serve_cold(Run& run) {
  // Full passes with one request outstanding (the lowest step of the
  // concurrency ladder), then full passes with nproc outstanding (the
  // nominal load), then nominal passes over the sample without its
  // search-tail shapes until the time is up. A full pass spends nearly all
  // its time in the tail search, so the fast requests behind p50_us and
  // p99_us would otherwise be measured in a few tenths of a second of the
  // whole run. Each pass gets a fresh daemon and its own seeded order;
  // setup_s is the median time of those daemons to become ready, so it
  // samples the whole run too.
  std::vector<Pass> low, full, fast;
  const u64 t0 = now_ns();
  u64 pass = 0;
  for (; low.empty() || secs_since(t0) < kColdLowShare * run.args.seconds;
       ++pass)
    low.push_back(closed_loop(run, cold_sample(run.args.seed, pass), 1));
  for (; full.empty() || secs_since(t0) < kColdFullShare * run.args.seconds;
       ++pass)
    full.push_back(closed_loop(run, cold_sample(run.args.seed, pass), nproc()));
  for (; fast.empty() || secs_since(t0) < run.args.seconds; ++pass) {
    std::vector<std::string> lines;
    for (const std::string& l : cold_sample(run.args.seed, pass))
      if (!is_tail(l)) lines.push_back(l);
    fast.push_back(closed_loop(run, lines, nproc()));
  }
  // p50 and p99 over every nominal pass; max_us over the full passes of
  // both steps, and the reply rate and ok_frac over the nominal full
  // passes: those metrics are about the search tail.
  std::vector<std::vector<double>> lat;
  std::vector<double> max, ready;
  u64 sent = 0, fails = 0, shed = 0, nominal_sent = 0, nominal_ok = 0;
  double busy = 0, rss = 0;
  for (const std::vector<Pass>* ps : {&low, &full, &fast})
    for (const Pass& p : *ps) {
      if (ps != &low) lat.push_back(p.lat_us);
      if (ps != &fast) max.push_back(vmax(p.lat_us));
      ready.push_back(p.ready_s);
      sent += p.sent;
      fails += p.fails;
      shed += p.shed;
      rss = std::max(rss, p.rss_mb);
    }
  for (const Pass& p : full) {
    nominal_sent += p.sent;
    nominal_ok += p.ok;
    busy += p.seconds;
  }
  // slo_rps: reply rate of the highest concurrency step whose p99 stays
  // within the deadline with no failure.
  double slo = 0;
  for (const std::vector<Pass>* ps : {&low, &full}) {
    std::vector<double> l;
    u64 f = 0, n = 0;
    double secs = 0;
    for (const Pass& p : *ps) {
      l.insert(l.end(), p.lat_us.begin(), p.lat_us.end());
      f += p.fails;
      n += p.ok;
      secs += p.seconds;
    }
    if (f == 0 && quantile(l, 0.99) <= kColdSloP99Us)
      slo = static_cast<double>(n) / secs;
  }
  for (const std::vector<Pass>* ps : {&low, &full, &fast})
    for (const Pass& p : *ps)
      std::printf("pass %s outstanding=%u sent=%llu ok=%llu shed=%llu "
                  "seconds=%.3f p50_us=%.1f p99_us=%.1f max_us=%.1f\n",
                  ps == &fast ? "fast" : "full", p.outstanding,
                  static_cast<unsigned long long>(p.sent),
                  static_cast<unsigned long long>(p.ok),
                  static_cast<unsigned long long>(p.shed), p.seconds,
                  quantile(p.lat_us, 0.5), quantile(p.lat_us, 0.99),
                  vmax(p.lat_us));
  run.attempted = sent;
  // A shed is the daemon's documented answer under load: it counts
  // against ok_frac and slo_rps, while `failed` counts broken replies.
  run.failed = fails - shed;
  run.m.set("setup_s", median(ready), "s");
  report_latency(run, lat);
  run.m.set("max_us", median(max), "us");
  run.m.set("slo_rps", slo, "1/s");
  run.m.set("shapes_per_s", static_cast<double>(nominal_ok) / busy, "1/s");
  run.m.set("ok_frac",
            static_cast<double>(nominal_ok) / static_cast<double>(nominal_sent),
            "ratio");
  run.m.set("rss_mb", rss, "MB");
}

/// Storm latency limit behind storm-live's slo_rps.
constexpr double kStormSloP99Us = 10e6;

void storm_live(Run& run) {
  // Every round sets up afresh: it plans the embedding and generates its
  // storms. setup_s is the median of those times, so it samples the whole
  // run rather than its first second.
  StormSetup s;
  std::vector<double> setup;
  const auto set_up = [&](u64 round) {
    const u64 ts = now_ns();
    s.plans = plan_storm_shapes();
    generate_storms(s, run.args.seed, round);
    setup.push_back(secs_since(ts));
  };
  std::vector<hj::sim::SimResult> fault_free;
  std::vector<std::vector<double>> lat;  // per round
  // (round, storm) -> signature, for the replays at the end.
  std::map<std::pair<u64, std::size_t>, StormSig> sigs;
  std::map<std::string, u32> verdicts;
  const u64 t0 = now_ns();
  u64 rounds = 0;
  for (; rounds == 0 || secs_since(t0) < run.args.seconds; ++rounds) {
    set_up(rounds);
    lat.emplace_back();
    for (std::size_t e = 0; e < s.plans.size(); ++e) {
      const hj::sim::SimResult r =
          hj::sim::simulate_stencil(*s.plans[e].embedding);
      if (rounds == 0) {
        run.check(r.completed, "fault-free stencil did not complete");
        fault_free.push_back(r);
      } else {
        run.check(r.cycles == fault_free[e].cycles &&
                      r.delivered == fault_free[e].delivered,
                  "fault-free stencil differs between rounds");
      }
    }
    for (std::size_t i = 0; i < s.storms.size(); ++i) {
      const u64 ts = now_ns();
      const hj::sim::LiveRunResult live = replay_storm(s, i);
      lat.back().push_back(static_cast<double>(now_ns() - ts) * 1e-3);
      ++run.attempted;
      sigs[{rounds, i}] = sig_of(live);
      ++verdicts[hj::sim::verdict_name(live.verdict)];
      run.check(live.delivered + live.failed == live.messages,
                "storm replay lost messages");
    }
  }
  // Verdicts must be reproducible and must not depend on the thread
  // count: replay three seeded storms again at every core and at one.
  Rng pick(stream_seed("storm-live", run.args.seed, 21));
  u64 mismatches = 0;
  for (int k = 0; k < 3; ++k) {
    const u64 round = pick.below(rounds);
    generate_storms(s, run.args.seed, round);
    const std::size_t i = pick.below(s.storms.size());
    for (u32 threads : {0u, 1u}) {
      hj::par::set_thread_override(threads);
      if (!(sig_of(replay_storm(s, i)) == sigs[{round, i}])) ++mismatches;
    }
    hj::par::set_thread_override(0);
  }
  run.check(mismatches == 0, "storm verdicts differ between replays");
  for (const auto& [v, n] : verdicts) std::printf("verdict %s %u\n", v.c_str(), n);
  std::printf("storms %llu in %llu rounds\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(rounds));
  run.failed = mismatches;
  double busy = 0;
  std::vector<double> all;
  for (const std::vector<double>& r : lat) {
    all.insert(all.end(), r.begin(), r.end());
    for (double l : r) busy += l * 1e-6;
  }
  const double rate = static_cast<double>(all.size()) / busy;
  run.m.set("setup_s", median(setup), "s");
  report_latency(run, lat);
  run.m.set("slo_rps", quantile(all, 0.99) <= kStormSloP99Us ? rate : 0, "1/s");
  run.m.set("shapes_per_s", rate, "1/s");
  run.m.set("ok_frac",
            1.0 - static_cast<double>(mismatches) /
                      static_cast<double>(run.attempted),
            "ratio");
  run.m.set("rss_mb", peak_rss_mb(), "MB");
}

/// Sweep latency limit behind fig2-sweep's slo_rps.
constexpr double kSweepSloP99Us = 60e6;
/// Sweeps per latency window of fig2-sweep.
constexpr std::size_t kSweepWindow = 3;

void fig2_sweep(Run& run) {
  const double setup = median_setup(5, [&](u32) {
    run.check(sweep_exact(kSetupSweepN, hj::coverage::sweep_3d(kSetupSweepN)),
              "sweep_3d(9) counts differ from Figure 2's");
  });
  std::vector<double> lat;
  const u64 t0 = now_ns();
  while (lat.size() < 3 || secs_since(t0) < run.args.seconds) {
    const u64 ts = now_ns();
    const hj::coverage::SweepCounts c = hj::coverage::sweep_3d(kSweepN);
    lat.push_back(static_cast<double>(now_ns() - ts) * 1e-3);
    ++run.attempted;
    if (!sweep_exact(kSweepN, c)) ++run.failed;
  }
  run.check(run.failed == 0, "sweep_3d(10) counts differ from Figure 2's");
  // Windows of kSweepWindow consecutive sweeps (the last one takes any
  // remainder), so p99_us and max_us are medians rather than the single
  // slowest sweep of the run.
  std::vector<std::vector<double>> windows(
      std::max<std::size_t>(1, lat.size() / kSweepWindow));
  for (std::size_t i = 0; i < lat.size(); ++i)
    windows[std::min(i / kSweepWindow, windows.size() - 1)].push_back(lat[i]);
  const double p50 = quantile(lat, 0.5);
  run.m.set("setup_s", setup, "s");
  report_latency(run, windows);
  run.m.set("slo_rps", quantile(lat, 0.99) <= kSweepSloP99Us ? 1e6 / p50 : 0,
            "1/s");
  run.m.set("shapes_per_s", 1073741824.0 / (p50 * 1e-6), "1/s");
  run.m.set("ok_frac",
            1.0 - static_cast<double>(run.failed) /
                      static_cast<double>(run.attempted),
            "ratio");
  run.m.set("rss_mb", peak_rss_mb(), "MB");
}

// ---- traced run: per-layer metrics ---------------------------------------

/// Planner method of a plan derivation string, classified from its
/// outermost construction (a perm<...>( wrapper is looked through).
const char* plan_method(std::string plan) {
  while (plan.rfind("perm<", 0) == 0) plan = plan.substr(plan.find('(') + 1);
  if (plan.rfind("sub<", 0) == 0) return "extension";
  if (plan.rfind("(", 0) == 0) return "product";
  if (plan.rfind("search ", 0) == 0) return "search";
  if (plan.rfind("direct ", 0) == 0) return "table";
  return "gray";
}
const char* const kMethods[] = {"gray", "table", "product", "search",
                                "extension"};

/// One shape per planner method (so every method row is measured), and
/// one whose search gives up quickly (so search.us.wasted is measured on
/// every workload).
std::vector<Shape> method_shapes() {
  return {Shape{2, 4, 8}, Shape{7, 9}, Shape{5, 7, 9}, Shape{3, 21},
          Shape{3, 3, 23}};
}

/// The serve probe's request stream: `n` Zipf requests over the store's
/// shapes with, every 12th request, a shape the store lacks (the
/// canonical shapes from budget+1 to 64 nodes, search tail excluded), so
/// the live-plan phase is measured too.
std::vector<std::string> probe_stream(u64 seed, u64 budget, u64 n) {
  HotStream hot(seed, budget);
  std::vector<std::string> cold;
  for (const Shape& s : hj::store::enumerate_canonical_shapes(kColdMaxNodes, 3))
    if (s.num_nodes() > budget && !is_tail(s.to_string()))
      cold.push_back(s.to_string());
  Rng rng(stream_seed("probe", seed, 70));
  rng.shuffle(cold);
  std::vector<std::string> out;
  for (u64 i = 0; i < n; ++i)
    out.push_back(i % 12 == 11 && !cold.empty() ? cold[(i / 12) % cold.size()]
                                                 : hot.next());
  return out;
}

/// Precompute a store in-process (a journal watcher times each batch),
/// open it, time lookups of the probe stream, and replay the stream
/// through an in-process Server, untraced and then traced. Returns the
/// store path; `serve_overhead` gets traced over untraced replay time.
std::string layer_store(Run& run, u64 budget,
                        const std::vector<std::string>& lines,
                        double& serve_overhead) {
  const std::string dir = run.path("probe-store");
  mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/plans.hjs";
  std::remove(path.c_str());
  std::remove((path + ".ckpt").c_str());
  hj::store::PrecomputeOptions opts;
  opts.max_nodes = budget;

  std::atomic<bool> done{false};
  std::vector<u64> grew;  // journal growth times = batch completions
  std::thread watcher([&] {
    long long last = 0;
    while (!done.load(std::memory_order_acquire)) {
      struct stat st {};
      if (stat((path + ".ckpt").c_str(), &st) == 0 && st.st_size > last) {
        last = st.st_size;
        grew.push_back(now_ns());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  });
  const double cpu0 = cpu_seconds();
  const u64 t0 = now_ns();
  hj::store::PrecomputeResult res;
  {
    Tracer::Scope span("store.precompute");
    res = hj::store::precompute(path, opts, counted_search);
  }
  const double wall = secs_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  done = true;
  watcher.join();
  run.check(res.complete, "in-process precompute did not finish");
  double batch_max = 0;
  for (std::size_t i = 0; i < grew.size(); ++i)
    batch_max = std::max(batch_max,
                         static_cast<double>(grew[i] - (i ? grew[i - 1] : t0)));
  run.m.set("precompute.shapes_per_s",
            static_cast<double>(res.shapes_total) / wall, "1/s");
  run.m.set("precompute.batch_ms.max", batch_max * 1e-6, "ms");
  run.m.set("par.util", cpu / (wall * hj::par::thread_count()), "ratio");

  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    Tracer::Scope span("store.open");
    const u64 t = now_ns();
    const hj::store::PlanStore s = hj::store::PlanStore::open(path);
    open_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
  }
  run.m.set("store.open_ms", median(open_ms), "ms");

  const hj::store::PlanStore store = hj::store::PlanStore::open(path);
  std::vector<Shape> shapes;
  for (const std::string& l : lines) shapes.push_back(parse_shape(l));
  std::vector<double> lookup_ns;
  u64 hits = 0;
  for (u64 i = 0; i < shapes.size(); ++i) {
    Tracer::Scope span("store.lookup", i + 1);
    const hj::store::Key key = hj::store::Key::of(shapes[i]);
    const u64 t = now_ns();
    const hj::store::PlanStore::Lookup l = store.lookup(key);
    lookup_ns.push_back(static_cast<double>(now_ns() - t));
    hits += l.status == hj::store::PlanStore::Status::Hit;
  }
  run.m.set("store.lookup_ns.p50", median(lookup_ns), "ns");
  run.m.set("store.hit_ratio",
            static_cast<double>(hits) / static_cast<double>(shapes.size()),
            "ratio");

  // The stream through Server::handle, untraced then traced. The reply's
  // phase split is in whole microseconds, so a median of sub-microsecond
  // phases would read 0 on every run: lookup is what handle() spent
  // outside verify and plan on this side's nanosecond clock, verify is a
  // mean, and plan is taken over the requests planned live.
  double secs[2] = {0, 0};
  std::vector<double> lookup_us, verify_us, plan_us;
  hj::store::ServeStats st;
  for (int traced = 0; traced < 2; ++traced) {
    Tracer::get().enable(traced == 1);
    hj::store::Server srv(&store, {}, counted_search);
    const u64 t = now_ns();
    for (u64 i = 0; i < shapes.size(); ++i) {
      Tracer::Scope span("serve.handle", i + 1);
      const u64 th = now_ns();
      const hj::store::Reply r = srv.handle(shapes[i]);
      const double us = static_cast<double>(now_ns() - th) * 1e-3;
      run.check(r.ok && r.dil <= 2, "in-process serve reply not certified");
      if (traced == 0) continue;
      lookup_us.push_back(
          std::max(0.0, us - static_cast<double>(r.phase.verify_us + r.phase.plan_us)));
      verify_us.push_back(static_cast<double>(r.phase.verify_us));
      if (r.verdict == hj::store::Verdict::ServedCold)
        plan_us.push_back(static_cast<double>(r.phase.plan_us));
    }
    secs[traced] = secs_since(t);
    st = srv.stats();
  }
  Tracer::get().enable(true);
  serve_overhead = secs[1] / secs[0];
  run.m.set("serve.lookup_us.p50", median(lookup_us), "us");
  double verify_sum = 0;
  for (double v : verify_us) verify_sum += v;
  run.m.set("serve.verify_us.mean",
            verify_sum / static_cast<double>(verify_us.size()), "us");
  run.m.set("serve.verify_us.p99", quantile(verify_us, 0.99), "us");
  run.m.set("serve.plan_us.p99", quantile(plan_us, 0.99), "us");
  run.m.set("serve.plan_us.max", vmax(plan_us), "us");
  run.m.set("serve.memo_hit_ratio",
            static_cast<double>(st.warm - st.store_hits) /
                static_cast<double>(st.requests),
            "ratio");
  return path;
}

/// Queueing and shedding as the daemon reports them in its `stats`
/// reply, after an open loop of the probe stream at the nominal rate
/// (on serve-cold: after a closed-loop pass of its sample, and the live
/// plan phase is taken from that reply too).
void layer_serve(Run& run, const std::string& store,
                 const std::vector<std::string>& lines) {
  Daemon d(run.args.hj_embed, store, run.path("probe-serve.log"));
  d.stats();
  Rng gaps(stream_seed("probe", run.args.seed, 71));
  const Step step =
      open_loop(run, d, {poisson(kHotRates[kHotNominal], lines, gaps)}, 1)[0];
  run.check(d.finish() == 0, "serve daemon failed");
  run.m.set("gen.late_us.p99", step.late_p99(), "us");
  ServeStatsLine st = step.stats;
  if (run.args.workload == "serve-cold") {
    st = closed_loop(run, cold_sample(run.args.seed, 99), nproc()).stats;
    run.m.set("serve.plan_us.p99", st.phase["plan"].p99_us, "us");
    run.m.set("serve.plan_us.max", st.phase["plan"].max_us, "us");
  }
  run.m.set("serve.queue_us.p50", st.phase["queue"].p50_us, "us");
  run.m.set("serve.queue_us.p99", st.phase["queue"].p99_us, "us");
  run.m.set("serve.shed", static_cast<double>(st.shed), "count");
}

/// Planner, relabel and verify over `shapes` with a fresh planner.
void layer_planner(Run& run, const std::vector<Shape>& shapes) {
  hj::Planner planner;
  planner.set_direct_provider(counted_search());
  Rng rng(stream_seed(run.args.workload, run.args.seed, 50));
  std::vector<double> plan_us, relabel_us;
  std::map<std::string, std::pair<u64, double>> by_method;
  u64 verify_calls = 0, edges = 0;
  double verify_s = 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    Tracer::Scope req("planner.request", i + 1);
    u64 t = now_ns();
    PlanResult r;
    {
      Tracer::Scope span("planner.plan");
      r = planner.plan(shapes[i]);
    }
    const double us = static_cast<double>(now_ns() - t) * 1e-3;
    plan_us.push_back(us);
    auto& bm = by_method[plan_method(r.plan)];
    bm.first += 1;
    bm.second += us;

    std::vector<u64> ext;
    for (u32 a = 0; a < shapes[i].dims(); ++a) ext.push_back(shapes[i][a]);
    rng.shuffle(ext);
    hj::SmallVec<u64, 4> sv;
    for (u64 e : ext) sv.push_back(e);
    t = now_ns();
    {
      Tracer::Scope span("relabel");
      const PlanResult rr = hj::relabel_plan(r, Shape(sv));
      run.check(rr.report.valid, "relabelled plan failed verification");
    }
    relabel_us.push_back(static_cast<double>(now_ns() - t) * 1e-3);

    t = now_ns();
    hj::VerifyReport rep;
    {
      Tracer::Scope span("verify");
      rep = hj::verify(*r.embedding);
    }
    verify_s += secs_since(t);
    ++verify_calls;
    edges += rep.guest_edges;
    run.check(rep.valid && rep.dilation <= 2 &&
                  rep.host_dim == r.report.host_dim,
              "plan of " + shapes[i].to_string() + " failed re-verification");
  }
  run.m.set("planner.plan_us.p50", median(plan_us), "us");
  run.m.set("planner.plan_us.max", vmax(plan_us), "us");
  for (const char* m : kMethods) {
    run.m.set(std::string("planner.method.") + m + ".count",
              static_cast<double>(by_method[m].first), "count");
    run.m.set(std::string("planner.method.") + m + ".us", by_method[m].second,
              "us");
  }
  run.m.set("verify.calls", static_cast<double>(verify_calls), "count");
  run.m.set("verify.edges_per_s", static_cast<double>(edges) / verify_s, "1/s");
  run.m.set("relabel.us.p50", median(relabel_us), "us");
}

/// Fault-free stencil runs and storm replays of `s`.
void layer_sim(Run& run, const StormSetup& s) {
  double secs = 0, cycles = 0, flits = 0;
  for (const PlanResult& p : s.plans) {
    // Repeat small cubes so every embedding is timed over >= 20 ms.
    const u64 t0 = now_ns();
    do {
      Tracer::Scope span("sim.run");
      const hj::sim::SimResult r = hj::sim::simulate_stencil(*p.embedding);
      cycles += static_cast<double>(r.cycles);
      flits += static_cast<double>(r.total_hops) * r.message_flits;
    } while (secs_since(t0) < 0.02);
    secs += secs_since(t0);
  }
  run.m.set("sim.run.cycles_per_s", cycles / secs, "1/s");
  run.m.set("sim.run.flits_per_s", flits / secs, "1/s");
  double epochs = 0, live_cycles = 0, live_secs = 0;
  std::map<std::string, u64> rungs;
  for (std::size_t i = 0; i < s.storms.size(); ++i) {
    const u64 t0 = now_ns();
    const hj::sim::LiveRunResult r = replay_storm(s, i);
    live_secs += secs_since(t0);
    epochs += r.epochs;
    live_cycles += static_cast<double>(r.cycles);
    for (const hj::sim::RecoveryEpochLog& l : r.log) ++rungs[l.rung];
  }
  run.m.set("live.epochs", epochs, "count");
  run.m.set("live.cycles_per_s", live_cycles / live_secs, "1/s");
  for (const char* rung : {"reroute", "migrate", "replan"})
    run.m.set(std::string("live.repairs.") + rung,
              static_cast<double>(rungs[rung]), "count");
}

/// Single-thread sweep throughput and the cost of one first_method call.
void layer_coverage(Run& run, u32 n_1t) {
  hj::par::set_thread_override(1);
  u64 t0 = now_ns();
  hj::coverage::SweepCounts c;
  {
    Tracer::Scope span("coverage.sweep.1t");
    c = hj::coverage::sweep_3d(n_1t);
  }
  run.m.set("coverage.shapes_per_s.1t",
            static_cast<double>(c.total) / secs_since(t0), "1/s");
  hj::par::set_thread_override(0);
  const std::vector<std::array<u64, 3>> sample =
      coverage_sample(run.args.seed, 200000);
  u64 methods = 0;
  t0 = now_ns();
  {
    Tracer::Scope span("coverage.first_method");
    for (const auto& m : sample) methods += hj::coverage::first_method(m[0], m[1], m[2]);
  }
  run.m.set("coverage.first_method_ns",
            static_cast<double>(now_ns() - t0) / static_cast<double>(sample.size()),
            "ns");
  std::printf("coverage.first_method sum=%llu over %zu meshes\n",
              static_cast<unsigned long long>(methods), sample.size());
}

/// The small storm every non-storm workload replays (E20's --quick cell).
StormSetup small_storm(u64 seed) {
  StormSetup s;
  hj::Planner planner;
  planner.set_direct_provider(counted_search());
  s.plans.push_back(planner.plan(Shape{5, 6, 8}));
  StormCase c;
  c.shape = 0;
  c.spec.cube_dim = 8;
  c.spec.events = 200;
  c.spec.flapping_links = 2;
  c.spec.seed = 1 + Rng(stream_seed("probe", seed, 60)).below(1u << 30);
  c.spec.first_cycle = 2;
  c.spec.burst_size = 16;
  c.spec.burst_spacing = 2;
  c.spec.intra_burst_spacing = 0;
  s.cases.push_back(c);
  s.storms.push_back(hj::sim::StormGenerator(c.spec).generate());
  return s;
}

void traced(Run& run) {
  const std::string& w = run.args.workload;
  Tracer::get().enable(true);
  // The serve workloads' probe store includes the search tail (2x5x6).
  const u64 budget = w.rfind("serve-", 0) == 0 ? kHotBudget : 48;
  double overhead = 1.0;
  const std::vector<std::string> lines =
      probe_stream(run.args.seed, budget, w == "serve-hot" ? 20000 : 3000);
  const std::string store = layer_store(run, budget, lines, overhead);
  layer_serve(run, store, lines);

  std::vector<Shape> shapes = method_shapes();
  if (w == "serve-hot") {
    HotStream popular(run.args.seed);  // the most requested shapes first
    std::set<std::string> seen;
    while (seen.size() < 48) {
      const std::string l = popular.next();
      if (seen.insert(parse_shape(l).sorted().to_string()).second)
        shapes.push_back(parse_shape(l).sorted());
    }
  } else if (w == "serve-cold") {
    for (const std::string& l : cold_sample(run.args.seed, 0))
      shapes.push_back(parse_shape(l));
  } else if (w == "storm-live") {
    for (const Shape& s : storm_shapes()) shapes.push_back(s);
  }
  layer_planner(run, shapes);
  {
    // One search the searcher must refuse (27 nodes, a 16-node cube), so
    // the cost of a fruitless call is measured on every workload.
    Tracer::Scope span("search.refused");
    run.check(!counted_search()(hj::Mesh(Shape{3, 3, 3}), 4),
              "search embedded 27 nodes into a 16-node cube");
  }

  if (w == "storm-live") {
    StormSetup s;
    s.plans = plan_storm_shapes();
    generate_storms(s, run.args.seed, 0);
    double secs[2] = {0, 0};
    for (int t = 0; t < 2; ++t) {
      Tracer::get().enable(t == 1);
      const u64 t0 = now_ns();
      for (std::size_t i = 0; i < s.storms.size(); ++i) (void)replay_storm(s, i);
      secs[t] = secs_since(t0);
    }
    Tracer::get().enable(true);
    overhead = secs[1] / secs[0];
    layer_sim(run, s);
  } else {
    layer_sim(run, small_storm(run.args.seed));
  }

  if (w == "fig2-sweep") {
    double secs[2] = {0, 0};
    for (int t = 0; t < 2; ++t) {
      Tracer::get().enable(t == 1);
      const double cpu0 = cpu_seconds();
      const u64 t0 = now_ns();
      {
        Tracer::Scope span("coverage.sweep");
        run.check(sweep_exact(kSweepN, hj::coverage::sweep_3d(kSweepN)),
                  "sweep_3d(10) counts differ from Figure 2's");
      }
      secs[t] = secs_since(t0);
      run.m.set("par.util",
                (cpu_seconds() - cpu0) / (secs[t] * hj::par::thread_count()),
                "ratio");
    }
    Tracer::get().enable(true);
    overhead = secs[1] / secs[0];
  }
  layer_coverage(run, w == "fig2-sweep" ? 9 : 6);

  const double calls = static_cast<double>(g_search.calls.load());
  run.m.set("search.calls", calls, "count");
  run.m.set("search.found_ratio",
            calls > 0 ? static_cast<double>(g_search.found.load()) / calls : 0,
            "ratio");
  run.m.set("search.us.total", static_cast<double>(g_search.ns_total.load()) * 1e-3,
            "us");
  run.m.set("search.us.wasted",
            static_cast<double>(g_search.ns_wasted.load()) * 1e-3, "us");
  run.m.set("trace.overhead", overhead, "ratio");
  Tracer::get().enable(false);

  const std::string trace_path = run.path("trace-" + w + ".json");
  run.check(Tracer::get().write_chrome(trace_path), "cannot write the trace");
  for (const auto& [name, t] : Tracer::get().totals())
    std::printf("span %-24s count=%-7llu total_ms=%.3f self_ms=%.3f\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_s * 1e3, t.self_s * 1e3);
  run.attempted = std::max<u64>(1, static_cast<u64>(shapes.size()));
}

// ---- entry points --------------------------------------------------------

std::string env_json() {
  bool asan = false, tsan = false;
#if defined(__SANITIZE_ADDRESS__)
  asan = true;
#endif
#if defined(__SANITIZE_THREAD__)
  tsan = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  asan = true;
#endif
#if __has_feature(thread_sanitizer)
  tsan = true;
#endif
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const char* threads = std::getenv("HJ_THREADS");
  const char* commit = std::getenv("HJB_COMMIT");
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"commit\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"ndebug\": %s, \"asan\": %s, "
                "\"tsan\": %s, \"nproc\": %u, \"HJ_THREADS\": \"%s\", "
                "\"pool_threads\": %u}",
                commit ? commit : "", HJB_CXX_ID, HJB_BUILD_TYPE,
                ndebug ? "true" : "false", asan ? "true" : "false",
                tsan ? "true" : "false", nproc(), threads ? threads : "",
                hj::par::thread_count());
  return buf;
}

bool measurable_build() {
  const std::string env = env_json();
  return env.find("\"build_type\": \"Release\"") != std::string::npos &&
         env.find("\"ndebug\": true") != std::string::npos &&
         env.find("\"asan\": true") == std::string::npos &&
         env.find("\"tsan\": true") == std::string::npos;
}

void print_gen(const Args& a) {
  if (a.workload == "serve-hot") {
    HotStream s(a.seed);
    for (int i = 0; i < 2000; ++i) {
      std::printf("%s\n", s.next().c_str());
    }
  } else if (a.workload == "serve-cold") {
    for (u64 pass = 0; pass < 2; ++pass) {
      const std::vector<std::string> v = cold_sample(a.seed, pass);
      bool tail = false;
      for (const std::string& l : v) {
        std::printf("%s\n", l.c_str());
        tail = tail || is_tail(l);
      }
      std::printf("pass %llu tail=%d\n", static_cast<unsigned long long>(pass),
                  tail ? 1 : 0);
    }
  } else if (a.workload == "storm-live") {
    for (const StormCase& c : storm_round(a.seed, 0)) {
      const hj::sim::Storm st = hj::sim::StormGenerator(c.spec).generate();
      std::printf("shape=%zu dim=%u kind=%s events=%u flapping=%u seed=%llu "
                  "nodes=%u links=%u dropped=%u span=%llu\n",
                  c.shape, c.spec.cube_dim, hj::sim::storm_kind_name(c.spec.kind),
                  c.spec.events, c.spec.flapping_links,
                  static_cast<unsigned long long>(c.spec.seed),
                  st.stats.node_events, st.stats.link_events,
                  st.stats.dropped_events,
                  static_cast<unsigned long long>(st.stats.span_cycles));
    }
  } else {
    std::printf("sweep n=%u setup n=%u\n", kSweepN, kSetupSweepN);
    for (const auto& m : coverage_sample(a.seed, 100))
      std::printf("%llu %llu %llu\n", static_cast<unsigned long long>(m[0]),
                  static_cast<unsigned long long>(m[1]),
                  static_cast<unsigned long long>(m[2]));
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: hjbench env\n"
               "       hjbench gen --workload W --seed N\n"
               "       hjbench run --workload W --seed N --seconds S "
               "--trace 0|1 --hj-embed PATH --dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace hjb

int main(int argc, char** argv) {
  using namespace hjb;
  signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--hj-embed") a.hj_embed = v;
    else if (k == "--dir") a.dir = v;
    else return usage();
  }
  if (a.cmd == "env") {
    std::printf("%s\n", env_json().c_str());
    return measurable_build() ? 0 : 3;
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) return usage();
  if (a.cmd == "gen") {
    print_gen(a);
    return 0;
  }
  if (a.cmd != "run" || a.hj_embed.empty() || a.dir.empty() || a.seconds <= 0)
    return usage();
  if (!measurable_build()) {
    std::fprintf(stderr, "hjbench: refusing to measure a %s build\n",
                 env_json().c_str());
    return 3;
  }
  Run run;
  run.args = a;
  std::printf("env %s\n", env_json().c_str());
  try {
    if (a.trace) traced(run);
    else if (a.workload == "serve-hot") serve_hot(run);
    else if (a.workload == "serve-cold") serve_cold(run);
    else if (a.workload == "storm-live") storm_live(run);
    else fig2_sweep(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hjbench: %s\n", e.what());
    return 1;
  }
  for (const Metrics::M& m : run.m.items)
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), run.m.json().c_str());
  return 0;
}
