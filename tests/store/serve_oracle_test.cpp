// Differential oracle for the serve path: seeded request streams through
// a Server, every reply checked field by field against a naive reference
// that plans each request from scratch.
//
// The reference knows nothing about memos or caches. For each request it
// classifies the canonical shape by store state (no store or a miss ->
// cold; a record that decodes, matches the shape and verifies -> warm
// with the record's plan; anything else -> degraded), builds the
// canonical plan with a FRESH Planner carrying the same provider (or
// takes the record's plan on a clean hit), and relabels it to the
// requested axis order. The verdict model: the first request of a
// canonical class gets its store-state verdict, every later request of
// the class in the same stream is served-warm.
//
// Streams mix canonical and permuted axis orders, repeats, shapes inside
// and outside a small precomputed store, a copy of that store with
// seeded byte flips, oversized requests, and the lexicographic and
// wirelength objectives. The search-tail shape 2x5x6 is left out of the
// pool so the whole oracle stays well under a second.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>

#include "core/io.hpp"
#include "core/verify.hpp"
#include "search/provider.hpp"
#include "store/precompute.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"

namespace hj::store {
namespace {

constexpr u64 kStoreNodes = 16;  // store budget; the pool reaches past it
constexpr u64 kPoolNodes = 64;
constexpr u32 kStreams = 300;

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "hj_oracle_" + tag;
}

void remove_store(const std::string& path) {
  std::remove(path.c_str());
  std::remove(journal_path(path).c_str());
  std::remove((path + ".tmp").c_str());
}

/// Canonical shapes the streams draw from: every rank-1..3 shape up to
/// kPoolNodes nodes except 2x5x6, the one shape in that range whose cold
/// plan runs a seconds-long backtracking search.
std::vector<Shape> shape_pool() {
  std::vector<Shape> pool;
  for (const Shape& s : enumerate_canonical_shapes(kPoolNodes, 3))
    if (s != Shape{2, 5, 6}) pool.push_back(s);
  return pool;
}

/// The two stores every stream can attach: the precomputed one and a
/// copy with seeded byte flips in its data region.
struct Stores {
  std::string clean;
  std::string corrupt;

  Stores() : clean(temp_path("clean.hjs")), corrupt(temp_path("flip.hjs")) {
    remove_store(clean);
    remove_store(corrupt);
    PrecomputeOptions opts;
    opts.max_nodes = kStoreNodes;
    require(precompute(clean, opts).complete, "oracle store not built");
    std::string bytes;
    {
      std::ifstream is(clean, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
    }
    {
      const PlanStore probe = PlanStore::open(clean);
      const auto [first, last] = probe.data_region();
      std::mt19937_64 rng(7);
      std::uniform_int_distribution<u64> off(first, last - 1);
      for (int i = 0; i < 12; ++i) bytes[off(rng)] ^= static_cast<char>(0x20);
    }
    std::ofstream os(corrupt, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~Stores() {
    remove_store(clean);
    remove_store(corrupt);
  }
};

/// Store state of one canonical class, judged from its own PlanStore
/// instance (lookups quarantine, so the reference never shares one with
/// the server under test).
struct Classified {
  Verdict verdict = Verdict::ServedCold;
  std::optional<PlanResult> record_plan;  // set on a clean hit
};

Classified classify(const PlanStore* store, const Shape& canon) {
  Classified c;
  if (!store) return c;
  const PlanStore::Lookup hit = store->lookup(Key::of(canon));
  if (hit.status == PlanStore::Status::Miss) return c;
  c.verdict = Verdict::Degraded;
  if (hit.status != PlanStore::Status::Hit) return c;
  try {
    const std::shared_ptr<ExplicitEmbedding> emb =
        io::from_text(hit.record.emb_text);
    if (emb->guest().shape() != canon) return c;
    PlanResult r;
    r.report = verify(*emb);
    if (!r.report.valid) return c;
    r.embedding = emb;
    r.plan = hit.record.plan;
    c.verdict = Verdict::ServedWarm;
    c.record_plan = std::move(r);
  } catch (const std::exception&) {
  }
  return c;
}

Shape permuted(const Shape& canon, std::mt19937_64& rng) {
  SmallVec<u64, 4> ext = canon.extents();
  std::shuffle(ext.begin(), ext.end(), rng);
  return Shape{std::move(ext)};
}

TEST(ServeOracle, MatchesNaiveReferenceOnSeededStreams) {
  const Stores stores;
  const std::vector<Shape> pool = shape_pool();
  std::vector<Shape> in_store;
  for (const Shape& s : pool)
    if (s.num_nodes() <= kStoreNodes) in_store.push_back(s);
  const DirectProviderFactory factory = [] {
    return search::make_search_provider();
  };
  u64 seen[4] = {0, 0, 0, 0};  // verdicts observed, by Verdict value

  for (u32 seed = 0; seed < kStreams; ++seed) {
    std::mt19937_64 rng(seed);
    const u32 store_kind = seed % 3;  // 0 none, 1 clean, 2 flipped
    std::optional<PlanStore> served, judged;
    if (store_kind) {
      const std::string& path = store_kind == 1 ? stores.clean : stores.corrupt;
      served.emplace(PlanStore::open(path));
      judged.emplace(PlanStore::open(path));
    }
    ServeOptions opts;
    opts.planner.objective = (seed / 3) % 2 ? cost::Objective::WirelengthFirst
                                            : cost::Objective::Lexicographic;
    Server server(served ? &*served : nullptr, opts, factory);

    // A handful of classes per stream so repeats are common, half of
    // them from inside the store budget.
    std::vector<Shape> classes;
    const u32 nclass = 2 + static_cast<u32>(rng() % 4);
    for (u32 i = 0; i < nclass; ++i) {
      const std::vector<Shape>& from = rng() % 2 ? in_store : pool;
      classes.push_back(from[rng() % from.size()]);
    }

    std::set<std::vector<u64>> served_classes;
    ServeStats want;
    const u32 nreq = 4 + static_cast<u32>(rng() % 9);
    for (u32 r = 0; r < nreq; ++r) {
      SCOPED_TRACE("stream " + std::to_string(seed) + " request " +
                   std::to_string(r));
      want.requests += 1;
      if (rng() % 20 == 0) {
        const Reply bad = server.handle(Shape{{1u << 14, 1u << 14}});
        EXPECT_FALSE(bad.ok);
        EXPECT_NE(bad.error.find("2^26"), std::string::npos) << bad.error;
        want.errors += 1;
        continue;
      }
      const Shape& canon = classes[rng() % classes.size()];
      const Shape shape = rng() % 2 ? permuted(canon, rng) : canon;
      const Reply rep = server.handle(shape);

      // The naive reference: store state, else a fresh planner.
      const std::vector<u64> ckey(canon.extents().begin(),
                                  canon.extents().end());
      const bool first = served_classes.insert(ckey).second;
      const Classified cls = classify(judged ? &*judged : nullptr, canon);
      PlanResult ref_canon;
      if (cls.record_plan) {
        ref_canon = *cls.record_plan;
      } else {
        Planner fresh(opts.planner);
        fresh.set_direct_provider(factory());
        ref_canon = fresh.plan(canon);
      }
      const Verdict want_verdict = first ? cls.verdict : Verdict::ServedWarm;
      const PlanResult ref = relabel_plan(ref_canon, shape);

      ASSERT_TRUE(rep.ok) << shape.to_string() << ": " << rep.error;
      EXPECT_TRUE(rep.error.empty());
      EXPECT_STREQ(verdict_name(rep.verdict), verdict_name(want_verdict))
          << shape.to_string();
      EXPECT_EQ(rep.cube, ref.report.host_dim);
      EXPECT_EQ(rep.dil, ref.report.dilation);
      EXPECT_EQ(rep.cong, ref.report.congestion);
      EXPECT_EQ(rep.wl, ref.report.wirelength);
      EXPECT_EQ(rep.plan, ref.plan);
      if (rep.verdict == Verdict::ServedWarm) {
        EXPECT_EQ(rep.phase.plan_us, 0u);
      }
      switch (want_verdict) {
        case Verdict::ServedWarm: want.warm += 1; break;
        case Verdict::ServedCold: want.cold += 1; break;
        case Verdict::Degraded: want.degraded += 1; break;
        case Verdict::Shed: break;
      }
      seen[static_cast<int>(rep.verdict)] += 1;
    }
    const ServeStats got = server.stats();
    EXPECT_EQ(got.requests, want.requests) << "stream " << seed;
    EXPECT_EQ(got.warm, want.warm) << "stream " << seed;
    EXPECT_EQ(got.cold, want.cold) << "stream " << seed;
    EXPECT_EQ(got.degraded, want.degraded) << "stream " << seed;
    EXPECT_EQ(got.errors, want.errors) << "stream " << seed;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The streams exercised every non-shed verdict.
  EXPECT_GT(seen[static_cast<int>(Verdict::ServedWarm)], 0u);
  EXPECT_GT(seen[static_cast<int>(Verdict::ServedCold)], 0u);
  EXPECT_GT(seen[static_cast<int>(Verdict::Degraded)], 0u);
}

}  // namespace
}  // namespace hj::store
