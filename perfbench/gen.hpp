// hjbench input generators. Every input a workload feeds the program is a
// pure function of (workload, seed): the request streams, the shape
// samples and the storm specs. `hjbench gen` prints them so the
// self-test can check that.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/shape.hpp"
#include "hypersim/storm.hpp"
#include "store/precompute.hpp"

namespace hjb {

// ---- serve-hot -----------------------------------------------------------

/// Store budget: the smallest that holds a search-tail shape (2x5x6).
constexpr u64 kHotBudget = 60;
/// Offered rates of the open loop (requests/s); kHotNominal indexes the
/// nominal step, the last step is the peak.
constexpr double kHotRates[] = {1000, 2000, 4000, 8000};
constexpr std::size_t kHotNominal = 1;
/// Zipf exponent of shape popularity.
constexpr double kZipfS = 1.0;
/// The serve latency limit behind slo_rps (p99, failures count as over).
constexpr double kSloP99Us = 1000.0;

/// Search-tail shapes measured at the seed: each takes seconds to plan
/// cold while nearly every other shape takes milliseconds.
inline const std::vector<std::string>& known_tail_shapes() {
  static const std::vector<std::string> v = {
      "2x5x6", "2x3x18", "2x3x20", "2x3x21",
      "2x5x12", "2x7x9", "3x6x6", "3x6x7"};
  return v;
}

inline std::string shape_key(const hj::Shape& s) { return s.to_string(); }

/// Zipf popularity over the store's canonical shapes (popularity order a
/// seeded shuffle), each request in a seeded random axis order. next()
/// returns a request line such as "5x2x3".
class HotStream {
 public:
  explicit HotStream(u64 seed, u64 budget = kHotBudget)
      : rng_(stream_seed("serve-hot", seed, 1)) {
    shapes_ = hj::store::enumerate_canonical_shapes(budget, 3);
    Rng order(stream_seed("serve-hot", seed, 2));
    order.shuffle(shapes_);
    double acc = 0;
    for (std::size_t r = 0; r < shapes_.size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  std::string next() {
    const double u = rng_.unit();
    const std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const hj::Shape& s = shapes_[std::min(r, shapes_.size() - 1)];
    std::vector<u64> ext;
    for (u32 i = 0; i < s.dims(); ++i) ext.push_back(s[i]);
    rng_.shuffle(ext);
    std::string line;
    for (std::size_t i = 0; i < ext.size(); ++i)
      line += (i ? "x" : "") + std::to_string(ext[i]);
    return line;
  }

 private:
  Rng rng_;
  std::vector<hj::Shape> shapes_;
  std::vector<double> cdf_;
};

// ---- serve-cold ----------------------------------------------------------

/// Node range of the cold sample: every canonical shape up to this many
/// nodes. It holds the smallest search-tail shape (2x5x6) and no other.
constexpr u64 kColdMaxNodes = 64;

/// Distinct canonical shapes of the cold node range, drawn without
/// replacement in a seeded order; `pass` selects an independent order.
inline std::vector<std::string> cold_sample(u64 seed, u64 pass) {
  std::vector<hj::Shape> all =
      hj::store::enumerate_canonical_shapes(kColdMaxNodes, 3);
  Rng rng(stream_seed("serve-cold", seed, 10 + pass));
  rng.shuffle(all);
  std::vector<std::string> out;
  for (const hj::Shape& s : all) out.push_back(shape_key(s));
  return out;
}

// ---- storm-live ----------------------------------------------------------

/// The E20 Q10 embedding: 7x9x13, 819 nodes in a 2^10-node cube, with
/// spare nodes for the cheap repair rungs. (The Q12 and Q14 cells of E20
/// move too much with other load on the host to gate on; see README.md.)
inline std::vector<hj::Shape> storm_shapes() { return {hj::Shape{7, 9, 13}}; }

struct StormCase {
  std::size_t shape;  ///< index into storm_shapes()
  hj::sim::StormSpec spec;
};

/// One round of storms: E20's cells on Q10 (regional storms at 50, 200
/// and 400 arrivals, a cascading storm, and a mixed storm with flapping
/// links), each with a storm seed drawn from the stream; every round draws
/// fresh storm seeds.
inline std::vector<StormCase> storm_round(u64 seed, u64 round) {
  struct Cell {
    hj::sim::StormKind kind;
    u32 events;
    u32 flapping;
  };
  using K = hj::sim::StormKind;
  const Cell cells[] = {{K::Regional, 50, 0},
                        {K::Regional, 200, 0},
                        {K::Regional, 400, 0},
                        {K::Cascading, 200, 0},
                        {K::Mixed, 200, 4}};
  Rng rng(stream_seed("storm-live", seed, 100 + round));
  std::vector<StormCase> out;
  for (const Cell& c : cells) {
    StormCase sc;
    sc.shape = 0;
    sc.spec.cube_dim = 10;
    sc.spec.kind = c.kind;
    sc.spec.events = c.events;
    sc.spec.flapping_links = c.flapping;
    sc.spec.seed = 1 + rng.below(1u << 30);
    // E20's compressed arrival train: bursts overlap the repair epochs.
    sc.spec.first_cycle = 2;
    sc.spec.burst_size = 16;
    sc.spec.burst_spacing = 2;
    sc.spec.intra_burst_spacing = 0;
    out.push_back(sc);
  }
  return out;
}

// ---- fig2-sweep ----------------------------------------------------------

constexpr u32 kSweepN = 10;
constexpr u32 kSetupSweepN = 9;

/// Seeded meshes (extents <= 2^kSweepN) for timing first_method alone.
inline std::vector<std::array<u64, 3>> coverage_sample(u64 seed, u32 count) {
  Rng rng(stream_seed("fig2-sweep", seed, 30));
  std::vector<std::array<u64, 3>> out;
  const u64 hi = u64{1} << kSweepN;
  for (u32 i = 0; i < count; ++i)
    out.push_back({1 + rng.below(hi), 1 + rng.below(hi), 1 + rng.below(hi)});
  return out;
}

}  // namespace hjb
