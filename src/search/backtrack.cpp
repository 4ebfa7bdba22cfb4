#include "search/backtrack.hpp"

#include <algorithm>
#include <random>

#include "core/bitword.hpp"
#include "core/hypercube.hpp"

namespace hj::search {
namespace {

/// Hamming ball of radius r around every cube node, as bitsets.
std::vector<BitwordSet> make_balls(u32 dim, u32 radius) {
  const u64 n = u64{1} << dim;
  std::vector<BitwordSet> balls(n, BitwordSet(n));
  // Enumerate all masks of popcount <= radius once, then translate.
  std::vector<u64> offsets;
  offsets.push_back(0);
  for (u32 r = 1; r <= radius; ++r) {
    // All masks with exactly r bits via Gosper's hack.
    if (r > dim) break;
    u64 m = (u64{1} << r) - 1;
    const u64 limit = u64{1} << dim;
    while (m < limit) {
      offsets.push_back(m);
      const u64 c = m & (~m + 1);
      const u64 rr = m + c;
      m = (((rr ^ m) >> 2) / c) | rr;
    }
  }
  for (u64 v = 0; v < n; ++v)
    for (u64 off : offsets) balls[v].set(v ^ off);
  return balls;
}

struct Frame {
  std::vector<CubeNode> candidates;
  std::size_t next = 0;
  u64 used_dims_before = 0;
};

}  // namespace

BacktrackResult backtrack_search(const Mesh& guest, u32 host_dim,
                                 const BacktrackOptions& opts) {
  require(host_dim <= 24, "backtrack_search: host_dim too large");
  BacktrackResult result;
  const u64 n_guest = guest.num_nodes();
  const u64 n_host = u64{1} << host_dim;
  if (n_guest > n_host) {
    result.exhausted = true;
    return result;
  }

  const std::vector<BitwordSet> balls =
      make_balls(host_dim, opts.max_dilation);

  // Earlier-placed neighbors of each node under row-major assignment order.
  std::vector<SmallVec<MeshIndex, 8>> prev(n_guest);
  guest.for_each_edge([&](const MeshEdge& e) {
    const MeshIndex lo = std::min(e.a, e.b), hi = std::max(e.a, e.b);
    prev[hi].push_back(lo);
  });

  std::vector<CubeNode> assign(n_guest, 0);
  BitwordSet free(n_host);
  for (CubeNode v = 0; v < n_host; ++v) free.set(v);
  std::vector<Frame> stack;
  stack.reserve(n_guest);
  u64 used_dims = 0;

  auto push_frame = [&](MeshIndex node) {
    Frame f;
    f.used_dims_before = used_dims;
    if (node == 0) {
      f.candidates.push_back(0);  // translation symmetry: phi(0) = 0
    } else {
      BitwordSet cand = free;
      for (MeshIndex p : prev[node]) cand &= balls[assign[p]];
      cand.for_each_set([&](CubeNode c) {
        if (opts.canonical_pruning) {
          const u64 fresh = c & ~used_dims;
          if (fresh) {
            // Fresh dims must be exactly the lowest unused positions up to
            // the highest fresh bit.
            const u64 below =
                (u64{1} << (log2_floor(fresh) + 1)) - 1;
            if (((below & ~used_dims) ^ fresh) != 0) return;
          }
        }
        f.candidates.push_back(c);
      });
      // Try tight placements first: order by total distance to the placed
      // neighbors, so dilation-1 continuations are explored before
      // dilation-2 ones. With a shuffle seed, ties break randomly (for
      // randomized-restart searching) instead of by address.
      auto cost = [&](CubeNode x) {
        u32 d = 0;
        for (MeshIndex p : prev[node]) d += hamming(assign[p], x);
        return d;
      };
      if (opts.shuffle_seed) {
        std::mt19937_64 rng(opts.shuffle_seed ^
                            (0x9e3779b97f4a7c15ull * (node + 1)));
        std::shuffle(f.candidates.begin(), f.candidates.end(), rng);
        std::stable_sort(
            f.candidates.begin(), f.candidates.end(),
            [&](CubeNode x, CubeNode y) { return cost(x) < cost(y); });
      } else {
        std::sort(f.candidates.begin(), f.candidates.end(),
                  [&](CubeNode x, CubeNode y) {
                    const u32 dx = cost(x), dy = cost(y);
                    if (dx != dy) return dx < dy;
                    return x < y;
                  });
      }
    }
    stack.push_back(std::move(f));
  };

  push_frame(0);
  while (!stack.empty()) {
    if (opts.node_budget && result.nodes_expanded >= opts.node_budget)
      return result;  // budget exhausted, inconclusive
    Frame& f = stack.back();
    const MeshIndex node = static_cast<MeshIndex>(stack.size()) - 1;
    if (f.next >= f.candidates.size()) {
      // Backtrack.
      stack.pop_back();
      if (!stack.empty()) {
        const MeshIndex prev_node = static_cast<MeshIndex>(stack.size()) - 1;
        free.set(assign[prev_node]);
        used_dims = stack.back().used_dims_before;
        // used_dims is restored lazily below when the frame advances; the
        // stored value at push time covers re-expansion correctly.
      }
      continue;
    }
    const CubeNode c = f.candidates[f.next++];
    ++result.nodes_expanded;
    assign[node] = c;
    used_dims = f.used_dims_before | c;
    if (stack.size() == n_guest) {
      result.map = assign;
      return result;
    }
    free.clear(c);
    push_frame(static_cast<MeshIndex>(stack.size()));
  }

  result.exhausted = true;
  return result;
}

}  // namespace hj::search
