// hjbench shared utilities: clocks, a portable seeded RNG, quantiles,
// process accounting, the span recorder behind the traced run, and the
// result/report printer.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace hjb {

using hj::u32;
using hj::u64;
using Clock = std::chrono::steady_clock;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
}

inline double secs_since(u64 t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// SplitMix64: a tiny generator whose output is fully specified here, so
/// generated inputs are byte-identical on every platform and standard
/// library (std:: distributions are not).
struct Rng {
  u64 s;
  explicit Rng(u64 seed) : s(seed) {}
  u64 next() {
    u64 z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0); the modulo bias is below 2^-40 here.
  u64 below(u64 n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (u64 i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

/// Stream seed for (workload, user seed, stream tag): every generator
/// draws from its own stream, so adding one never perturbs another.
inline u64 stream_seed(std::string_view workload, u64 seed, u64 tag) {
  u64 h = 14695981039346656037ull;
  for (char c : workload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  Rng r(h ^ (seed * 0x9E3779B97F4A7C15ull) ^ (tag << 32));
  return r.next();
}

/// Linearly interpolated quantile (numpy's default); 0 for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
inline double vmax(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Peak resident set of a process in MiB (VmHWM), 0 when unreadable.
inline double peak_rss_mb(const std::string& pid = "self") {
  std::ifstream in("/proc/" + pid + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// User + system CPU seconds of this process so far.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// In-memory span recorder for the traced run. Spans nest per thread
/// (the parent is the innermost open span of the recording thread);
/// spans of one request carry the same request id. Recording is off
/// unless enabled, and then costs one clock read and one locked append
/// per span.
class Tracer {
 public:
  struct Span {
    const char* name;
    u64 start_ns;
    u64 end_ns;
    long parent;  // index into spans(), -1 for a root
    u64 req;
  };

  static Tracer& get() {
    static Tracer t;
    return t;
  }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }

  class Scope {
   public:
    /// `req` 0 inherits the enclosing span's request id.
    explicit Scope(const char* name, u64 req = 0) {
      Tracer& t = Tracer::get();
      if (!t.on()) return;
      const long parent = stack().empty() ? -1 : stack().back();
      std::lock_guard<std::mutex> lk(t.mu_);
      if (req == 0 && parent >= 0)
        req = t.spans_[static_cast<std::size_t>(parent)].req;
      idx_ = static_cast<long>(t.spans_.size());
      t.spans_.push_back(Span{name, now_ns(), 0, parent, req});
      stack().push_back(idx_);
    }
    ~Scope() {
      if (idx_ < 0) return;
      Tracer& t = Tracer::get();
      const u64 end = now_ns();
      stack().pop_back();
      std::lock_guard<std::mutex> lk(t.mu_);
      t.spans_[static_cast<std::size_t>(idx_)].end_ns = end;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static std::vector<long>& stack() {
      thread_local std::vector<long> s;
      return s;
    }
    long idx_ = -1;
  };

  /// Total and self time (span minus the time its children cover) per
  /// span name, in seconds, plus the span count.
  struct Totals {
    double total_s = 0;
    double self_s = 0;
    u64 count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d =
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
      Totals& t = out[spans_[i].name];
      t.total_s += d;
      t.self_s += std::max(0.0, d - child[i]);
      ++t.count;
    }
    return out;
  }

  /// Write every span as a Chrome trace_event document (viewable in
  /// Perfetto); the request id goes into args.
  bool write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const u64 base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                   "\"parent\":%ld}}\n",
                   i ? "," : "", s.name,
                   static_cast<double>(s.start_ns - base) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.req), s.parent);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  Tracer() { spans_.reserve(1 << 16); }
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Named metrics in insertion order, printed as the run's result line.
struct Metrics {
  struct M {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<M> items;
  void set(const std::string& name, double value, const std::string& unit) {
    for (M& m : items)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    items.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < items.size(); ++i) {
      const double v = std::isfinite(items[i].value) ? items[i].value : -1.0;
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", items[i].name.c_str(), v,
                    items[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }
};

}  // namespace hjb
