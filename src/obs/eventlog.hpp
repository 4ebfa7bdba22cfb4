// hjembed: the structured event log — one JSON line per significant
// state change (a request admitted, a batch checkpointed, an epoch
// verdict, a cache outcome, a trace span opening or closing), built for
// four consumers at once:
//
//   1. the flight recorder: every emitted event is note()'d into the
//      crash ring, so a postmortem names the in-flight work;
//   2. a live stream: --events-out appends each line with a single
//      write(2), so a killed daemon leaves a parseable tail;
//   3. tests: an in-memory capture (bounded, drop-counted) that the
//      determinism suite compares bit-for-bit across HJ_THREADS;
//   4. --trace-out: trace_json() renders the captured span events as a
//      Chrome trace_event document.
//
// Schema (DESIGN.md §14). Every line is a flat JSON object:
//
//   {"ev":"serve.request","eid":"4c1f00c5","kind":"timing","sev":"info",
//    "comp":"serve","id":17,"shape":"3x5x7","ts_us":1234,"tid":0}
//
//   ev    dotted event name, subsystem first (same convention as metrics)
//   eid   FNV-1a hash of ev, fixed-width hex — a deterministic numeric id
//         stable across builds, for log pipelines that key on integers
//   kind  "det" | "timing" — the metrics Kind contract, verbatim:
//         Deterministic events are emitted from serial or canonically
//         ordered call sites, carry NO ts_us/tid fields, and their
//         concatenated stream is bit-identical at any HJ_THREADS;
//         Timing events append ts_us (obs::now_us) and tid and may
//         interleave freely.
//   sev   "debug" | "info" | "warn" | "error"
//   comp  emitting component ("serve", "store", "live", "planner", ...)
//   ...   event-specific keys, u64/i64/string values, insertion order
//
// Emission idiom (mirrors the metrics cached-handle hook):
//
//   if (obs::events_on()) {
//     obs::Event("serve.shed", obs::Kind::Timing, obs::Severity::Warn,
//                "serve")
//         .kv("id", id).kv("reason", "queue-full").emit();
//   }
//
// events_on() is false until a sink exists (HJ_OBS, a flight ring, or a
// stream fd), and constexpr false under HJ_DISABLE_OBS — so an
// uninstrumented run pays one relaxed load per site and a disabled
// build pays nothing. Event builds its line in a fixed stack buffer of
// kMaxLine bytes, the payload of one flight slot, so every sink holds
// the same whole line (no allocation on the hot path). An overlong
// payload is cut at a JSON-safe point: a string value is closed early,
// a field that does not fit is dropped with every field after it, and
// a Timing line keeps its ts_us/tid, whose room is reserved up front.
//
// Trace spans (DESIGN.md §9). HJ_SPAN("plan") / HJ_SPAN_N("plan_batch",
// n) emit a Timing "span.begin" event when the scope opens and a
// "span.end" event when it closes:
//
//   {"ev":"span.begin",...,"comp":"obs","name":"plan_batch","n":48,
//    "ts_us":1234,"tid":0}
//
// Spans are emitted only while obs::enabled(), so a daemon whose only
// sink is its flight ring formats none. A killed HJ_OBS=1 process
// therefore names, in its ring, the spans it was inside when it died.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace hj::obs {

enum class Severity : u8 { Debug, Info, Warn, Error };

[[nodiscard]] const char* severity_name(Severity s) noexcept;

/// Deterministic 32-bit event id: FNV-1a of the event name. Stable
/// across builds and platforms; rendered as fixed-width hex in "eid".
[[nodiscard]] constexpr u32 event_id(const char* name) noexcept {
  u32 h = 2166136261u;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<u32>(static_cast<unsigned char>(*p));
    h *= 16777619u;
  }
  return h;
}

/// Sink registry + capture buffer behind Event::emit(). All methods are
/// thread-safe; publish() is lock-free unless in-memory capture is on.
class EventLog {
 public:
  static EventLog& global();

  /// Route finished lines (NOT newline-terminated) to every active sink:
  /// always the flight ring; the stream fd when set; the in-memory
  /// capture when obs::enabled() (bounded at kCaptureCap, then dropped).
  void publish(Kind kind, const char* line, std::size_t len);

  /// Append each event line + '\n' to this fd with one write(2) (open
  /// with O_APPEND; crash leaves a parseable tail). -1 disables.
  void set_stream_fd(int fd) noexcept;
  [[nodiscard]] bool stream_active() const noexcept;

  /// In-memory capture (test + stats surface). Lines in emission order.
  [[nodiscard]] std::vector<std::string> events() const;
  /// Only Kind::Deterministic lines, concatenated with '\n' — the exact
  /// string the determinism property test compares across HJ_THREADS.
  [[nodiscard]] std::string deterministic_text() const;
  [[nodiscard]] u64 dropped() const noexcept;
  void clear();

  /// The captured span events as a Chrome trace_event document
  /// ({"traceEvents": [...]} of "B"/"E" pairs, ts in µs, tid = thread
  /// ordinal); load it in ui.perfetto.dev or about:tracing. Same-thread
  /// spans nest by begin/end order, so a plan_batch — plan — verify
  /// pipeline renders as a flame graph with no parent ids.
  [[nodiscard]] std::string trace_json() const;

  static constexpr std::size_t kCaptureCap = 65536;

 private:
  EventLog() = default;
};

#ifdef HJ_DISABLE_OBS
[[nodiscard]] inline constexpr bool events_on() noexcept { return false; }
#else
/// True when any event sink is live: HJ_OBS/set_enabled (capture),
/// a flight ring, or an --events-out stream. Emission sites gate on
/// this so an unobserved run skips all formatting.
[[nodiscard]] inline bool events_on() noexcept {
  return enabled() || flight::active() || EventLog::global().stream_active();
}
#endif

/// One event under construction: fixed stack buffer, chained kv()s,
/// emit() closes the object and publishes. Build only inside an
/// events_on() guard — construction does real formatting work. A Timing
/// event reads its ts_us and tid when it is built.
class Event {
 public:
  /// Longest line, excluding '\n': whole in a flight-ring slot, so the
  /// ring, the stream and the capture all hold the same line.
  static constexpr std::size_t kMaxLine = flight::kSlotBytes - 1;

  Event(const char* name, Kind kind, Severity sev, const char* component) noexcept;

  Event& kv(const char* key, u64 v) noexcept;
  Event& kv(const char* key, i64 v) noexcept;
  Event& kv(const char* key, u32 v) noexcept { return kv(key, static_cast<u64>(v)); }
  Event& kv(const char* key, int v) noexcept { return kv(key, static_cast<i64>(v)); }
  Event& kv(const char* key, const char* v) noexcept;
  Event& kv(const char* key, const std::string& v) noexcept { return kv(key, v.c_str()); }

  /// Close the JSON object (Timing events gain ts_us/tid here) and hand
  /// the line to EventLog::global().publish().
  void emit() noexcept;

 private:
  bool put(const char* s, std::size_t n) noexcept;
  bool put(const char* s) noexcept { return put(s, std::strlen(s)); }
  bool put_string(const char* s) noexcept;
  Event& number(const char* key, const char* digits, std::size_t n) noexcept;

  char buf_[kMaxLine];
  std::size_t len_ = 0;
  std::size_t cap_ = kMaxLine - 1;  // payload room: '}' and the Timing tail reserved
  bool full_ = false;               // a field was cut; later fields are dropped
  Kind kind_;
  u64 ts_us_ = 0;
  u32 tid_ = 0;
};

/// RAII trace span: while obs::enabled(), a Timing "span.begin" event
/// on construction and the matching "span.end" on destruction. Use via
/// HJ_SPAN below.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) noexcept : SpanGuard(name, 0, false) {}
  SpanGuard(const char* name, u64 n) noexcept : SpanGuard(name, n, true) {}
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() {
    if (name_ != nullptr) end();
  }

 private:
  SpanGuard(const char* name, u64 n, bool has_n) noexcept
      : name_(enabled() ? name : nullptr) {
    if (name_ != nullptr) begin(n, has_n);
  }
  void begin(u64 n, bool has_n) noexcept;
  void end() noexcept;

  const char* name_;  // null when the span was opened with obs off
};

}  // namespace hj::obs

#define HJ_OBS_CONCAT_INNER(a, b) a##b
#define HJ_OBS_CONCAT(a, b) HJ_OBS_CONCAT_INNER(a, b)

#ifndef HJ_DISABLE_OBS
/// Open a named trace span for the rest of the enclosing scope.
#define HJ_SPAN(name) \
  ::hj::obs::SpanGuard HJ_OBS_CONCAT(hj_obs_span_, __LINE__){name}
/// Span with a numeric payload, rendered as args.n in the trace viewer.
#define HJ_SPAN_N(name, n) \
  ::hj::obs::SpanGuard HJ_OBS_CONCAT(hj_obs_span_, __LINE__){ \
      name, static_cast<::hj::u64>(n)}
#else
#define HJ_SPAN(name) ((void)0)
#define HJ_SPAN_N(name, n) ((void)0)
#endif
