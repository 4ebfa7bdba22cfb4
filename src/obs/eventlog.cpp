#include "obs/eventlog.hpp"

#include <unistd.h>

#include <atomic>
#include <mutex>
#include <string_view>

namespace hj::obs {
namespace {

// Capture state: a mutex-protected vector is fine here — capture is only
// active when obs::enabled(), i.e. in tests and explicitly observed
// runs, never on the default serve hot path.
struct Capture {
  std::mutex mu;
  std::vector<std::pair<Kind, std::string>> lines;
  u64 dropped = 0;
};

Capture& capture() {
  static Capture c;
  return c;
}

std::atomic<int> g_stream_fd{-1};

/// Decimal digits of `v` into `out` (at least 20 bytes); returns the count.
std::size_t format_u64(u64 v, char* out) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

/// The raw JSON value after `key` (given as `,"name":`) in an event line
/// built by Event, or "" when absent. The leading comma makes the match
/// exact: inside an escaped string value every '"' follows a backslash.
std::string_view field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + key.size();
  std::size_t to = from;
  if (to < line.size() && line[to] == '"') {
    for (++to; to < line.size() && line[to] != '"'; ++to)
      if (line[to] == '\\') ++to;
    ++to;  // the closing quote
  } else {
    while (to < line.size() && line[to] != ',' && line[to] != '}') ++to;
  }
  return to <= line.size() ? line.substr(from, to - from) : std::string_view{};
}

constexpr std::string_view kSpanBegin = "{\"ev\":\"span.begin\"";
constexpr std::string_view kSpanEnd = "{\"ev\":\"span.end\"";

}  // namespace

const char* severity_name(Severity s) noexcept {
  switch (s) {
    case Severity::Debug: return "debug";
    case Severity::Info: return "info";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "?";
}

EventLog& EventLog::global() {
  static EventLog log;
  return log;
}

void EventLog::publish(Kind kind, const char* line, std::size_t len) {
  flight::note(line, len);
  const int fd = g_stream_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    // One write(2) per line (the line already ends without '\n'; build a
    // terminated copy on the stack) so a killed process tears at most
    // the final line and the tail stays parseable.
    char out[Event::kMaxLine + 1];
    const std::size_t n = len < Event::kMaxLine ? len : Event::kMaxLine;
    std::memcpy(out, line, n);
    out[n] = '\n';
    (void)!::write(fd, out, n + 1);
  }
  if (enabled()) {
    Capture& c = capture();
    std::lock_guard<std::mutex> lock(c.mu);
    if (c.lines.size() < kCaptureCap)
      c.lines.emplace_back(kind, std::string(line, len));
    else
      ++c.dropped;
  }
}

void EventLog::set_stream_fd(int fd) noexcept {
  g_stream_fd.store(fd, std::memory_order_release);
}

bool EventLog::stream_active() const noexcept {
  return g_stream_fd.load(std::memory_order_acquire) >= 0;
}

std::vector<std::string> EventLog::events() const {
  Capture& c = capture();
  std::lock_guard<std::mutex> lock(c.mu);
  std::vector<std::string> out;
  out.reserve(c.lines.size());
  for (const auto& [kind, line] : c.lines) out.push_back(line);
  return out;
}

std::string EventLog::deterministic_text() const {
  Capture& c = capture();
  std::lock_guard<std::mutex> lock(c.mu);
  std::string out;
  for (const auto& [kind, line] : c.lines)
    if (kind == Kind::Deterministic) {
      out += line;
      out += '\n';
    }
  return out;
}

u64 EventLog::dropped() const noexcept {
  Capture& c = capture();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.dropped;
}

void EventLog::clear() {
  Capture& c = capture();
  std::lock_guard<std::mutex> lock(c.mu);
  c.lines.clear();
  c.dropped = 0;
}

std::string EventLog::trace_json() const {
  Capture& c = capture();
  std::lock_guard<std::mutex> lock(c.mu);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const auto& [kind, line] : c.lines) {
    const std::string_view ln = line;
    const bool begin = ln.starts_with(kSpanBegin);
    if (!begin && !ln.starts_with(kSpanEnd)) continue;
    const std::string_view name = field(ln, ",\"name\":");
    const std::string_view ts = field(ln, ",\"ts_us\":");
    const std::string_view tid = field(ln, ",\"tid\":");
    if (name.empty() || ts.empty() || tid.empty()) continue;
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"name\": ";
    out += name;
    out += begin ? ", \"cat\": \"hj\", \"ph\": \"B\", \"ts\": "
                 : ", \"cat\": \"hj\", \"ph\": \"E\", \"ts\": ";
    out += ts;
    out += ", \"pid\": 1, \"tid\": ";
    out += tid;
    if (const std::string_view n = field(ln, ",\"n\":"); begin && !n.empty()) {
      out += ", \"args\": {\"n\": ";
      out += n;
      out += '}';
    }
    out += '}';
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

Event::Event(const char* name, Kind kind, Severity sev, const char* component) noexcept
    : kind_(kind) {
  if (kind == Kind::Timing) {
    // Reserve the ts_us/tid tail now, so truncation never eats it.
    ts_us_ = now_us();
    tid_ = thread_ordinal();
    char digits[20];
    cap_ -= std::strlen(",\"ts_us\":") + format_u64(ts_us_, digits) +
            std::strlen(",\"tid\":") + format_u64(tid_, digits);
  }
  put("{\"ev\":");
  put_string(name);
  // Fixed-width hex of the FNV-1a id.
  char eid[9];
  const u32 id = event_id(name);
  for (int i = 0; i < 8; ++i) eid[i] = "0123456789abcdef"[(id >> (28 - 4 * i)) & 0xf];
  eid[8] = '\0';
  kv("eid", eid);
  kv("kind", kind == Kind::Deterministic ? "det" : "timing");
  kv("sev", severity_name(sev));
  kv("comp", component);
}

Event& Event::number(const char* key, const char* digits, std::size_t n) noexcept {
  const std::size_t mark = len_;
  if (!(put(",") && put_string(key) && put(":") && put(digits, n))) len_ = mark;
  return *this;
}

Event& Event::kv(const char* key, u64 v) noexcept {
  char digits[20];
  return number(key, digits, format_u64(v, digits));
}

Event& Event::kv(const char* key, i64 v) noexcept {
  char digits[21];
  if (v >= 0) return number(key, digits, format_u64(static_cast<u64>(v), digits));
  digits[0] = '-';
  return number(key, digits,
                1 + format_u64(static_cast<u64>(-(v + 1)) + 1, digits + 1));
}

Event& Event::kv(const char* key, const char* v) noexcept {
  const std::size_t mark = len_;
  if (!(put(",") && put_string(key) && put(":"))) {
    len_ = mark;
    return *this;
  }
  const std::size_t value = len_;
  put_string(v == nullptr ? "" : v);  // an overlong value is cut but closed
  if (len_ == value) len_ = mark;     // not even "" fit: drop the field
  return *this;
}

void Event::emit() noexcept {
  // The Kind contract: Deterministic lines must be pure functions of the
  // workload, so the clock and thread id are Timing-only fields. Their
  // room was reserved at construction.
  if (kind_ == Kind::Timing) {
    cap_ = kMaxLine - 1;
    full_ = false;
    kv("ts_us", ts_us_);
    kv("tid", static_cast<u64>(tid_));
  }
  buf_[len_++] = '}';  // cap_ never exceeds kMaxLine-1, so this byte is reserved
  EventLog::global().publish(kind_, buf_, len_);
}

bool Event::put(const char* s, std::size_t n) noexcept {
  if (full_ || len_ + n > cap_) {
    full_ = true;
    return false;
  }
  std::memcpy(buf_ + len_, s, n);
  len_ += n;
  return true;
}

bool Event::put_string(const char* s) noexcept {
  if (full_ || len_ + 2 > cap_) {
    full_ = true;
    return false;
  }
  buf_[len_++] = '"';
  while (*s != '\0') {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c >= 0x20 && c < 0x80 && c != '"' && c != '\\') {  // plain byte: the common case
      if (len_ + 2 > cap_) {  // keep room for the closing quote
        full_ = true;
        break;
      }
      buf_[len_++] = *s++;
      continue;
    }
    // One whole output unit: an escape pair, a control byte blanked to
    // ' ' (it would break the one-line invariant), or a UTF-8 sequence.
    char unit[4];
    std::size_t in = 1;
    std::size_t out = 1;
    if (c == '"' || c == '\\') {
      unit[0] = '\\';
      unit[1] = *s;
      out = 2;
    } else if (c < 0x20) {
      unit[0] = ' ';
    } else {
      const std::size_t seq = c >= 0xF0 ? 4 : c >= 0xE0 ? 3 : c >= 0xC0 ? 2 : 1;
      for (out = 0; out < seq && s[out] != '\0'; ++out) unit[out] = s[out];
      in = out;
    }
    if (len_ + out + 1 > cap_) {  // keep room for the closing quote
      full_ = true;
      break;
    }
    std::memcpy(buf_ + len_, unit, out);
    len_ += out;
    s += in;
  }
  buf_[len_++] = '"';
  return !full_;
}

void SpanGuard::begin(u64 n, bool has_n) noexcept {
  Event ev("span.begin", Kind::Timing, Severity::Debug, "obs");
  ev.kv("name", name_);
  if (has_n) ev.kv("n", n);
  ev.emit();
}

void SpanGuard::end() noexcept {
  Event("span.end", Kind::Timing, Severity::Debug, "obs").kv("name", name_).emit();
}

}  // namespace hj::obs
