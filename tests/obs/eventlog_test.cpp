// Structured event log contract tests: the exact one-line JSON shape,
// deterministic FNV-1a event ids, the Kind contract (Timing lines carry
// ts_us/tid, Deterministic lines never do), escaping and truncation
// invariants, the bounded in-memory capture, and the --events-out
// stream's parseable-tail guarantee.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace hj {
namespace {

#ifndef HJ_DISABLE_OBS

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "hj_eventlog_" + tag;
}

std::string eid_hex(const char* name) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", obs::event_id(name));
  return buf;
}

/// Capture is only live while obs::enabled(); scope it per test.
struct CaptureScope {
  CaptureScope() {
    obs::set_enabled(true);
    obs::EventLog::global().clear();
  }
  ~CaptureScope() {
    obs::EventLog::global().clear();
    obs::set_enabled(false);
  }
};

TEST(EventId, IsFnv1aAndStable) {
  // FNV-1a basis and a hand-computed step, locked down so "eid" values
  // in archived logs never silently change meaning.
  static_assert(obs::event_id("") == 2166136261u);
  static_assert(obs::event_id("a") == (2166136261u ^ 'a') * 16777619u);
  static_assert(obs::event_id("serve.request") !=
                obs::event_id("serve.reply"));
  EXPECT_EQ(eid_hex(""), "811c9dc5");
}

TEST(EventLog, DeterministicLineHasExactFlatJsonShape) {
  CaptureScope scope;
  obs::Event("test.ev", obs::Kind::Deterministic, obs::Severity::Info, "test")
      .kv("a", u64{7})
      .kv("b", "x")
      .kv("c", i64{-3})
      .emit();
  const std::vector<std::string> events = obs::EventLog::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0],
            "{\"ev\":\"test.ev\",\"eid\":\"" + eid_hex("test.ev") +
                "\",\"kind\":\"det\",\"sev\":\"info\",\"comp\":\"test\","
                "\"a\":7,\"b\":\"x\",\"c\":-3}");
}

TEST(EventLog, TimingLinesCarryClockFieldsDeterministicLinesNever) {
  CaptureScope scope;
  obs::Event("t.ev", obs::Kind::Timing, obs::Severity::Warn, "test").emit();
  obs::Event("d.ev", obs::Kind::Deterministic, obs::Severity::Error, "test")
      .emit();
  const std::vector<std::string> events = obs::EventLog::global().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].find("\"kind\":\"timing\""), std::string::npos);
  EXPECT_NE(events[0].find("\"sev\":\"warn\""), std::string::npos);
  EXPECT_NE(events[0].find(",\"ts_us\":"), std::string::npos);
  EXPECT_NE(events[0].find(",\"tid\":"), std::string::npos);
  EXPECT_NE(events[1].find("\"sev\":\"error\""), std::string::npos);
  EXPECT_EQ(events[1].find("ts_us"), std::string::npos);
  EXPECT_EQ(events[1].find("tid"), std::string::npos);
  // deterministic_text() filters to det lines only.
  const std::string det = obs::EventLog::global().deterministic_text();
  EXPECT_EQ(det.find("t.ev"), std::string::npos);
  EXPECT_NE(det.find("d.ev"), std::string::npos);
}

TEST(EventLog, EscapesQuotesBackslashesAndControlBytes) {
  CaptureScope scope;
  obs::Event("esc", obs::Kind::Deterministic, obs::Severity::Info, "test")
      .kv("k", "a\"b\\c\x01" "d")
      .emit();
  const std::vector<std::string> events = obs::EventLog::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].find("\"k\":\"a\\\"b\\\\c d\""), std::string::npos)
      << events[0];
}

/// One flat JSON object: opens with '{', closes with '}', and every
/// string is closed — quotes balance once escaped ones are skipped, and
/// no backslash dangles at a cut.
::testing::AssertionResult well_formed(const std::string& line) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}')
    return ::testing::AssertionFailure() << "not one object: " << line;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\') {
      if (!in_string || i + 1 >= line.size() - 1)
        return ::testing::AssertionFailure() << "dangling \\ at " << i << ": " << line;
      ++i;
    } else if (line[i] == '"') {
      in_string = !in_string;
    }
  }
  if (in_string)
    return ::testing::AssertionFailure() << "unterminated string: " << line;
  return ::testing::AssertionSuccess();
}

TEST(EventLog, OverlongPayloadIsTruncatedButStillClosed) {
  CaptureScope scope;
  obs::Event("big", obs::Kind::Deterministic, obs::Severity::Info, "test")
      .kv("k", std::string(2 * obs::Event::kMaxLine, 'z'))
      .kv("after", u64{1})
      .emit();
  // A value of escape pairs: the cut must not split one.
  obs::Event("esc", obs::Kind::Deterministic, obs::Severity::Info, "test")
      .kv("k", std::string(2 * obs::Event::kMaxLine, '\\'))
      .emit();
  obs::Event("esc", obs::Kind::Deterministic, obs::Severity::Info, "test")
      .kv("pad", "p")
      .kv("k", std::string(2 * obs::Event::kMaxLine, '\\'))
      .emit();
  const std::vector<std::string> events = obs::EventLog::global().events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].size(), obs::Event::kMaxLine);
  EXPECT_EQ(events[0].substr(events[0].size() - 2), "\"}");
  EXPECT_EQ(events[0].find("after"), std::string::npos);  // dropped past the cut
  for (const std::string& e : events) {
    EXPECT_LE(e.size(), obs::Event::kMaxLine);
    EXPECT_EQ(e.substr(e.size() - 2), "\"}") << e;
    EXPECT_TRUE(well_formed(e));
  }
}

TEST(EventLog, OverlongTimingLineKeepsItsClockFields) {
  CaptureScope scope;
  obs::Event("big", obs::Kind::Timing, obs::Severity::Info, "test")
      .kv("id", u64{7})
      .kv("shape", std::string(2 * obs::Event::kMaxLine, 'x'))
      .kv("us", u64{5})
      .emit();
  const std::vector<std::string> events = obs::EventLog::global().events();
  ASSERT_EQ(events.size(), 1u);
  const std::string& e = events[0];
  EXPECT_LE(e.size(), obs::Event::kMaxLine);
  EXPECT_TRUE(well_formed(e));
  EXPECT_NE(e.find(",\"id\":7,\"shape\":\"xxx"), std::string::npos) << e;
  EXPECT_EQ(e.find("\"us\""), std::string::npos) << e;
  EXPECT_NE(e.find("\",\"ts_us\":"), std::string::npos) << e;
  EXPECT_NE(e.find(",\"tid\":"), std::string::npos) << e;
}

TEST(EventLog, LineCapFitsOneFlightSlot) {
  static_assert(obs::Event::kMaxLine + 1 == obs::flight::kSlotBytes);
  // An overlong line lands byte-identical, and parseable, in the stream
  // and in the ring: both sinks share the one cap.
  const std::string ring = temp_path("cap.ring");
  const std::string path = temp_path("cap.jsonl");
  ASSERT_TRUE(obs::flight::init_file(ring, /*slots=*/4));
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  obs::EventLog::global().set_stream_fd(fd);
  std::string shape;
  for (int i = 0; i < 30; ++i) shape += "1x";
  shape += "3x5x7";
  obs::Event("serve.reply", obs::Kind::Timing, obs::Severity::Info, "serve")
      .kv("id", u64{1})
      .kv("shape", shape)
      .kv("verdict", "served-cold")
      .kv("us", u64{123456})
      .kv("queue_us", u64{12})
      .kv("lookup_us", u64{3})
      .kv("verify_us", u64{4567})
      .kv("plan_us", u64{118000})
      .emit();
  obs::EventLog::global().set_stream_fd(-1);
  ::close(fd);

  std::ifstream in(path);
  std::string streamed;
  ASSERT_TRUE(std::getline(in, streamed));
  const std::vector<std::string> ringed = obs::flight::read_ring(ring);
  ASSERT_EQ(ringed.size(), 1u);
  EXPECT_EQ(ringed[0], streamed);
  EXPECT_TRUE(well_formed(streamed));
  EXPECT_LE(streamed.size(), obs::Event::kMaxLine);
  std::remove(path.c_str());
  std::remove(ring.c_str());
}

TEST(EventLog, CaptureIsBoundedAndCountsDrops) {
  CaptureScope scope;
  const std::size_t extra = 10;
  for (std::size_t i = 0; i < obs::EventLog::kCaptureCap + extra; ++i)
    obs::Event("cap", obs::Kind::Deterministic, obs::Severity::Debug, "test")
        .emit();
  EXPECT_EQ(obs::EventLog::global().events().size(),
            obs::EventLog::kCaptureCap);
  EXPECT_EQ(obs::EventLog::global().dropped(), extra);
  obs::EventLog::global().clear();
  EXPECT_EQ(obs::EventLog::global().dropped(), 0u);
}

TEST(EventLog, StreamFdGetsOneTerminatedLinePerEvent) {
  const std::string path = temp_path("stream.jsonl");
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  obs::EventLog::global().set_stream_fd(fd);
  EXPECT_TRUE(obs::events_on());  // a stream alone is a live sink
  obs::Event("s.one", obs::Kind::Deterministic, obs::Severity::Info, "test")
      .kv("n", u64{1})
      .emit();
  obs::Event("s.two", obs::Kind::Timing, obs::Severity::Info, "test").emit();
  obs::EventLog::global().set_stream_fd(-1);
  ::close(fd);

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  EXPECT_NE(lines[0].find("\"ev\":\"s.one\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ev\":\"s.two\""), std::string::npos);
  std::remove(path.c_str());
}

#endif  // HJ_DISABLE_OBS

}  // namespace
}  // namespace hj
