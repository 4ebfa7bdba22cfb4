// Trace spans as events: HJ_SPAN emits span.begin/span.end Timing lines
// into the event capture, spans nest by begin/end order, and
// EventLog::trace_json() renders the capture as a Chrome trace_event
// document. The span tree of a fixed seeded workload is pinned against
// the tree the former separate span recorder produced.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/planner.hpp"
#include "core/recovery.hpp"
#include "hypersim/network.hpp"
#include "obs/obs.hpp"

namespace hj::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventLog::global().clear();
#ifndef HJ_DISABLE_OBS
    was_ = enabled();
    set_enabled(true);
#endif
  }
  void TearDown() override {
#ifndef HJ_DISABLE_OBS
    set_enabled(was_);
#endif
    EventLog::global().clear();
  }
  bool was_ = false;
};

#ifndef HJ_DISABLE_OBS

std::size_t count(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = s.find(needle); at != std::string::npos;
       at = s.find(needle, at + 1))
    ++n;
  return n;
}

TEST_F(TraceTest, SpanGuardRecordsCompleteEvent) {
  // A complete span is a begin/end event pair.
  {
    HJ_SPAN("outer");
  }
  const std::vector<std::string> events = EventLog::global().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].rfind("{\"ev\":\"span.begin\"", 0), 0u) << events[0];
  EXPECT_EQ(events[1].rfind("{\"ev\":\"span.end\"", 0), 0u) << events[1];
  for (const std::string& e : events) {
    EXPECT_NE(e.find("\"kind\":\"timing\""), std::string::npos) << e;
    EXPECT_NE(e.find("\"name\":\"outer\""), std::string::npos) << e;
    EXPECT_NE(e.find(",\"ts_us\":"), std::string::npos) << e;
  }
  const std::string js = EventLog::global().trace_json();
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("{\"name\": \"outer\", \"cat\": \"hj\", \"ph\": \"B\""),
            std::string::npos)
      << js;
  EXPECT_NE(js.find("{\"name\": \"outer\", \"cat\": \"hj\", \"ph\": \"E\""),
            std::string::npos)
      << js;
}

TEST_F(TraceTest, NestedSpansContainEachOther) {
  {
    HJ_SPAN("parent");
    {
      HJ_SPAN_N("child", 42);
    }
  }
  // Begin/end order is the nesting: parent opens first and closes last.
  const std::string js = EventLog::global().trace_json();
  const auto parent_b = js.find("\"parent\", \"cat\": \"hj\", \"ph\": \"B\"");
  const auto child_b = js.find("\"child\", \"cat\": \"hj\", \"ph\": \"B\"");
  const auto child_e = js.find("\"child\", \"cat\": \"hj\", \"ph\": \"E\"");
  const auto parent_e = js.find("\"parent\", \"cat\": \"hj\", \"ph\": \"E\"");
  ASSERT_NE(parent_b, std::string::npos) << js;
  ASSERT_NE(parent_e, std::string::npos) << js;
  EXPECT_LT(parent_b, child_b);
  EXPECT_LT(child_b, child_e);
  EXPECT_LT(child_e, parent_e);
  // args.n rides on the begin event only.
  EXPECT_EQ(count(js, "\"args\": {\"n\": 42}"), 1u) << js;
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  {
    HJ_SPAN("ghost");
    HJ_SPAN_N("ghost_n", 1);
  }
  set_enabled(true);
  EXPECT_TRUE(EventLog::global().events().empty());
}

TEST_F(TraceTest, ClearEmptiesTheLog) {
  { HJ_SPAN("gone"); }
  ASSERT_FALSE(EventLog::global().events().empty());
  EventLog::global().clear();
  EXPECT_TRUE(EventLog::global().events().empty());
  EXPECT_NE(EventLog::global().trace_json().find("\"traceEvents\": []"),
            std::string::npos);
}

TEST_F(TraceTest, JsonEscapesNames) {
  { HJ_SPAN("a \"quoted\" \\ name"); }
  const std::string js = EventLog::global().trace_json();
  EXPECT_EQ(count(js, "{\"name\": \"a \\\"quoted\\\" \\\\ name\""), 2u) << js;
}

TEST_F(TraceTest, OnlySpanEventsAreRendered) {
  Event("serve.request", Kind::Timing, Severity::Info, "serve")
      .kv("name", "not-a-span")
      .emit();
  { HJ_SPAN("real"); }
  const std::string js = EventLog::global().trace_json();
  EXPECT_EQ(js.find("not-a-span"), std::string::npos) << js;
  EXPECT_EQ(count(js, "\"real\""), 2u) << js;
}

/// One span in preorder: its name, nesting depth on its thread, and the
/// HJ_SPAN_N payload when it has one.
struct SpanRow {
  std::string name;
  int depth;
  std::optional<u64> n;
  bool operator==(const SpanRow&) const = default;
};

void PrintTo(const SpanRow& r, std::ostream* os) {
  *os << "{" << r.name << ", " << r.depth;
  if (r.n) *os << ", n=" << *r.n;
  *os << "}";
}

/// The span tree in the capture, rebuilt from begin/end order alone.
std::vector<SpanRow> span_tree(const std::vector<std::string>& events,
                               bool& balanced) {
  std::vector<SpanRow> rows;
  int depth = 0;
  balanced = true;
  for (const std::string& e : events) {
    if (e.rfind("{\"ev\":\"span.end\"", 0) == 0) {
      balanced = balanced && depth > 0;
      --depth;
      continue;
    }
    if (e.rfind("{\"ev\":\"span.begin\"", 0) != 0) continue;
    const std::size_t name_at = e.find(",\"name\":\"") + 9;
    SpanRow row{e.substr(name_at, e.find('"', name_at) - name_at), depth++,
                std::nullopt};
    if (const std::size_t n_at = e.find(",\"n\":"); n_at != std::string::npos)
      row.n = std::stoull(e.substr(n_at + 5));
    rows.push_back(std::move(row));
  }
  balanced = balanced && depth == 0;
  return rows;
}

// Oracle: this tree was recorded from the former obs::Trace recorder
// (each span logged in open order with its depth) on the same workload
// at one thread. Moving spans into the event log must not change which
// spans open, where they nest, or what they carry.
TEST_F(TraceTest, SeededWorkloadSpanTreeMatchesRecordedOracle) {
  par::set_thread_override(1);
  const std::vector<Shape> shapes = {Shape{{3, 5}},    Shape{{5, 3}},
                                     Shape{{4, 6, 7}}, Shape{{2, 3, 5}},
                                     Shape{{7, 9}},    Shape{{6, 6, 10}}};
  const std::vector<PlanResult> plans =
      plan_batch(shapes, {}, nullptr, nullptr);
  ASSERT_TRUE(sim::simulate_stencil(*plans[0].embedding).consistent());
  const PlanResult& p = plans[2];
  recovery::RecoveryController rc(shapes[2]);
  FaultSet faults;
  faults.fail_node(p.embedding->map(0));
  const recovery::RepairResult r =
      rc.repair(*p.embedding, faults, p.report.dilation,
                recovery::inner_factor_dim(*p.embedding));
  par::set_thread_override(0);
  ASSERT_TRUE(r.ok);

  const std::vector<SpanRow> expected = {
      {"plan_batch", 0, 6},
      {"plan_batch.plan_canonical", 1, 5},
      {"par.run_chunks", 2, 5},
      {"plan", 3, std::nullopt},
      {"plan", 3, std::nullopt},
      {"plan", 3, std::nullopt},
      {"plan", 3, std::nullopt},
      {"plan", 3, std::nullopt},
      {"plan_batch.relabel", 1, std::nullopt},
      {"par.run_chunks", 2, 1},
      {"sim.run", 0, 44},
      {"recovery.repair", 0, std::nullopt},
      {"recovery.reroute", 1, std::nullopt},
      {"recovery.migrate", 1, std::nullopt},
      {"recovery.replan", 1, std::nullopt},
      {"plan_avoiding", 2, std::nullopt},
      {"plan", 3, std::nullopt},
  };
  bool balanced = false;
  EXPECT_EQ(span_tree(EventLog::global().events(), balanced), expected);
  EXPECT_TRUE(balanced);
  EXPECT_EQ(EventLog::global().dropped(), 0u);
  const std::string js = EventLog::global().trace_json();
  EXPECT_EQ(count(js, "\"ph\": \"B\""), expected.size());
  EXPECT_EQ(count(js, "\"ph\": \"E\""), expected.size());
}

#else  // HJ_DISABLE_OBS

TEST_F(TraceTest, MacrosCompileToNothing) {
  HJ_SPAN("noop");
  HJ_SPAN_N("noop_n", 3);
  EXPECT_TRUE(EventLog::global().events().empty());
}

#endif

}  // namespace
}  // namespace hj::obs
