// Always-on flight recorder: ring wrap accounting, the post-mortem dump
// path, and the acceptance contract — a crafted invariant violation must
// produce a `.flight.json` on disk that parses as valid Chrome-trace JSON
// and carries the event window that led up to the violation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "obs/bus.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/invariants.hpp"
#include "obs/json.hpp"
#include "sim/engine.hpp"

namespace pinsim::obs {
namespace {

Event ev(EventKind kind, std::uint32_t node = 1) {
  Event e;
  e.kind = kind;
  e.node = node;
  return e;
}

Event pin(EventKind kind, std::uint32_t region, std::uint64_t frontier,
          std::uint64_t total) {
  Event e = ev(kind);
  e.region = region;
  e.offset = frontier;
  e.len = total;
  return e;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

FlightRecorder::Config tmp_config(const std::string& stem,
                                  std::size_t capacity = 4096) {
  FlightRecorder::Config cfg;
  cfg.capacity = capacity;
  cfg.dump_prefix = ::testing::TempDir() + stem;
  return cfg;
}

TEST(FlightRecorder, RingKeepsTheMostRecentWindowAndCountsDrops) {
  FlightRecorder fr(tmp_config("wrap", /*capacity=*/16));
  ASSERT_EQ(fr.capacity(), 16u);
  for (std::uint32_t i = 0; i < 40; ++i) {
    Event e = ev(EventKind::kPktTx, /*node=*/i);
    e.time = i;
    fr.on_event(e);
  }
  EXPECT_EQ(fr.recorded(), 40u);
  EXPECT_EQ(fr.dropped(), 24u);
  EXPECT_EQ(fr.size(), 16u);
  // The rendered window holds exactly the last 16 events, oldest first.
  const std::string body = fr.render("test");
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_EQ(body.find("\"t_ns\":23"), std::string::npos);
  const auto first_kept = body.find("\"t_ns\":24");
  const auto last_kept = body.find("\"t_ns\":39");
  EXPECT_NE(first_kept, std::string::npos) << body;
  EXPECT_NE(last_kept, std::string::npos) << body;
  EXPECT_LT(first_kept, last_kept);
}

TEST(FlightRecorder, CapacityFloorsAtSixteen) {
  FlightRecorder fr(tmp_config("floor", /*capacity=*/1));
  EXPECT_EQ(fr.capacity(), 16u);
}

// The acceptance test for the post-mortem path: wire a Bus with the
// invariant checker and the flight recorder (as ObsRig does), feed a
// stream that DMAs into an unpinned page, and require the violation hook
// to leave a loadable `.flight.json` next to nothing else failing.
TEST(FlightRecorder, InvariantViolationDumpsLoadableFlightJson) {
  sim::Engine eng;
  Bus bus(eng);
  FlightRecorder fr(tmp_config("inv"));
  InvariantChecker checker;
  bus.attach(&fr);
  bus.attach(&checker);
  std::string dumped;
  checker.set_violation_hook([&](const InvariantChecker::Violation& v) {
    dumped = fr.dump("invariant: " + v.message);
  });

  bus.emit(pin(EventKind::kPinStart, 7, 0, 8));
  bus.emit(pin(EventKind::kPinPages, 7, 2, 8));
  Event copy = ev(EventKind::kCopyIn);
  copy.region = 7;
  copy.offset = 3 * 4096;  // page 3, frontier 2: unpinned
  copy.len = 4096;
  bus.emit(copy);

  EXPECT_FALSE(checker.ok());
  ASSERT_FALSE(dumped.empty()) << "violation hook did not produce a dump";
  EXPECT_NE(dumped.find(".flight.json"), std::string::npos) << dumped;
  EXPECT_EQ(fr.dump_attempts(), 1u);

  const std::string body = slurp(dumped);
  ASSERT_FALSE(body.empty()) << dumped << " missing or empty";
  // Loadable Chrome-trace JSON: valid syntax, the traceEvents array, and
  // the window that led to the violation (the pin events + the bad copy).
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"pin_start\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"frontier_pages\":2"), std::string::npos) << body;
  EXPECT_NE(body.find("\"name\":\"copy_in\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"reason\":\"invariant: "), std::string::npos);
  std::remove(dumped.c_str());
}

TEST(FlightRecorder, AutoDumpsOnAbortKinds) {
  FlightRecorder fr(tmp_config("abort"));
  Event e = ev(EventKind::kSendAbort);
  e.seq = 42;
  fr.on_event(e);
  EXPECT_EQ(fr.dump_attempts(), 1u);
  const std::string path =
      ::testing::TempDir() + std::string("abort-1.flight.json");
  const std::string body = slurp(path);
  ASSERT_FALSE(body.empty()) << path << " missing";
  EXPECT_TRUE(json_valid(body)) << body;
  EXPECT_NE(body.find("\"reason\":\"auto: send_abort\""), std::string::npos)
      << body;
  std::remove(path.c_str());
}

TEST(FlightRecorder, AutoDumpCanBeDisabled) {
  FlightRecorder::Config cfg = tmp_config("quiet");
  cfg.expected_aborts = ~std::uint32_t{0};  // every cause expected
  FlightRecorder fr(cfg);
  fr.on_event(ev(EventKind::kSendAbort));
  fr.on_event(ev(EventKind::kRecvAbort));
  fr.on_event(ev(EventKind::kLifePeerDead));
  EXPECT_EQ(fr.dump_attempts(), 0u);
}

TEST(FlightRecorder, DumpCapCountsAttemptsButStopsWritingFiles) {
  FlightRecorder::Config cfg = tmp_config("cap");
  cfg.max_dumps = 2;
  FlightRecorder fr(cfg);
  fr.on_event(ev(EventKind::kPktTx));
  EXPECT_FALSE(fr.dump("one").empty());
  EXPECT_FALSE(fr.dump("two").empty());
  // Over the cap: the attempt is counted (deterministic report counters)
  // but no file is written.
  EXPECT_TRUE(fr.dump("three").empty());
  EXPECT_EQ(fr.dump_attempts(), 3u);
  const std::string third =
      ::testing::TempDir() + std::string("cap-3.flight.json");
  EXPECT_TRUE(slurp(third).empty()) << "dump over the cap wrote " << third;
  for (const char* n : {"cap-1", "cap-2"}) {
    const std::string path =
        ::testing::TempDir() + n + std::string(".flight.json");
    EXPECT_FALSE(slurp(path).empty()) << path;
    std::remove(path.c_str());
  }
}

TEST(FlightRecorder, DigestNamesTheTailEvents) {
  FlightRecorder fr(tmp_config("digest"));
  Event r = ev(EventKind::kRetransmit);
  r.seq = 9;
  r.peer = 2;
  r.offset = 3;
  fr.on_event(r);
  const std::string d = fr.digest("why it died", /*tail=*/4);
  EXPECT_NE(d.find("why it died"), std::string::npos) << d;
  EXPECT_NE(d.find("retransmit"), std::string::npos) << d;
  EXPECT_NE(d.find("retries=3"), std::string::npos) << d;
}

// The event-kind table round-trips through the recorder: an event with a
// distinct value in every field shows exactly its row's named slots, each
// holding the field it names, in both the JSON dump and the digest.
TEST(FlightRecorder, EveryKindShowsExactlyItsRowSlots) {
  const auto field = [](EventSlot s) -> std::uint64_t {
    switch (s) {
      case EventSlot::none: break;
      case EventSlot::peer: return 11;
      case EventSlot::pkt: return 12;
      case EventSlot::seq: return 13;
      case EventSlot::region: return 14;
      case EventSlot::offset: return 15;
      case EventSlot::len: return 16;
    }
    return 0;
  };
  FlightRecorder::Config cfg = tmp_config("table");
  cfg.max_dumps = 0;
  cfg.expected_aborts = ~std::uint32_t{0};
  for (std::size_t k = 0; k < std::size(kEventKindRows); ++k) {
    const auto kind = static_cast<EventKind>(k);
    const EventKindRow& row = event_kind_row(kind);
    Event e = ev(kind, /*node=*/3);
    e.time = 7000;
    e.ep = 4;
    e.peer_ep = 5;
    e.label = "label";
    e.peer = 11;  // the values `field` gives each slot
    e.pkt = 12;
    e.seq = 13;
    e.region = 14;
    e.offset = 15;
    e.len = 16;
    std::string args = "\"args\":{\"t_ns\":7000";
    std::string line = std::string("  t=7000 n3/e4 ") + row.name;
    for (std::size_t i = 0; i < 3; ++i) {
      if (row.slot[i] == EventSlot::none) continue;
      const std::string v = std::to_string(field(row.slot[i]));
      args += ",\"" + std::string(row.slot_name[i]) + "\":" + v;
      line += " " + std::string(row.slot_name[i]) + "=" + v;
    }
    args += "}}";
    FlightRecorder fr(cfg);
    fr.on_event(e);
    const std::string body = fr.render("table");
    EXPECT_TRUE(json_valid(body)) << body;
    EXPECT_NE(body.find("{\"name\":\"" + std::string(row.name) + "\""),
              std::string::npos)
        << body;
    const std::size_t at = body.find("\"args\":");
    ASSERT_NE(at, std::string::npos) << body;
    EXPECT_EQ(body.substr(at, body.find("}}", at) + 2 - at), args) << row.name;
    const std::string d = fr.digest("table");
    EXPECT_EQ(d.substr(d.find("\n  t=") + 1), line + "\n") << row.name;
  }
}

TEST(FlightRecorder, TableNamesAreUniqueAndNonEmpty) {
  std::set<std::string> kinds;
  for (const EventKindRow& row : kEventKindRows) {
    EXPECT_STRNE(row.name, "");
    EXPECT_TRUE(kinds.insert(row.name).second) << row.name;
    std::set<std::string> slots;
    for (std::size_t i = 0; i < 3; ++i) {
      // A used slot has a name, unique within its row; an unused one none.
      const std::string slot_name = row.slot_name[i];
      EXPECT_EQ(row.slot[i] == EventSlot::none, slot_name.empty())
          << row.name << " slot " << i;
      if (!slot_name.empty()) {
        EXPECT_TRUE(slots.insert(slot_name).second)
            << row.name << " " << slot_name;
      }
    }
  }
  EXPECT_EQ(kinds.size(), std::size(kEventKindRows));
}

TEST(FlightRecorder, ReportJsonIsDeterministicCounters) {
  FlightRecorder::Config cfg = tmp_config("json", /*capacity=*/16);
  cfg.max_dumps = 0;  // attempts still count; nothing hits the disk
  FlightRecorder fr(cfg);
  for (int i = 0; i < 20; ++i) fr.on_event(ev(EventKind::kPktRx));
  (void)fr.dump("counted, not written");
  const std::string j = fr.json();
  EXPECT_TRUE(json_valid(j)) << j;
  EXPECT_EQ(j,
            "{\"capacity\":16,\"recorded\":20,\"dropped\":4,"
            "\"dump_attempts\":1}");
}

}  // namespace
}  // namespace pinsim::obs
