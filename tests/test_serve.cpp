// The serving subsystem: JSON parsing, protocol validation, the bounded
// admission queue, the Server's batching/ordering/overload behavior, the
// worker's frame loop, and the front-end contract both back ends share.
//
// Server tests run with auto_dispatch=false and drive dispatch_pending()
// by hand, so exactly when (and in which batches) queued work executes is
// under test control — admission-order response sequencing, cancellation
// of queued work and overload rejection all become deterministic.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/ipc.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/worker.hpp"

namespace dim::serve {
namespace {

namespace fs = std::filesystem;

// --- JSON parser -----------------------------------------------------------

TEST(ServeJson, ParsesScalarsStringsAndNesting) {
  const JsonValue doc = parse_json(
      R"({"a": 1, "b": -2.5e1, "c": "x\ny\u0041", "d": [true, false, null], "e": {"k": "v"}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("a")->as_u64(), 1u);
  EXPECT_DOUBLE_EQ(doc.get("b")->number, -25.0);
  EXPECT_EQ(doc.get("c")->string, "x\nyA");
  ASSERT_TRUE(doc.get("d")->is_array());
  EXPECT_EQ(doc.get("d")->array.size(), 3u);
  EXPECT_TRUE(doc.get("d")->array[2].is_null());
  EXPECT_EQ(doc.get("e")->get("k")->string, "v");
  EXPECT_EQ(doc.get("missing"), nullptr);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonError);
  EXPECT_THROW(parse_json("{"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": 1,}"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": 01}"), JsonError);      // leading zero
  EXPECT_THROW(parse_json("{\"a\": 1} extra"), JsonError); // trailing bytes
  EXPECT_THROW(parse_json("{\"a\": 1, \"a\": 2}"), JsonError);  // dup key
  EXPECT_THROW(parse_json("\"\\uD800\""), JsonError);  // lone surrogate
}

TEST(ServeJson, DepthLimitStopsRecursiveBombs) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_THROW(parse_json(deep), JsonError);
}

TEST(ServeJson, RejectsInvalidUtf8Sequences) {
  // Raw (unescaped) multi-byte sequences are validated inline; a string
  // that is not well-formed UTF-8 must never survive into a response.
  EXPECT_THROW(parse_json("\"abc\xC3\""), JsonError);    // truncated 2-byte
  EXPECT_THROW(parse_json("\"\x80x\""), JsonError);      // stray continuation
  EXPECT_THROW(parse_json("\"\xC3(\""), JsonError);      // bad continuation
  EXPECT_THROW(parse_json("\"\xC0\xAF\""), JsonError);   // overlong '/'
  EXPECT_THROW(parse_json("\"\xE0\x80\x80\""), JsonError);  // overlong NUL
  EXPECT_THROW(parse_json("\"\xED\xA0\x80\""), JsonError);  // raw surrogate
  EXPECT_THROW(parse_json("\"\xF4\x90\x80\x80\""), JsonError);  // > U+10FFFF
  EXPECT_THROW(parse_json("\"\xFF\""), JsonError);       // invalid lead byte
  // Well-formed 2/3/4-byte sequences pass through byte-for-byte.
  const JsonValue ok = parse_json("\"\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80\"");
  EXPECT_EQ(ok.string, "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80");
}

TEST(ServeJson, RejectsNonFiniteNumberLiterals) {
  // JSON has no NaN/Infinity; accepting them would put unprintable
  // numbers into responses and break round-tripping.
  EXPECT_THROW(parse_json("NaN"), JsonError);
  EXPECT_THROW(parse_json("Infinity"), JsonError);
  EXPECT_THROW(parse_json("-Infinity"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": nan}"), JsonError);
  EXPECT_THROW(parse_json("{\"a\": inf}"), JsonError);
}

TEST(ServeJson, U64BoundaryIsExact) {
  const JsonValue zero = parse_json("0");
  ASSERT_TRUE(zero.is_u64());
  EXPECT_EQ(zero.as_u64(), 0u);
  EXPECT_FALSE(parse_json("-1").is_u64());
  EXPECT_FALSE(parse_json("1.5").is_u64());
  // 2^64 rounds to a double above the representable u64 range.
  EXPECT_FALSE(parse_json("18446744073709551616").is_u64());
}

// --- protocol validation ---------------------------------------------------

TEST(ServeProtocol, ParsesRunRequest) {
  const ParseOutcome o = parse_request(
      R"({"id": 7, "kind": "run", "workload": "crc32", "shape": "config2", "slots": 16, "spec": false})");
  ASSERT_TRUE(o.ok) << o.detail;
  EXPECT_EQ(o.request.kind, RequestKind::kRun);
  EXPECT_EQ(o.request.id.text, "7");
  EXPECT_FALSE(o.request.id.is_string);
  EXPECT_EQ(o.request.workload, "crc32");
  EXPECT_EQ(o.request.shape, "config2");
  EXPECT_EQ(o.request.slots, 16u);
  EXPECT_FALSE(o.request.speculation);
}

TEST(ServeProtocol, SweepAxesDefaultAndValidate) {
  const ParseOutcome o = parse_request(
      R"({"id": "s", "kind": "sweep", "workload": "crc32", "shapes": ["config1", "ideal"]})");
  ASSERT_TRUE(o.ok) << o.detail;
  EXPECT_EQ(o.request.shapes.size(), 2u);
  ASSERT_EQ(o.request.slots_axis.size(), 1u);  // defaulted from `slots`
  EXPECT_EQ(o.request.slots_axis[0], 64u);
  ASSERT_EQ(o.request.spec_axis.size(), 1u);

  EXPECT_FALSE(parse_request(
      R"({"id": 1, "kind": "sweep", "workload": "crc32", "shapes": []})").ok);
  EXPECT_FALSE(parse_request(
      R"({"id": 1, "kind": "sweep", "workload": "crc32", "slots_axis": [0]})").ok);
}

TEST(ServeProtocol, RejectsZeroBudgetWithDedicatedCode) {
  // The satellite bugfix: a zero budget would simulate nothing and then
  // divide the speedup by zero cycles; the parser refuses it outright.
  const ParseOutcome o = parse_request(
      R"({"id": 9, "kind": "run", "workload": "crc32", "budget": 0})");
  ASSERT_FALSE(o.ok);
  EXPECT_EQ(o.error, kErrZeroBudget);
  EXPECT_EQ(o.id.text, "9");
}

TEST(ServeProtocol, MalformedRequestsKeepCorrelatableIds) {
  EXPECT_EQ(parse_request("{nope").error, kErrParse);
  const ParseOutcome no_id = parse_request(R"({"kind": "ping"})");
  ASSERT_FALSE(no_id.ok);
  EXPECT_EQ(no_id.error, kErrBadRequest);
  const ParseOutcome bad_kind =
      parse_request(R"({"id": "x", "kind": "transmogrify"})");
  ASSERT_FALSE(bad_kind.ok);
  EXPECT_EQ(bad_kind.id.text, "x");  // id recovered before the kind check
  const ParseOutcome both = parse_request(
      R"({"id": 1, "kind": "run", "workload": "crc32", "source": "nop"})");
  EXPECT_FALSE(both.ok);
}

TEST(ServeProtocol, AdversarialLinesPinTheParseErrorCode) {
  // The adversarial corpus: every hostile input class maps to the same
  // stable `parse_error` code (clients retry/log on codes, not prose).
  const auto expect_parse_error = [](const std::string& line) {
    const ParseOutcome o = parse_request(line);
    ASSERT_FALSE(o.ok) << line.substr(0, 80);
    EXPECT_EQ(o.error, kErrParse) << line.substr(0, 80);
  };
  // Oversized line: rejected on length alone, before any JSON work.
  std::string big = R"({"id": 1, "kind": "run", "workload": ")";
  big += std::string(kMaxRequestBytes, 'x');
  big += "\"}";
  {
    const ParseOutcome o = parse_request(big);
    ASSERT_FALSE(o.ok);
    EXPECT_EQ(o.error, kErrParse);
    EXPECT_NE(o.detail.find("exceeds"), std::string::npos);
  }
  // Depth bomb.
  std::string bomb = R"({"id": 1, "kind": "run", "workload": )";
  for (int i = 0; i < 200; ++i) bomb += "[";
  expect_parse_error(bomb);
  // Duplicate keys: ambiguous requests are refused, not last-wins.
  expect_parse_error(R"({"id": 1, "id": 2, "kind": "ping"})");
  // Truncated UTF-8 mid-string.
  expect_parse_error("{\"id\": 1, \"kind\": \"run\", \"workload\": \"crc\xC3\"}");
  // Non-finite number literals.
  expect_parse_error(R"({"id": 1, "kind": "run", "workload": "crc32", "budget": NaN})");
  expect_parse_error(R"({"id": 1, "kind": "run", "workload": "crc32", "budget": Infinity})");
  // Truncated document / raw control byte inside a string.
  expect_parse_error(R"({"id": 1, "kind": "run", "workload": "crc)");
  expect_parse_error("{\"id\": 1, \"kind\": \"run\", \"workload\": \"a\x01b\"}");
}

TEST(ServeProtocol, ParsesSchedulingFields) {
  const ParseOutcome o = parse_request(
      R"({"id": 1, "kind": "run", "workload": "crc32", "priority": 9, "deadline_ms": 250})");
  ASSERT_TRUE(o.ok) << o.detail;
  EXPECT_EQ(o.request.priority, 9);
  EXPECT_TRUE(o.request.has_deadline);
  EXPECT_EQ(o.request.deadline_ms, 250u);
  const ParseOutcome d = parse_request(
      R"({"id": 2, "kind": "sweep", "workload": "crc32", "shapes": ["config1"]})");
  ASSERT_TRUE(d.ok) << d.detail;
  EXPECT_EQ(d.request.priority, 0);       // default: lowest urgency
  EXPECT_FALSE(d.request.has_deadline);   // default: no deadline
}

TEST(ServeProtocol, RejectsOutOfRangeSchedulingFields) {
  const ParseOutcome high = parse_request(
      R"({"id": 1, "kind": "run", "workload": "crc32", "priority": 10})");
  ASSERT_FALSE(high.ok);
  EXPECT_EQ(high.error, kErrBadRequest);
  const ParseOutcome negative = parse_request(
      R"({"id": 1, "kind": "run", "workload": "crc32", "deadline_ms": -5})");
  ASSERT_FALSE(negative.ok);
  EXPECT_EQ(negative.error, kErrBadRequest);
  const ParseOutcome text = parse_request(
      R"({"id": 1, "kind": "run", "workload": "crc32", "deadline_ms": "soon"})");
  ASSERT_FALSE(text.ok);
  EXPECT_EQ(text.error, kErrBadRequest);
}

// --- admission queue -------------------------------------------------------

TEST(ServeQueue, AdmissionPopOrderIsEdfWithinStrictPriority) {
  // Pop order is a pure function of the pushed (key, order) pairs:
  // priority dominates, EDF within a priority, deadline-less items after
  // every deadlined one, admission order as the final tiebreak.
  AdmissionQueue<int> q(16);
  const auto now = std::chrono::steady_clock::now();
  const auto key = [&now](int priority, int deadline_ms) {
    ScheduleKey k;
    k.priority = priority;
    if (deadline_ms >= 0) {
      k.has_deadline = true;
      k.deadline = now + std::chrono::milliseconds(deadline_ms);
    }
    return k;
  };
  ASSERT_TRUE(q.try_push(1, key(0, 10)));    // low priority, early deadline
  ASSERT_TRUE(q.try_push(2, key(5, 500)));   // high priority, late deadline
  ASSERT_TRUE(q.try_push(3, key(5, 100)));   // high priority, early deadline
  ASSERT_TRUE(q.try_push(4, key(5, -1)));    // high priority, no deadline
  ASSERT_TRUE(q.try_push(5, key(0, -1)));    // low priority, no deadline
  ASSERT_TRUE(q.try_push(6, key(5, 100)));   // ties 3: admission order wins
  std::vector<int> order;
  int v = 0;
  while (q.try_pop(v)) order.push_back(v);
  EXPECT_EQ(order, (std::vector<int>{3, 6, 2, 4, 1, 5}));
}

TEST(ServeQueue, AdmissionQueueBoundsAndCloseDrain) {
  AdmissionQueue<int> q(2);
  const ScheduleKey k;
  EXPECT_TRUE(q.try_push(1, k));
  EXPECT_TRUE(q.try_push(2, k));
  EXPECT_FALSE(q.try_push(3, k));  // full: the overload signal
  q.close();
  EXPECT_FALSE(q.try_push(4, k));  // closed: no new admissions
  int v = 0;
  EXPECT_TRUE(q.pop(v));   // already-admitted work still drains
  EXPECT_TRUE(q.pop(v));
  EXPECT_FALSE(q.pop(v));  // closed and empty
}

TEST(ServeQueue, AdmissionMpmcStressLosesNothing) {
  // Contention harness (runs under TSan in CI): several producers spin on
  // a deliberately tiny queue while several consumers drain it. Every
  // item pushed must pop exactly once, and close() must release every
  // blocked consumer after the drain.
  AdmissionQueue<uint64_t> q(8);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<uint64_t> pushed_sum{0};
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<uint64_t> popped_count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &pushed_sum, p] {
      const auto now = std::chrono::steady_clock::now();
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t item =
            (static_cast<uint64_t>(p) << 32) | static_cast<uint64_t>(i);
        ScheduleKey key;
        key.priority = i % 10;
        if (i % 3 == 0) {
          key.has_deadline = true;
          key.deadline = now + std::chrono::milliseconds(i % 50);
        }
        while (!q.try_push(item, key)) std::this_thread::yield();
        pushed_sum.fetch_add(item);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &popped_sum, &popped_count] {
      uint64_t item = 0;
      while (q.pop(item)) {
        popped_sum.fetch_add(item);
        popped_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  q.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(popped_count.load(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
  EXPECT_EQ(q.size(), 0u);
}

// --- server ----------------------------------------------------------------

class ServeServerTest : public ::testing::Test {
 protected:
  ServerOptions manual_options() {
    ServerOptions o;
    o.auto_dispatch = false;
    o.worker_threads = 2;
    return o;
  }

  std::shared_ptr<SessionHost::Session> session_into(
      Server& server, std::vector<std::string>& out) {
    return server.open_session(
        [&out](const std::string& line) { out.push_back(line); });
  }
};

TEST_F(ServeServerTest, ImmediateKindsAnswerWithoutDispatch) {
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": 1, "kind": "ping"})");
  session->submit(R"({"id": 2, "kind": "stats"})");
  session->drain();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"id\": 1, \"ok\": true, \"kind\": \"pong\"}\n");
  EXPECT_NE(lines[1].find("\"kind\": \"stats\""), std::string::npos);
  server.shutdown();
}

TEST_F(ServeServerTest, ResponsesEmitInAdmissionOrder) {
  // A queued run sits between two immediate pings: the pings' responses
  // must wait for the run's, preserving FIFO order on the wire.
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": "p1", "kind": "ping"})");
  session->submit(R"({"id": "r", "kind": "run", "workload": "crc32"})");
  session->submit(R"({"id": "p2", "kind": "ping"})");
  EXPECT_EQ(lines.size(), 1u);  // p2's pong is ready but held for order
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\": \"p1\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\": \"r\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"transparent\": true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\": \"p2\""), std::string::npos);
  server.shutdown();
}

TEST_F(ServeServerTest, SweepResponseCarriesEveryCell) {
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(
      R"({"id": 1, "kind": "sweep", "workload": "crc32", "shapes": ["config1", "config2"], "slots_axis": [16, 64]})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"cells\": 4"), std::string::npos);
  EXPECT_NE(lines[0].find("\"label\": \"config1/s16/sp\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"label\": \"config2/s64/sp\""), std::string::npos);
  server.shutdown();
}

TEST_F(ServeServerTest, ResponsesByteIdenticalAcrossWorkerCounts) {
  // The determinism contract: same request stream, any worker count, same
  // bytes. Batched grids go through the SweepEngine, whose results are
  // index-ordered regardless of scheduling.
  const std::vector<std::string> stream = {
      R"({"id": 0, "kind": "sweep", "workload": "crc32", "shapes": ["config1", "config2"], "slots_axis": [8, 64]})",
      R"({"id": 1, "kind": "run", "workload": "bitcount"})",
      R"({"id": 2, "kind": "run", "workload": "crc32", "budget": 20000})",
      R"({"id": 3, "kind": "sweep", "workload": "crc32", "spec_axis": [false, true]})",
  };
  std::vector<std::string> by_workers[2];
  int slot = 0;
  for (unsigned workers : {1u, 4u}) {
    ServerOptions options = manual_options();
    options.worker_threads = workers;
    Server server(options);
    auto session = session_into(server, by_workers[slot]);
    for (const std::string& line : stream) session->submit(line);
    server.dispatch_pending();
    session->drain();
    server.shutdown();
    ++slot;
  }
  ASSERT_EQ(by_workers[0].size(), stream.size());
  EXPECT_EQ(by_workers[0], by_workers[1]);
}

TEST_F(ServeServerTest, BatchCompositionInvisibleInResponses) {
  // One-by-one dispatch vs one combined batch: each request's response
  // depends only on its own slice of the combined grid.
  const std::vector<std::string> stream = {
      R"({"id": "a", "kind": "sweep", "workload": "crc32", "slots_axis": [8, 16]})",
      R"({"id": "b", "kind": "sweep", "workload": "bitcount", "slots_axis": [8, 16]})",
  };
  std::vector<std::string> separate;
  {
    Server server(manual_options());
    auto session = session_into(server, separate);
    for (const std::string& line : stream) {
      session->submit(line);
      server.dispatch_pending();  // every request is its own batch
    }
    session->drain();
    server.shutdown();
  }
  std::vector<std::string> combined;
  {
    Server server(manual_options());
    auto session = session_into(server, combined);
    for (const std::string& line : stream) session->submit(line);
    server.dispatch_pending();  // both drain into one batch
    session->drain();
    server.shutdown();
  }
  EXPECT_EQ(separate, combined);
}

TEST_F(ServeServerTest, OverloadRejectsBeyondQueueCapacity) {
  ServerOptions options = manual_options();
  options.queue_capacity = 1;
  Server server(options);
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": 0, "kind": "run", "workload": "crc32"})");
  session->submit(R"({"id": 1, "kind": "run", "workload": "crc32"})");
  session->submit(R"({"id": 2, "kind": "run", "workload": "crc32"})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"error\": \"overloaded\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"error\": \"overloaded\""), std::string::npos);
  const ServerCounters c = server.counters();
  EXPECT_EQ(c.accepted, 1u);
  EXPECT_EQ(c.rejected_overload, 2u);
  server.shutdown();
}

TEST_F(ServeServerTest, ExpiredDeadlineRejectsAtDispatchWithDedicatedCode) {
  // `deadline_ms: 0` is already expired the instant it is admitted (the
  // dispatcher's check is `now >= deadline`), which makes the rejection
  // deterministic without sleeping. The code is distinct from both
  // `overloaded` and `canceled`: the client asked for a bound and the
  // server could not meet it.
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(
      R"({"id": "late", "kind": "run", "workload": "crc32", "deadline_ms": 0})");
  session->submit(R"({"id": "ok", "kind": "run", "workload": "crc32"})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\": \"late\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"error\": \"deadline_expired\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\": true"), std::string::npos);
  const ServerCounters c = server.counters();
  EXPECT_EQ(c.rejected_deadline, 1u);
  EXPECT_EQ(c.accepted, 2u);  // admitted, then expired at dispatch
  server.shutdown();
}

// A back end that only records execution order: it pops the queue the way
// Server::dispatch_pending does and answers each request with a bare ok.
class ExecutionOrderHost : public SessionHost {
 public:
  ExecutionOrderHost() : SessionHost(16) {}
  void shutdown() override { stop_accepting(); }

  // Executes everything queued; returns the ids in execution order.
  std::vector<std::string> dispatch_pending() {
    std::vector<std::string> order;
    Ticket ticket;
    while (queue_.try_pop(ticket)) {
      if (!pick_up(ticket)) continue;
      order.push_back(ticket.id.text);
      std::ostringstream out;
      write_ok_prefix(out, ticket.id);
      out << "}\n";
      answer(ticket, out.str());
    }
    return order;
  }

 private:
  void write_stats_fields(std::ostream&) const override {}
};

TEST_F(ServeServerTest, SchedulingOrdersExecutionNotResponses) {
  // EDF-within-priority is about *execution* order; responses still emit
  // in admission order. Admitted low-priority first, "first" must
  // nonetheless execute last.
  ExecutionOrderHost host;
  std::vector<std::string> lines;
  auto session =
      host.open_session([&lines](const std::string& line) { lines.push_back(line); });
  session->submit(
      R"({"id": "first", "kind": "run", "workload": "crc32", "priority": 0})");
  session->submit(
      R"({"id": "urgent", "kind": "run", "workload": "crc32", "priority": 9, "deadline_ms": 60000})");
  session->submit(
      R"({"id": "soon", "kind": "run", "workload": "crc32", "priority": 9})");
  const std::vector<std::string> order = host.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 3u);
  // Wire order is admission order...
  EXPECT_NE(lines[0].find("\"id\": \"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\": \"urgent\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\": \"soon\""), std::string::npos);
  // ...but execution order was urgent (p9 + deadline), soon (p9), first (p0).
  EXPECT_EQ(order, (std::vector<std::string>{"urgent", "soon", "first"}));
  host.shutdown();
}

TEST_F(ServeServerTest, CancelStopsQueuedRequestBeforeDispatch) {
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": "victim", "kind": "run", "workload": "crc32"})");
  session->submit(R"({"id": "c", "kind": "cancel", "target": "victim"})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\": \"victim\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"error\": \"canceled\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\": \"cancel\""), std::string::npos);
  EXPECT_EQ(server.counters().canceled, 1u);
  server.shutdown();
}

TEST_F(ServeServerTest, CancelIsConsumedNotSticky) {
  // After a cancel fires, the same id submitted again must run normally.
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": "x", "kind": "run", "workload": "crc32"})");
  session->submit(R"({"id": "c", "kind": "cancel", "target": "x"})");
  server.dispatch_pending();
  session->submit(R"({"id": "x", "kind": "run", "workload": "crc32"})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"error\": \"canceled\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\": true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"transparent\": true"), std::string::npos);
  server.shutdown();
}

TEST_F(ServeServerTest, BudgetedRunReportsHitBudget) {
  // Inline source keeps the budgeted run fast; a small checkpoint interval
  // exercises the chunked run_until loop, and the chunking must not leak
  // into the result (hit_budget, not hit_limit).
  ServerOptions options = manual_options();
  options.checkpoint_interval = 64;
  Server server(options);
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(
      R"({"id": 1, "kind": "run", "source": "main: li $t0, 0\nli $t1, 100000\nloop: addiu $t0, $t0, 1\nbne $t0, $t1, loop\nli $v0, 10\nsyscall\n", "budget": 1000})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"halted\": false"), std::string::npos);
  EXPECT_NE(lines[0].find("\"hit_budget\": true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"budget\": 1000"), std::string::npos);
  server.shutdown();
}

TEST_F(ServeServerTest, RestartWithPersistedStoreRecomputesNothing) {
  // Two server lifetimes over one store directory: the second must serve
  // the identical sweep purely from disk (hits only, zero stores) and
  // produce byte-identical responses.
  const std::string dir =
      (fs::temp_directory_path() / "dimsim-serve-restart-test").string();
  fs::remove_all(dir);
  const std::string sweep =
      R"({"id": "s", "kind": "sweep", "workload": "crc32", "shapes": ["config1", "config2"]})";

  std::vector<std::string> first;
  {
    ServerOptions options = manual_options();
    options.store_dir = dir;
    Server server(options);
    auto session = session_into(server, first);
    session->submit(sweep);
    server.dispatch_pending();
    session->drain();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.store.stores, 2u);
    EXPECT_EQ(c.store.hits, 0u);
    server.shutdown();
  }

  std::vector<std::string> second;
  {
    ServerOptions options = manual_options();
    options.store_dir = dir;
    Server server(options);
    auto session = session_into(server, second);
    session->submit(sweep);
    server.dispatch_pending();
    session->drain();
    const ServerCounters c = server.counters();
    EXPECT_EQ(c.store.hits, 2u);
    EXPECT_EQ(c.store.misses, 0u);
    EXPECT_EQ(c.store.stores, 0u);
    server.shutdown();
  }
  EXPECT_EQ(first, second);
  fs::remove_all(dir);
}

TEST_F(ServeServerTest, ShutdownRequestDrainsAdmittedWorkThenCloses) {
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": 0, "kind": "run", "workload": "crc32"})");
  EXPECT_TRUE(session->submit(R"({"id": 1, "kind": "shutdown"})") == false ||
              server.shutting_down());
  // Admitted before shutdown: still answered.
  server.dispatch_pending();
  // Submitted after shutdown: rejected, not silently dropped.
  session->submit(R"({"id": 2, "kind": "run", "workload": "crc32"})");
  session->drain();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\": \"shutdown\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"error\": \"shutting_down\""), std::string::npos);
  server.shutdown();
}

TEST_F(ServeServerTest, UnknownWorkloadAnswersWithErrorCode) {
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": 1, "kind": "run", "workload": "nonesuch"})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"error\": \"unknown_workload\""), std::string::npos);
  server.shutdown();
}

TEST_F(ServeServerTest, AutoDispatchServesWithoutManualPump) {
  // The production configuration: dispatcher thread on, no manual pump.
  ServerOptions options;
  options.worker_threads = 2;
  Server server(options);
  std::vector<std::string> lines;
  std::mutex mutex;
  auto session = server.open_session([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  });
  session->submit(R"({"id": 1, "kind": "run", "workload": "crc32"})");
  session->drain();
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"transparent\": true"), std::string::npos);
  }
  server.shutdown();
}

TEST_F(ServeServerTest, ServeFuzzRequestRunsCampaign) {
  Server server(manual_options());
  std::vector<std::string> lines;
  auto session = session_into(server, lines);
  session->submit(R"({"id": 1, "kind": "fuzz", "seeds": 2})");
  server.dispatch_pending();
  session->drain();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kind\": \"fuzz\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seeds_run\": 2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"clean\": true"), std::string::npos);
  server.shutdown();
}

// --- worker and back ends ---------------------------------------------------

TEST(ServeWorker, ExecutesWhatItIsHanded) {
  // The supervisor admits, schedules and judges the deadline of every job
  // it hands over; the worker only runs it. A worker that judged the
  // deadline again would answer deadline_expired for this job.
  const std::string run = R"({"id": "w", "kind": "run", "workload": "crc32")";
  std::vector<std::string> reference;
  {
    ServerOptions options;
    options.auto_dispatch = false;
    options.worker_threads = 1;
    Server server(options);
    auto session = server.open_session(
        [&reference](const std::string& line) { reference.push_back(line); });
    session->submit(run + "}");
    server.dispatch_pending();
    session->drain();
  }
  ASSERT_EQ(reference.size(), 1u);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SupervisorOptions options;
  options.engine_threads = 1;
  int exit_code = -1;
  std::thread worker([&] { exit_code = worker_main(fds[1], options); });
  const bool sent = send_frame(fds[0], encode_job_frame(7, run + R"(, "deadline_ms": 0})"));
  std::string payload;
  const bool received = sent && recv_frame(fds[0], payload);
  ::shutdown(fds[0], SHUT_RDWR);  // EOF ends the worker's frame loop
  worker.join();
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_TRUE(received);
  uint64_t job_id = 0;
  std::string response;
  ASSERT_TRUE(decode_response_frame(payload, job_id, response));
  EXPECT_EQ(job_id, 7u);
  EXPECT_EQ(response, reference[0]);
  EXPECT_EQ(exit_code, 0);
}

// Object keys of one response line, in order.
std::vector<std::string> keys_of(const std::string& line) {
  std::vector<std::string> keys;
  for (const auto& member : parse_json(line).object) keys.push_back(member.first);
  return keys;
}

TEST(ServeFrontEnd, EveryBackEndAnswersTheSameBytes) {
  // Admission, the immediate kinds, the pickup checks and shutdown all
  // live in the shared front end, and execution in the shared executor, so
  // the in-process Server and worker pools of any size must answer one
  // stream identically. Only `stats` differs: each back end adds its own
  // counters after the shared ones.
  const std::vector<std::string> stream = {
      R"({"id": "ping", "kind": "ping"})",
      R"({"id": "stats", "kind": "stats"})",
      R"(not json)",
      R"({"id": "zero", "kind": "run", "workload": "crc32", "budget": 0})",
      R"({"id": "prio", "kind": "run", "workload": "crc32", "priority": 10})",
      R"({"id": "what", "kind": "teleport"})",
      R"({"id": "cancel", "kind": "cancel", "target": "nobody"})",
      R"({"id": "late", "kind": "run", "workload": "crc32", "deadline_ms": 0})",
      R"({"id": "none", "kind": "run", "workload": "nonesuch"})",
      R"({"id": "run", "kind": "run", "workload": "crc32"})",
      R"({"id": "sweep", "kind": "sweep", "workload": "bitcount", "slots_axis": [8, 16]})",
      R"({"id": "budget", "kind": "run", "source": "main: li $t0, 0\nli $t1, 100000\nloop: addiu $t0, $t0, 1\nbne $t0, $t1, loop\nli $v0, 10\nsyscall\n", "budget": 30000})",
      R"({"id": "bye", "kind": "shutdown"})",
      R"({"id": "after", "kind": "run", "workload": "crc32"})",
  };
  const std::vector<std::string> shared_stats = {
      "id", "ok", "kind", "accepted", "rejected_overload", "rejected_invalid",
      "rejected_deadline", "completed", "canceled"};
  const auto with = [&shared_stats](std::vector<std::string> extra) {
    std::vector<std::string> keys = shared_stats;
    keys.insert(keys.end(), extra.begin(), extra.end());
    return keys;
  };
  // Everything but the stats line, which must carry exactly `keys`.
  const auto split_stats = [](std::vector<std::string> lines,
                              const std::vector<std::string>& keys) {
    EXPECT_EQ(lines.size(), 14u);
    if (lines.size() < 2) return lines;
    EXPECT_EQ(keys_of(lines[1]), keys);
    lines.erase(lines.begin() + 1);
    return lines;
  };

  std::vector<std::string> reference;
  {
    ServerOptions options;
    options.auto_dispatch = false;
    options.worker_threads = 2;
    options.checkpoint_interval = 4096;
    Server server(options);
    auto session = server.open_session(
        [&reference](const std::string& line) { reference.push_back(line); });
    for (const std::string& line : stream) session->submit(line);
    server.dispatch_pending();
    session->drain();
    server.shutdown();
    reference = split_stats(reference, with({"batches", "batched_cells",
                                             "direct_runs", "fuzz_campaigns"}));
  }
  ASSERT_EQ(reference.size(), 13u);
  EXPECT_EQ(reference[0], "{\"id\": \"ping\", \"ok\": true, \"kind\": \"pong\"}\n");
  EXPECT_NE(reference[1].find("\"error\": \"parse_error\""), std::string::npos);
  EXPECT_NE(reference[2].find("\"error\": \"zero_budget\""), std::string::npos);
  EXPECT_NE(reference[3].find("\"error\": \"bad_request\""), std::string::npos);
  EXPECT_NE(reference[4].find("\"error\": \"bad_request\""), std::string::npos);
  EXPECT_NE(reference[5].find("\"kind\": \"cancel\""), std::string::npos);
  EXPECT_NE(reference[6].find("\"error\": \"deadline_expired\""), std::string::npos);
  EXPECT_NE(reference[7].find("\"error\": \"unknown_workload\""), std::string::npos);
  EXPECT_NE(reference[8].find("\"transparent\": true"), std::string::npos);
  EXPECT_NE(reference[9].find("\"cells\": 2"), std::string::npos);
  EXPECT_NE(reference[10].find("\"hit_budget\": true"), std::string::npos);
  EXPECT_NE(reference[11].find("\"kind\": \"shutdown\""), std::string::npos);
  EXPECT_NE(reference[12].find("\"error\": \"shutting_down\""), std::string::npos);

  for (const int workers : {1, 2}) {
    SupervisorOptions options;
    options.workers = workers;
    options.engine_threads = 1;
    options.checkpoint_interval = 4096;
    Supervisor supervisor(options);
    std::mutex mutex;
    std::vector<std::string> lines;
    auto session = supervisor.open_session([&](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    });
    for (const std::string& line : stream) session->submit(line);
    session->drain();
    supervisor.shutdown();
    EXPECT_EQ(split_stats(lines, with({"workers", "dispatched", "worker_restarts",
                                       "migrations", "abandoned"})),
              reference)
        << workers << " worker(s)";
  }
}

TEST(ServeFrontEnd, WarmKeyIsIgnoredLikeAnyUnknownKey) {
  // `"warm": true` once preloaded and exported a resident warm-start pool,
  // so a run's answer depended on what ran before it. It is now an unknown
  // key like any other: each answer equals, byte for byte, the answer to
  // the same line without it, in process and from a worker pool, the first
  // time and the second.
  const auto run_line = [](int id, bool warm) {
    return R"({"id": )" + std::to_string(id) + R"(, "kind": "run", "workload": "crc32")" +
           (warm ? R"(, "warm": true})" : "}");
  };
  // Submits run 1, waits for its answer, then does the same for run 2.
  const auto answers = [&run_line](SessionHost& host, bool warm,
                                   const std::function<void()>& dispatch) {
    std::mutex mutex;
    std::vector<std::string> lines;
    auto session = host.open_session([&](const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(line);
    });
    for (const int id : {1, 2}) {
      session->submit(run_line(id, warm));
      dispatch();
      session->drain();
    }
    return lines;
  };
  const auto in_process = [&answers](bool warm) {
    ServerOptions options;
    options.auto_dispatch = false;
    options.worker_threads = 2;
    Server server(options);
    std::vector<std::string> lines =
        answers(server, warm, [&server] { server.dispatch_pending(); });
    server.shutdown();
    return lines;
  };

  const std::vector<std::string> plain = in_process(false);
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_NE(plain[0].find("\"transparent\": true"), std::string::npos);
  EXPECT_EQ(in_process(true), plain);

  SupervisorOptions options;
  options.workers = 2;
  options.engine_threads = 1;
  Supervisor supervisor(options);
  EXPECT_EQ(answers(supervisor, true, [] {}), plain);
  supervisor.shutdown();
}

}  // namespace
}  // namespace dim::serve
