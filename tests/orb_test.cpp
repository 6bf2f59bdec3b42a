#include <gtest/gtest.h>

#include "app/servants.hpp"
#include "orb/plain.hpp"
#include "orb/task.hpp"

namespace eternal::orb {
namespace {

// ---------------------------------------------------------------------------
// Task / Future coroutine machinery
// ---------------------------------------------------------------------------

Task sync_task(int* out) {
  *out = 42;
  co_return;
}

TEST(Task, SynchronousBodyCompletesEagerly) {
  int value = 0;
  Task t = sync_task(&value);
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(t.done());
  bool fired = false;
  t.on_complete([&](std::exception_ptr e) {
    fired = true;
    EXPECT_EQ(e, nullptr);
  });
  EXPECT_TRUE(fired);  // immediate: already complete
}

Task throwing_task() {
  throw SystemException("IDL:test/X:1.0", 1, Completion::No);
  co_return;
}

TEST(Task, ExceptionCapturedAndDelivered) {
  Task t = throwing_task();
  EXPECT_TRUE(t.done());
  bool fired = false;
  t.on_complete([&](std::exception_ptr e) {
    fired = true;
    ASSERT_NE(e, nullptr);
    EXPECT_THROW(std::rethrow_exception(e), SystemException);
  });
  EXPECT_TRUE(fired);
}

Task awaiting_task(Future<int> fut, int* out) {
  *out = co_await fut;
}

TEST(Task, SuspendsUntilFutureResolves) {
  Future<int> fut;
  int value = 0;
  Task t = awaiting_task(fut, &value);
  EXPECT_FALSE(t.done());
  EXPECT_EQ(value, 0);
  bool fired = false;
  t.on_complete([&](std::exception_ptr) { fired = true; });
  EXPECT_FALSE(fired);
  fut.resolve(7);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(fired);
}

TEST(Task, RejectedFuturePropagatesAsException) {
  Future<int> fut;
  int value = 0;
  Task t = awaiting_task(fut, &value);
  std::exception_ptr got;
  t.on_complete([&](std::exception_ptr e) { got = e; });
  fut.reject(std::make_exception_ptr(comm_failure()));
  ASSERT_NE(got, nullptr);
  EXPECT_THROW(std::rethrow_exception(got), SystemException);
  EXPECT_EQ(value, 0);
}

Task chained_task(Future<int> a, Future<int> b, int* out) {
  const int x = co_await a;
  const int y = co_await b;
  *out = x + y;
}

TEST(Task, MultipleAwaitsInSequence) {
  Future<int> a, b;
  int value = 0;
  Task t = chained_task(a, b, &value);
  a.resolve(10);
  EXPECT_FALSE(t.done());
  b.resolve(32);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(value, 42);
}

TEST(Task, AwaitingAlreadyResolvedFutureDoesNotSuspend) {
  Future<int> fut;
  fut.resolve(5);
  int value = 0;
  Task t = awaiting_task(fut, &value);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(value, 5);
}

TEST(Task, DestroyingSuspendedTaskIsSafe) {
  Future<int> fut;
  int value = 0;
  {
    Task t = awaiting_task(fut, &value);
    EXPECT_FALSE(t.done());
  }  // destroyed while suspended: frame cleaned up
  fut.resolve(9);  // resolution after destruction must not crash or write
  EXPECT_EQ(value, 0);
}

TEST(FutureTest, DoubleResolveIsIgnored) {
  Future<int> fut;
  fut.resolve(1);
  fut.resolve(2);
  int got = 0;
  fut.then([&](Future<int>::State& st) { got = *st.value; });
  EXPECT_EQ(got, 1);
}

TEST(FutureTest, ThenAfterResolutionFiresImmediately) {
  Future<int> fut;
  fut.resolve(3);
  int got = 0;
  fut.then([&](Future<int>::State& st) { got = *st.value; });
  EXPECT_EQ(got, 3);
}

// ---------------------------------------------------------------------------
// Servant dispatch
// ---------------------------------------------------------------------------

struct TestServant : Servant {
  TestServant() {
    op("double", [](InvokerContext&, cdr::Decoder& in, cdr::Writer& out) {
      out.put_longlong(in.get_longlong() * 2);
    });
    read_op("peek", [](InvokerContext&, cdr::Decoder&, cdr::Writer&) {});
  }
};

TEST(ServantTest, DispatchRunsRegisteredOp) {
  TestServant servant;
  PlainContext ctx(0, 1);
  cdr::Writer args;
  args.put_longlong(21);
  cdr::Decoder in(args.written());
  cdr::Writer out;
  Task t = servant.dispatch("double", ctx, in, out);
  EXPECT_TRUE(t.done());
  cdr::Decoder result(out.written());
  EXPECT_EQ(result.get_longlong(), 42);
}

TEST(ServantTest, UnknownOpThrowsBadOperation) {
  TestServant servant;
  PlainContext ctx(0, 1);
  cdr::Writer empty;
  cdr::Decoder in(empty.written());
  cdr::Writer out;
  try {
    servant.dispatch("nope", ctx, in, out);
    FAIL();
  } catch (const SystemException& e) {
    EXPECT_NE(e.exception_id().find("BAD_OPERATION"), std::string::npos);
  }
}

TEST(ServantTest, ReadOnlyFlag) {
  TestServant servant;
  EXPECT_TRUE(servant.is_read_only("peek"));
  EXPECT_FALSE(servant.is_read_only("double"));
  EXPECT_TRUE(servant.has_op("double"));
  EXPECT_FALSE(servant.has_op("nope"));
}

TEST(PlainContextTest, NestedInvocationUnavailable) {
  PlainContext ctx(123, 1);
  EXPECT_EQ(ctx.logical_time(), 123u);
  EXPECT_TRUE(ctx.in_primary_component());
  EXPECT_FALSE(ctx.is_fulfillment());
  EXPECT_THROW(ctx.invoke("g", "op", {}), SystemException);
  // Deterministic stream: same seed, same values.
  PlainContext a(0, 7), b(0, 7);
  EXPECT_EQ(a.deterministic_random(), b.deterministic_random());
}

// ---------------------------------------------------------------------------
// ObjectAdapter + GIOP dispatch
// ---------------------------------------------------------------------------

cdr::WireBuf make_request(const std::string& key, const std::string& op,
                          std::span<const std::uint8_t> body,
                          std::uint32_t id = 1) {
  giop::RequestHeader hdr;
  hdr.request_id = id;
  hdr.object_key = cdr::WireBuf(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
  hdr.operation = op;
  cdr::Writer w;
  giop::encode_request_into(w, hdr, body);
  return w.seal();
}

TEST(Adapter, DispatchesToActivatedServant) {
  ObjectAdapter adapter;
  adapter.activate("svc", std::make_shared<TestServant>());
  PlainContext ctx(0, 1);
  cdr::Writer body;
  body.put_longlong(4);
  cdr::Arena arena;
  cdr::WireBuf reply_wire = adapter.handle_request_sync(
      arena, make_request("svc", "double", body.written()), ctx);
  giop::Message reply = giop::decode(reply_wire);
  ASSERT_EQ(reply.reply->reply_status, giop::ReplyStatus::NoException);
  const cdr::Bytes reply_body = parse_reply(reply);
  cdr::Decoder result(reply_body);
  EXPECT_EQ(result.get_longlong(), 8);
}

TEST(Adapter, UnknownKeyYieldsObjectNotExist) {
  ObjectAdapter adapter;
  PlainContext ctx(0, 1);
  cdr::Arena arena;
  cdr::WireBuf reply_wire =
      adapter.handle_request_sync(arena, make_request("ghost", "op", {}), ctx);
  giop::Message reply = giop::decode(reply_wire);
  ASSERT_EQ(reply.reply->reply_status, giop::ReplyStatus::SystemException);
  try {
    parse_reply(reply);
    FAIL();
  } catch (const SystemException& e) {
    EXPECT_NE(e.exception_id().find("OBJECT_NOT_EXIST"), std::string::npos);
  }
}

TEST(Adapter, MalformedArgsYieldMarshalException) {
  ObjectAdapter adapter;
  adapter.activate("svc", std::make_shared<TestServant>());
  PlainContext ctx(0, 1);
  // "double" expects a longlong; give it nothing.
  cdr::Arena arena;
  cdr::WireBuf reply_wire = adapter.handle_request_sync(
      arena, make_request("svc", "double", {}), ctx);
  giop::Message reply = giop::decode(reply_wire);
  EXPECT_EQ(reply.reply->reply_status, giop::ReplyStatus::SystemException);
}

TEST(Adapter, DeactivateRemovesServant) {
  ObjectAdapter adapter;
  adapter.activate("svc", std::make_shared<TestServant>());
  EXPECT_NE(adapter.find("svc"), nullptr);
  adapter.deactivate("svc");
  EXPECT_EQ(adapter.find("svc"), nullptr);
}

TEST(Adapter, RequestIdEchoedInReply) {
  ObjectAdapter adapter;
  adapter.activate("svc", std::make_shared<TestServant>());
  PlainContext ctx(0, 1);
  cdr::Writer body;
  body.put_longlong(1);
  cdr::Arena arena;
  cdr::WireBuf reply_wire = adapter.handle_request_sync(
      arena, make_request("svc", "double", body.written(), 777), ctx);
  EXPECT_EQ(giop::decode(reply_wire).reply->request_id, 777u);
}

// ---------------------------------------------------------------------------
// PlainOrb (the unreplicated baseline path)
// ---------------------------------------------------------------------------

struct PlainFixture : ::testing::Test {
  sim::Simulation sim{1};
  sim::Network net{sim, 3};
  PlainOrb server{sim, net, 0};
  PlainOrb client{sim, net, 1};

  void SetUp() override {
    server.adapter().activate("echo", std::make_shared<app::Echo>());
    server.attach();
    client.attach();
  }
};

TEST_F(PlainFixture, RoundTrip) {
  cdr::Writer args;
  args.put_octet_seq(cdr::Bytes{1, 2, 3});
  cdr::Bytes reply = client.invoke_blocking(0, "echo", "echo", args.written());
  cdr::Decoder dec(reply);
  EXPECT_EQ(dec.get_octet_seq(), (cdr::Bytes{1, 2, 3}));
}

TEST_F(PlainFixture, SystemExceptionPropagates) {
  try {
    client.invoke_blocking(0, "echo", "no_such_op", {});
    FAIL();
  } catch (const SystemException& e) {
    EXPECT_NE(e.exception_id().find("BAD_OPERATION"), std::string::npos);
  }
}

TEST_F(PlainFixture, TimesOutWhenServerCrashed) {
  net.crash(0);
  EXPECT_THROW(
      client.invoke_blocking(0, "echo", "echo", {}, 100 * sim::kMillisecond),
      SystemException);
}

TEST_F(PlainFixture, ConcurrentInvocationsMatchedByRequestId) {
  auto f1 = client.invoke(0, "echo", "echo", [&] {
    cdr::Writer e;
    e.put_octet_seq(cdr::Bytes{1});
    return e.seal().to_bytes();
  }());
  auto f2 = client.invoke(0, "echo", "echo", [&] {
    cdr::Writer e;
    e.put_octet_seq(cdr::Bytes{2});
    return e.seal().to_bytes();
  }());
  sim.run();
  ASSERT_TRUE(f1.ready());
  ASSERT_TRUE(f2.ready());
  f1.then([](Future<cdr::Bytes>::State& st) {
    cdr::Decoder dec(*st.value);
    EXPECT_EQ(dec.get_octet_seq(), (cdr::Bytes{1}));
  });
  f2.then([](Future<cdr::Bytes>::State& st) {
    cdr::Decoder dec(*st.value);
    EXPECT_EQ(dec.get_octet_seq(), (cdr::Bytes{2}));
  });
}

}  // namespace
}  // namespace eternal::orb
