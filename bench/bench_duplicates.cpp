// E5 — Duplicate detection & suppression: effectiveness and overhead.
//
// Nested operations from a 3-replica active client group to active server
// groups generate up to 3 copies of every invocation and response. We
// compare sender-side suppression ON vs OFF: multicasts on the wire,
// suppressed sends, duplicates dropped at receivers, executions (must be
// identical — exactly-once regardless), and the byte overhead the
// operation identifiers add to each invocation.
#include "harness.hpp"

using namespace eternal;
using namespace eternal::bench;

namespace {

struct Result {
  std::uint64_t multicasts = 0;
  std::uint64_t bytes = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t dups_dropped = 0;
  std::uint64_t executions = 0;
};

Result measure(bool suppression, int transfers) {
  rep::EngineParams ep;
  ep.sender_side_suppression = suppression;
  FtCluster c(6, /*seed=*/1, ep);
  c.domain.host_on<app::Teller>(
      rep::GroupConfig{"teller", rep::Style::Active}, {0, 1, 2});
  c.domain.host_on<app::Account>(
      rep::GroupConfig{"acct.a", rep::Style::Active}, {3, 4});
  c.domain.host_on<app::Account>(
      rep::GroupConfig{"acct.b", rep::Style::Active}, {4, 5});
  c.settle();
  c.timed_call(5, "acct.a", "deposit", i64_arg(1000000));
  c.net.reset_stats();

  for (int i = 0; i < transfers; ++i) {
    cdr::Writer args;
    args.put_string("acct.a");
    args.put_string("acct.b");
    args.put_longlong(1);
    c.timed_call(5, "teller", "transfer", args.written());
  }
  c.settle();

  Result r{};
  r.multicasts = c.net.stats().multicasts_sent;
  r.bytes = c.net.stats().bytes_sent;
  r.suppressed = c.domain.total([](const rep::EngineCounters& s) {
    return s.sends_suppressed.value() + s.responses_suppressed.value();
  });
  r.dups_dropped = c.domain.total([](const rep::EngineCounters& s) {
    return s.duplicate_invocations_dropped.value() +
           s.duplicate_replies_resent.value();
  });
  // acct.a executions only (withdraws): both replicas, exactly-once each.
  r.executions = c.domain.engine(3).stats().invocations_executed.value();
  return r;
}

}  // namespace

int main() {
  banner("E5", "duplicate suppression: effectiveness and overhead");
  const int transfers = 50;
  Table table({"sender-side suppression", "multicasts", "KiB on wire",
               "sends suppressed", "dups dropped at receiver",
               "withdraws executed per acct.a replica"});
  const Result on = measure(true, transfers);
  const Result off = measure(false, transfers);
  table.row({"ON", fmt_u(on.multicasts), fmt_u(on.bytes / 1024),
             fmt_u(on.suppressed), fmt_u(on.dups_dropped),
             fmt_u(on.executions)});
  table.row({"OFF", fmt_u(off.multicasts), fmt_u(off.bytes / 1024),
             fmt_u(off.suppressed), fmt_u(off.dups_dropped),
             fmt_u(off.executions)});
  table.print();

  // Identifier overhead: envelope bytes minus the GIOP request it carries.
  giop::RequestHeader hdr;
  hdr.request_id = 1;
  hdr.object_key = cdr::WireBuf(cdr::Bytes{'a', 'c', 'c', 't'});
  hdr.operation = "withdraw";
  cdr::Writer request;
  giop::encode_request_into(request, hdr, i64_arg(1));
  rep::Envelope env;
  env.kind = rep::Kind::Invocation;
  env.target_group = "acct";
  env.reply_group = "teller";
  env.source_group = "teller";
  env.giop = request.seal();
  cdr::Writer envelope;
  rep::encode_envelope_into(envelope, env);
  const std::size_t overhead = envelope.size() - env.giop.size();
  std::printf("\nper-invocation identifier+envelope overhead: %zu bytes on "
              "a %zu-byte GIOP request\n",
              overhead, env.giop.size());
  std::puts("shape check: suppression saves multicasts and bytes; "
            "executions are identical (exactly-once) either way.");
  obs_report("duplicates");
  return 0;
}
