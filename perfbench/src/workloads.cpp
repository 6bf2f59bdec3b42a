// The three workloads. Each repetition builds a fresh cluster, warms it up,
// measures one window of client traffic, then injects a fault, measures
// how long the watched group goes without completing an operation and how
// long recovery takes, and finally checks the outcomes clients observed
// against the replicas' end state.
//
// Inputs come only from the seed: the simulation (network jitter) is
// seeded with it, and the open-loop arrival schedules are drawn here from
// a splitmix64 stream of it, never through the library's generators.
#include <algorithm>
#include <cmath>
#include <deque>

#include "app/servants.hpp"
#include "bench.hpp"
#include "orb/exceptions.hpp"
#include "rep/oracle.hpp"
#include "rep/stub.hpp"

namespace perfbench {

namespace {

using Inv = rep::TypedInvocation<std::int64_t>;
constexpr sim::Time kDrainTimeout = 30 * sim::kSecond;
constexpr sim::Time kRecoveryTimeout = 20 * sim::kSecond;

double ms(sim::Time t) { return static_cast<double>(t) / sim::kMillisecond; }
double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double per(double num, double den) { return den > 0 ? num / den : 0; }

/// Longest interval after `from` during which none of `done` (completion
/// times, any order) falls: the first gap runs from `from` itself.
double longest_gap_ms(std::vector<sim::Time> done, sim::Time from) {
  std::sort(done.begin(), done.end());
  sim::Time prev = from;
  sim::Time gap = 0;
  for (sim::Time t : done) {
    if (t < from) continue;
    gap = std::max(gap, t - prev);
    prev = t;
  }
  return ms(gap);
}

std::int64_t counter_value(Cluster& c, sim::NodeId n,
                           const std::string& group) {
  auto replica = c.domain.engine(n).local_replica(group);
  return replica ? static_cast<app::Counter&>(*replica).value() : -1;
}

/// Highest value any live replica of a counter group holds.
std::int64_t max_counter(Cluster& c, const std::string& group) {
  std::int64_t best = -1;
  for (sim::NodeId n = 0; n < c.nodes; ++n) {
    if (c.fabric.is_up(n)) best = std::max(best, counter_value(c, n, group));
  }
  return best;
}

/// The first live synced replica of a group not on `skip`, as ServantT.
template <typename ServantT>
const ServantT* synced_replica(Cluster& c, const std::string& group,
                               std::optional<sim::NodeId> skip = {}) {
  for (sim::NodeId n = 0; n < c.nodes; ++n) {
    rep::Engine& e = c.domain.engine(n);
    if (n != skip && c.fabric.is_up(n) && e.hosts(group) &&
        e.is_synced(group)) {
      return static_cast<const ServantT*>(e.local_replica(group).get());
    }
  }
  return nullptr;
}

/// splitmix64: the benchmark's own seeded generator (inputs never depend
/// on the library's PRNG).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Registers `group` with the management plane and places its replicas on
/// `nodes`; with `place` false it only registers the factory and properties,
/// as a cold restart does before recover_domain rebuilds the replicas.
template <typename ServantT>
void create_group(Cluster& c, const std::string& group, rep::Style style,
                  std::vector<sim::NodeId> nodes, std::uint32_t min_replicas,
                  bool place = true) {
  ft::Properties props;
  props.replication_style = style;
  props.initial_number_replicas = static_cast<std::uint32_t>(nodes.size());
  props.minimum_number_replicas = min_replicas;
  if (place) {
    c.rm.create_object<ServantT>(group, props, std::move(nodes));
    return;
  }
  c.rm.register_factory(
      group, [](sim::NodeId) { return std::make_shared<ServantT>(); });
  c.rm.properties().set_properties(group, props);
}

/// True when every live synced replica of `group`, except any on `skip`,
/// holds the same state version and digest.
bool replicas_agree(Cluster& c, const std::string& group,
                    std::optional<sim::NodeId> skip = {}) {
  std::optional<std::pair<std::uint64_t, std::uint64_t>> ref;
  for (sim::NodeId n = 0; n < c.nodes; ++n) {
    rep::Engine& e = c.domain.engine(n);
    if (n == skip || !c.fabric.is_up(n) || !e.hosts(group) ||
        !e.is_synced(group)) {
      continue;
    }
    const auto replica = e.local_replica(group);
    if (!replica) continue;
    const std::uint64_t version = e.state_version(group);
    const std::pair state{version, rep::digest_state(*replica, version)};
    if (!ref) {
      ref = state;
    } else if (state != *ref) {
      return false;
    }
  }
  return ref.has_value();
}

/// Wall, simulated time, allocations, counters and spans over one phase.
class Window {
 public:
  explicit Window(Cluster& c) : c_(c) {
    c_.spans.clear();  // retain the window's spans, not set-up's
    counts0_ = read_counts(c_.net, c_.nodes);
    sim0_ = c_.sim.now();
    allocs0_ = alloc_count();
    wall0_ = wall_ns();
  }
  void finish(Rep& r) {
    r.window_wall_s = secs(wall_ns() - wall0_);
    r.window_allocs = alloc_count() - allocs0_;
    r.window_sim_s = static_cast<double>(c_.sim.now() - sim0_) / sim::kSecond;
    r.window_spans = c_.spans.totals();
    r.window = read_counts(c_.net, c_.nodes) - counts0_;
  }

 private:
  Cluster& c_;
  Counts counts0_;
  sim::Time sim0_ = 0;
  std::uint64_t allocs0_ = 0;
  std::uint64_t wall0_ = 0;
};

// ---------------------------------------------------------------------------
// Closed loop: one client keeps `depth` invocations outstanding.
// ---------------------------------------------------------------------------

class ClosedLoop {
 public:
  ClosedLoop(Cluster& c, rep::GroupRef ref, std::size_t depth)
      : c_(c), ref_(std::move(ref)), depth_(depth) {}

  /// Issues `ops` more invocations, keeping `depth` outstanding, and reaps
  /// them in order. Records latency of every completion into `latency`
  /// (when given) and its completion time into `done`.
  void run(std::uint64_t ops, std::vector<double>* latency,
           std::vector<sim::Time>* done) {
    const sim::Time deadline = c_.sim.now() + kDrainTimeout;
    std::uint64_t issued = 0;
    for (;;) {
      {
        Span loop(c_.spans, SpanKind::Loop);
        while (!inflight_.empty() && inflight_.front().inv.ready()) {
          reap(latency, done);
        }
        while (issued < ops && inflight_.size() < depth_) {
          ++attempted_;
          ++issued;
          try {
            Span s(c_.spans, SpanKind::Invoke);
            inflight_.push_back(
                {ref_.invoke<std::int64_t>("incr", std::int64_t{1}),
                 c_.sim.now()});
          } catch (const orb::SystemException&) {
            ++failed_;  // TRANSIENT refusal
            break;
          }
        }
        if (issued == ops && inflight_.empty()) return;
      }
      if (c_.sim.now() >= deadline) break;
      Span s(c_.spans, SpanKind::Step);
      if (!c_.sim.step()) break;
    }
    failed_ += inflight_.size();  // unanswered at drain
    inflight_.clear();
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t acked() const noexcept { return acked_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool increasing() const noexcept { return increasing_; }

 private:
  struct InFlight {
    Inv inv;
    sim::Time issued = 0;
  };

  void reap(std::vector<double>* latency, std::vector<sim::Time>* done) {
    InFlight f = std::move(inflight_.front());
    inflight_.pop_front();
    try {
      const std::int64_t v = f.inv.get();
      if (v <= last_) increasing_ = false;
      last_ = v;
      ++acked_;
      if (latency) {
        latency->push_back(static_cast<double>(c_.sim.now() - f.issued));
      }
      if (done) done->push_back(c_.sim.now());
    } catch (const std::exception&) {
      ++failed_;
    }
  }

  Cluster& c_;
  rep::GroupRef ref_;
  std::size_t depth_;
  std::deque<InFlight> inflight_;
  std::uint64_t attempted_ = 0, acked_ = 0, failed_ = 0;
  std::int64_t last_ = 0;
  bool increasing_ = true;
};

// ---------------------------------------------------------------------------
// Open loop: arrivals at scheduled simulated times, whatever the replies.
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t { Incr, Get, Transfer };

struct Arrival {
  sim::Time gap = 0;  // after the previous arrival of the phase
  std::uint8_t client = 0;
  std::uint8_t target = 0;  // index into the workload's counter groups
  OpKind kind = OpKind::Incr;
  bool forward = true;  // transfer direction
};

struct Mix {
  double rate = 400;            // arrivals per simulated second, all clients
  std::size_t clients = 1;
  std::vector<double> weights;  // per counter group (normalised here)
  double read_frac = 0;         // share of counter ops that are reads
  double transfer_frac = 0;     // share of arrivals that are transfers
};

/// Poisson arrivals, group popularity by `weights`. Every arrival draws the
/// same five numbers, so the stream stays aligned whatever the mix.
std::vector<Arrival> schedule(Rng& rng, std::size_t n, const Mix& mix) {
  std::vector<double> cdf;
  double total = 0;
  for (double w : mix.weights) cdf.push_back(total += w);
  for (double& x : cdf) x /= total;
  std::vector<Arrival> out(n);
  const double mean_gap_us = 1e6 / mix.rate;
  for (Arrival& a : out) {
    const double u_gap = rng.uniform01();
    const double u_client = rng.uniform01();
    const double u_kind = rng.uniform01();
    const double u_target = rng.uniform01();
    const double u_dir = rng.uniform01();
    a.gap = std::max<sim::Time>(
        1, static_cast<sim::Time>(-std::log1p(-u_gap) * mean_gap_us));
    a.client = static_cast<std::uint8_t>(
        std::min<double>(u_client * static_cast<double>(mix.clients),
                         static_cast<double>(mix.clients - 1)));
    a.target = static_cast<std::uint8_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u_target) - cdf.begin());
    a.target = std::min<std::uint8_t>(
        a.target, static_cast<std::uint8_t>(cdf.size() - 1));
    if (u_kind < mix.transfer_frac) {
      a.kind = OpKind::Transfer;
    } else if (u_kind < mix.transfer_frac + mix.read_frac) {
      a.kind = OpKind::Get;
    } else {
      a.kind = OpKind::Incr;
    }
    a.forward = u_dir < 0.5;
  }
  return out;
}

class OpenLoop {
 public:
  struct Outcome {
    enum State : std::uint8_t { Pending, Ok, Failed };
    sim::Time due = 0;
    sim::Time done = 0;
    std::uint8_t target = 0;
    OpKind kind = OpKind::Incr;
    State state = Pending;
    int phase = 0;
    Inv inv;
  };

  OpenLoop(Cluster& c, const std::vector<sim::NodeId>& clients,
           const std::vector<std::string>& counters,
           const std::string& teller = {},
           const std::vector<std::string>& accounts = {})
      : c_(c), accounts_(accounts) {
    for (sim::NodeId n : clients) {
      std::vector<rep::GroupRef> refs;
      for (const std::string& g : counters) refs.push_back(c.domain.ref(n, g));
      refs_.push_back(std::move(refs));
      if (!teller.empty()) tellers_.push_back(c.domain.ref(n, teller));
    }
  }

  /// Starts issuing `arrivals` now, tagging their outcomes with `phase`.
  void start(const std::vector<Arrival>& arrivals, int phase) {
    timer_.cancel();
    arrivals_ = &arrivals;
    next_ = 0;
    phase_ = phase;
    phase_end_ = c_.sim.now();
    for (const Arrival& a : arrivals) phase_end_ += a.gap;
    outcomes_.reserve(outcomes_.size() + arrivals.size());
    arm();
  }
  /// Cancels the arrivals not yet issued.
  void stop() {
    timer_.cancel();
    next_ = arrivals_->size();
  }

  /// Steps the simulation until the phase's arrivals are all issued and
  /// answered; operations still pending at the deadline count as failed.
  void drain() {
    const sim::Time deadline =
        std::max(c_.sim.now(), phase_end_) + kDrainTimeout;
    while (next_ < arrivals_->size() || pending_ > 0) {
      if (c_.sim.now() >= deadline) break;
      Span s(c_.spans, SpanKind::Step);
      if (!c_.sim.step()) break;
    }
    if (next_ == arrivals_->size() && pending_ == 0) return;
    stop();
    for (Outcome& o : outcomes_) {
      if (o.state == Outcome::Pending) {
        o.state = Outcome::Failed;
        o.inv.cancel();
      }
    }
    pending_ = 0;
  }

  /// Steps until simulated time `t` (arrivals keep flowing).
  void run_until(sim::Time t) {
    while (c_.sim.now() < t) {
      Span s(c_.spans, SpanKind::Step);
      if (!c_.sim.step()) break;
    }
  }

  std::vector<Outcome>& outcomes() noexcept { return outcomes_; }

 private:
  void arm() {
    if (next_ >= arrivals_->size()) return;
    timer_ = c_.sim.after((*arrivals_)[next_].gap, [this] { fire(); });
  }

  void fire() {
    const Arrival& a = (*arrivals_)[next_++];
    arm();
    Outcome& o = outcomes_.emplace_back();
    o.due = c_.sim.now();
    o.target = a.target;
    o.kind = a.kind;
    o.phase = phase_;
    try {
      Span s(c_.spans, SpanKind::Invoke);
      switch (a.kind) {
        case OpKind::Incr:
          o.inv = refs_[a.client][a.target].invoke<std::int64_t>(
              "incr", std::int64_t{1});
          break;
        case OpKind::Get:
          o.inv = refs_[a.client][a.target].invoke<std::int64_t>("get");
          break;
        case OpKind::Transfer:
          o.inv = tellers_[a.client].invoke<std::int64_t>(
              "transfer", accounts_[a.forward ? 0 : 1],
              accounts_[a.forward ? 1 : 0], std::int64_t{1});
          break;
      }
    } catch (const orb::SystemException&) {
      o.state = Outcome::Failed;  // TRANSIENT refusal
      o.done = o.due;
      return;
    }
    ++pending_;
    const std::size_t idx = outcomes_.size() - 1;
    o.inv.raw().then([this, idx](orb::Future<cdr::Bytes>::State& st) {
      Outcome& done = outcomes_[idx];
      done.done = c_.sim.now();
      done.state = st.error ? Outcome::Failed : Outcome::Ok;
      --pending_;
    });
  }

  Cluster& c_;
  std::vector<std::vector<rep::GroupRef>> refs_;  // [client][counter]
  std::vector<rep::GroupRef> tellers_;            // [client]
  std::vector<std::string> accounts_;
  const std::vector<Arrival>* arrivals_ = nullptr;
  std::size_t next_ = 0;
  sim::Time phase_end_ = 0;  // due time of the phase's last arrival
  int phase_ = 0;
  std::size_t pending_ = 0;
  sim::TimerHandle timer_;
  std::vector<Outcome> outcomes_;
};

enum Phase { kWarmup = 0, kMeasured = 1, kFault = 2, kTail = 3 };

/// Window figures of an open-loop run: attempts, failures, latency from
/// the due time.
void tally_window(OpenLoop& loop, Rep& r) {
  for (const OpenLoop::Outcome& o : loop.outcomes()) {
    if (o.phase != kMeasured) continue;
    ++r.attempted;
    if (o.state == OpenLoop::Outcome::Ok) {
      ++r.completed;
      r.latency_us.push_back(static_cast<double>(o.done - o.due));
    } else {
      ++r.failed;
    }
  }
}

/// Acknowledged incr(1) operations on one counter group, and how many of
/// their replies were stale. Executed exactly once, the n acknowledged
/// increments return the counts 1..n, each once; a repeated value is a
/// reply computed from state that missed earlier operations.
struct IncrReplies {
  std::int64_t acked = 0;
  std::int64_t stale = 0;
};

IncrReplies incr_replies(OpenLoop& loop, std::uint8_t target, int phase_max) {
  std::vector<std::int64_t> values;
  for (OpenLoop::Outcome& o : loop.outcomes()) {
    if (o.phase <= phase_max && o.kind == OpKind::Incr &&
        o.target == target && o.state == OpenLoop::Outcome::Ok) {
      values.push_back(o.inv.get());
    }
  }
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  std::int64_t fresh = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    fresh += values[i] >= 1 && values[i] <= n &&
             (i == 0 || values[i] != values[i - 1]);
  }
  return {n, n - fresh};
}

/// Non-durable recovery: restart crashed processor `n` with empty state and
/// rejoin its replicas by state transfer, timed from the restart to a
/// reconverged ring with every rejoined replica synced. The processor is
/// then crashed and recovered again, kRejoinTrials times in all, so the
/// same work is timed repeatedly; the fastest trial counts.
constexpr int kRejoinTrials = 5;

void restart_and_rejoin(Cluster& c, Rep& r, sim::NodeId n,
                        const std::vector<std::string>& groups) {
  for (int trial = 0; trial < kRejoinTrials; ++trial) {
    if (trial > 0) {
      c.fabric.crash(n);
      c.step_until(kRecoveryTimeout, [] { return true; });
    }
    const Spans::Totals spans0 = c.spans.totals();
    const std::uint64_t wall0 = wall_ns();
    const sim::Time sim0 = c.sim.now();
    {
      Span s(c.spans, SpanKind::RecoverNode);
      c.domain.restart(n);
      for (const std::string& g : groups) c.rm.add_member(g, n);
    }
    bool ok = false;
    {
      Span s(c.spans, SpanKind::Converge);
      ok = c.step_until(kRecoveryTimeout, [&] {
        for (const std::string& g : groups) {
          if (!c.domain.engine(n).is_synced(g)) return false;
        }
        return true;
      });
    }
    const double wall_s = secs(wall_ns() - wall0);
    if (trial == 0 || wall_s < r.recovery_wall_s) {
      r.recovery_wall_s = wall_s;
      r.recovery_spans = c.spans.totals() - spans0;
    }
    r.recovery_sim_ms = ms(c.sim.now() - sim0);
    if (!ok) r.violations.push_back("recovery: node did not rejoin in time");
  }
}

// ---------------------------------------------------------------------------
// pipelined
// ---------------------------------------------------------------------------

constexpr std::uint64_t kPipelinedOps = 20000;
constexpr std::uint64_t kPipelinedFaultOps = 3000;

Rep pipelined(std::uint64_t seed, Spans& spans) {
  Rep r;
  const std::uint64_t t0 = wall_ns();
  Cluster c(4, seed, /*durable=*/false, spans);
  create_group<app::Counter>(c, "ctr", rep::Style::Active, {0, 1, 2}, 2);
  c.sim.run_for(sim::kSecond);
  ClosedLoop loop(c, c.domain.ref(3, "ctr"), 32);
  loop.run(256, nullptr, nullptr);  // warm-up
  r.setup_s = secs(wall_ns() - t0);

  const Counts run0 = read_counts(c.net, c.nodes);
  const std::uint64_t attempted0 = loop.attempted();
  const std::uint64_t acked0 = loop.acked();
  const std::uint64_t failed0 = loop.failed();
  {
    Window w(c);
    loop.run(kPipelinedOps, &r.latency_us, nullptr);
    w.finish(r);
  }
  r.attempted = loop.attempted() - attempted0;
  r.completed = loop.acked() - acked0;
  r.failed = loop.failed() - failed0;

  // Fault: crash one replica, then keep the pipeline full.
  const sim::Time crash_at = c.sim.now();
  c.fabric.crash(2);
  std::vector<sim::Time> done;
  loop.run(kPipelinedFaultOps, nullptr, &done);
  r.unavailable_ms = longest_gap_ms(done, crash_at);
  restart_and_rejoin(c, r, 2, {"ctr"});
  c.sim.run_for(200 * sim::kMillisecond);
  r.run = read_counts(c.net, c.nodes) - run0;
  r.run_spans = c.spans.totals();

  if (!loop.increasing()) {
    r.violations.push_back("pipelined: replies did not strictly increase");
  }
  if (loop.failed() != 0) {
    r.violations.push_back("pipelined: " + std::to_string(loop.failed()) +
                           " operation(s) failed");
  }
  if (!replicas_agree(c, "ctr")) {
    r.violations.push_back("pipelined: replica digests disagree");
  }
  for (sim::NodeId n = 0; n < 3; ++n) {
    if (counter_value(c, n, "ctr") != static_cast<std::int64_t>(loop.acked())) {
      r.violations.push_back("pipelined: counter on node " +
                             std::to_string(n) + " != acknowledged incrs");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// open_mixed
// ---------------------------------------------------------------------------

constexpr std::size_t kOpenOps = 12000;
constexpr std::size_t kOpenWarmup = 200;
constexpr std::size_t kOpenFaultOps = 400;

Rep open_mixed(std::uint64_t seed, Spans& spans) {
  Rep r;
  Rng rng(seed);
  Mix mix;
  mix.rate = 400;
  mix.clients = 3;
  for (int k = 1; k <= 3; ++k) mix.weights.push_back(std::pow(k, -1.2));
  mix.read_frac = 0.2;
  const std::vector<Arrival> warmup = schedule(rng, kOpenWarmup, mix);
  const std::vector<Arrival> window = schedule(rng, kOpenOps, mix);
  const std::vector<Arrival> fault = schedule(rng, kOpenFaultOps, mix);
  const std::vector<std::string> groups = {"g0", "g1", "g2"};

  const std::uint64_t t0 = wall_ns();
  Cluster c(7, seed, /*durable=*/false, spans);
  create_group<app::Counter>(c, "g0", rep::Style::Active, {0, 1, 2}, 2);
  create_group<app::Counter>(c, "g1", rep::Style::Active, {2, 3, 4}, 2);
  create_group<app::Counter>(c, "g2", rep::Style::WarmPassive, {4, 5, 6}, 2);
  c.sim.run_for(500 * sim::kMillisecond);
  OpenLoop loop(c, {0, 3, 6}, groups);
  loop.start(warmup, kWarmup);
  loop.drain();
  r.setup_s = secs(wall_ns() - t0);

  const Counts run0 = read_counts(c.net, c.nodes);
  {
    Window w(c);
    loop.start(window, kMeasured);
    loop.drain();
    w.finish(r);
  }
  tally_window(loop, r);

  // Fault: crash a replica of the most popular group mid-traffic.
  loop.start(fault, kFault);
  const sim::Time crash_at = c.sim.now() + 100 * sim::kMillisecond;
  loop.run_until(crash_at);
  c.fabric.crash(1);
  loop.drain();
  std::vector<sim::Time> done;
  for (const OpenLoop::Outcome& o : loop.outcomes()) {
    if (o.phase == kFault && o.target == 0 &&
        o.state == OpenLoop::Outcome::Ok) {
      done.push_back(o.done);
    }
  }
  r.unavailable_ms = longest_gap_ms(done, crash_at);
  restart_and_rejoin(c, r, 1, {"g0"});
  c.sim.run_for(200 * sim::kMillisecond);
  r.run = read_counts(c.net, c.nodes) - run0;
  r.run_spans = c.spans.totals();

  std::uint64_t failed = 0;
  for (const OpenLoop::Outcome& o : loop.outcomes()) {
    failed += o.state != OpenLoop::Outcome::Ok;
  }
  if (failed != 0) {
    r.violations.push_back("open_mixed: " + std::to_string(failed) +
                           " operation(s) failed");
  }
  for (std::uint8_t g = 0; g < groups.size(); ++g) {
    const IncrReplies incrs = incr_replies(loop, g, kFault);
    r.extra["rep.stale_replies"] += static_cast<double>(incrs.stale);
    if (!replicas_agree(c, groups[g])) {
      r.violations.push_back("open_mixed: replica digests of " + groups[g] +
                             " disagree");
    }
    if (max_counter(c, groups[g]) != incrs.acked) {
      r.violations.push_back("open_mixed: " + groups[g] +
                             " != acknowledged incrs");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// durable_failover
// ---------------------------------------------------------------------------

constexpr std::size_t kDurableOps = 10000;
constexpr std::size_t kDurableWarmup = 200;
constexpr std::size_t kDurableFaultOps = 2000;
constexpr std::size_t kDurableTailOps = 200;
constexpr sim::Time kFaultAfter = 100 * sim::kMillisecond;
constexpr sim::Time kRecoverNodeAfter = sim::kSecond;
constexpr sim::Time kPowerCutAfter = 60 * sim::kMillisecond;
constexpr std::int64_t kOpeningBalance = 1'000'000;
constexpr int kRecoveryTrials = 5;
const std::vector<std::string> kDurableCounters = {"ctr-a", "ctr-p"};
const std::vector<std::string> kAccounts = {"acct-a", "acct-b"};
const std::vector<std::string> kDurableGroups = {"ctr-a", "ctr-p", "teller",
                                                 "acct-a", "acct-b"};

void durable_groups(Cluster& c, bool place) {
  const std::vector<sim::NodeId> servers = {2, 3, 4};
  create_group<app::Counter>(c, "ctr-a", rep::Style::Active, servers, 3,
                             place);
  create_group<app::Counter>(c, "ctr-p", rep::Style::WarmPassive, servers, 3,
                             place);
  create_group<app::Teller>(c, "teller", rep::Style::Active, servers, 3,
                            place);
  create_group<app::Account>(c, "acct-a", rep::Style::Active, servers, 3,
                             place);
  create_group<app::Account>(c, "acct-b", rep::Style::Active, servers, 3,
                             place);
}

/// Sum of the Account balances, read from replicas not on `skip`.
std::int64_t balance_total(Cluster& c, std::optional<sim::NodeId> skip = {}) {
  std::int64_t total = 0;
  for (const std::string& a : kAccounts) {
    const auto* acct = synced_replica<app::Account>(c, a, skip);
    total += acct ? acct->balance() : 0;
  }
  return total;
}

/// What the live part of durable_failover leaves for the cold restart: the
/// disks as the power cut left them, and per counter the range its
/// recovered value must fall in.
struct PowerCut {
  std::optional<sim::DiskFarm> disks;
  sim::NodeId rebuilt = 0;           // the node recover_node rebuilt
  std::int64_t floor[2] = {0, 0};    // incrs acknowledged a sync interval
                                     // or more before the cut
  std::int64_t ceiling[2] = {0, 0};  // highest value executed by the cut
};

/// Set-up, the measured window, the crash + recover_node schedule with its
/// checks, then fresh traffic and the whole-domain power cut.
PowerCut durable_live(std::uint64_t seed, Spans& spans, Rep& r) {
  Rng rng(seed);
  Mix mix;
  mix.rate = 800;
  mix.clients = 2;
  mix.weights = {1, 1};
  mix.transfer_frac = 0.2;
  const std::vector<Arrival> warmup = schedule(rng, kDurableWarmup, mix);
  const std::vector<Arrival> window = schedule(rng, kDurableOps, mix);
  const std::vector<Arrival> fault = schedule(rng, kDurableFaultOps, mix);
  const std::vector<Arrival> tail = schedule(rng, kDurableTailOps, mix);

  const std::uint64_t t0 = wall_ns();
  Cluster c(5, seed, /*durable=*/true, spans);
  durable_groups(c, /*place=*/true);
  c.sim.run_for(500 * sim::kMillisecond);
  for (const std::string& a : kAccounts) {
    c.domain.ref(0, a).invoke<std::int64_t>("deposit", kOpeningBalance).get();
  }
  OpenLoop loop(c, {0, 1}, kDurableCounters, "teller", kAccounts);
  loop.start(warmup, kWarmup);
  loop.drain();
  r.setup_s = secs(wall_ns() - t0);

  const Counts run0 = read_counts(c.net, c.nodes);
  {
    Window w(c);
    loop.start(window, kMeasured);
    loop.drain();
    w.finish(r);
  }
  tally_window(loop, r);

  // Fixed fault schedule, traffic flowing: crash the warm-passive primary,
  // then rebuild it from its own disk with recover_node.
  const sim::Time crash_at = c.sim.now() + kFaultAfter;
  sim::NodeId victim = 0;
  c.sim.at(crash_at, [&] {
    for (sim::NodeId n = 0; n < c.nodes; ++n) {
      if (c.fabric.is_up(n) && c.domain.engine(n).is_primary("ctr-p")) {
        victim = n;
      }
    }
    c.fabric.crash(victim);
    c.plane->crash(victim, /*torn=*/false);
  });
  c.sim.at(crash_at + kRecoverNodeAfter, [&] {
    Span s(c.spans, SpanKind::RecoverNode);
    c.rm.recover_node(victim);
  });
  loop.start(fault, kFault);
  loop.drain();
  std::vector<sim::Time> done;
  for (const OpenLoop::Outcome& o : loop.outcomes()) {
    if (o.phase == kFault && o.target == 1 && o.kind == OpKind::Incr &&
        o.state == OpenLoop::Outcome::Ok) {
      done.push_back(o.done);
    }
  }
  r.unavailable_ms = longest_gap_ms(done, crash_at);

  // Exactly-once across the failover, checked once the backups have
  // applied the last state updates.
  c.sim.run_for(200 * sim::kMillisecond);
  PowerCut cut;
  for (std::uint8_t g = 0; g < 2; ++g) {
    const IncrReplies incrs = incr_replies(loop, g, kFault);
    r.extra["rep.stale_replies"] += static_cast<double>(incrs.stale);
    cut.floor[g] = incrs.acked;
    if (max_counter(c, kDurableCounters[g]) != incrs.acked) {
      r.violations.push_back("durable_failover: " + kDurableCounters[g] +
                             " lost or repeated an operation");
    }
  }
  std::uint64_t transfers = 0;
  std::uint64_t failed = 0;
  for (const OpenLoop::Outcome& o : loop.outcomes()) {
    failed += o.state != OpenLoop::Outcome::Ok;
    transfers += o.kind == OpKind::Transfer && o.state == OpenLoop::Outcome::Ok;
  }
  if (failed != 0) {
    r.violations.push_back("durable_failover: " + std::to_string(failed) +
                           " operation(s) failed");
  }
  const auto* teller = synced_replica<app::Teller>(c, "teller", victim);
  if (teller == nullptr || teller->transfers() != transfers) {
    r.violations.push_back("durable_failover: teller transfers != acked");
  }
  if (balance_total(c, victim) != 2 * kOpeningBalance) {
    r.violations.push_back("durable_failover: balances not conserved");
  }
  // The replica recover_node rebuilt from its own disk may still miss the
  // operations of its lost journal tail (a known defect, counted in
  // rep.stale_replicas); every other replica must agree.
  for (const std::string& g : kDurableGroups) {
    if (!replicas_agree(c, g, victim)) {
      r.violations.push_back("durable_failover: replicas of " + g +
                             " disagree before the power cut");
    } else if (!replicas_agree(c, g)) {
      r.extra["rep.stale_replicas"] += 1;
    }
  }
  double ckpt_bytes = 0, ckpt_files = 0;
  for (sim::NodeId n = 0; n < c.nodes; ++n) {
    for (const std::string& f : c.farm->disk(n).list("ckpt-")) {
      ckpt_bytes += static_cast<double>(c.farm->disk(n).size(f));
      ++ckpt_files;
    }
  }
  r.extra["dur.checkpoint_bytes"] = per(ckpt_bytes, ckpt_files);
  {
    Span s(c.spans, SpanKind::SyncAll);
    c.plane->sync_all();
  }

  // Power cut of the whole domain mid-traffic, with no sync before it.
  const sim::Time cut_at = c.sim.now() + kPowerCutAfter;
  c.sim.at(cut_at, [&] {
    for (std::uint8_t g = 0; g < 2; ++g) {
      cut.ceiling[g] = max_counter(c, kDurableCounters[g]);
    }
    loop.stop();
    for (sim::NodeId n = 0; n < c.nodes; ++n) c.fabric.crash(n);
    c.plane->crash_all(/*torn=*/false);
  });
  loop.start(tail, kTail);
  loop.run_until(cut_at);
  c.sim.run_for(200 * sim::kMillisecond);
  r.run = read_counts(c.net, c.nodes) - run0;
  r.run_spans = c.spans.totals();

  // The cut may lose only the last sync interval.
  const sim::Time interval = c.plane->params().sync_interval;
  for (const OpenLoop::Outcome& o : loop.outcomes()) {
    if (o.phase == kTail && o.kind == OpKind::Incr &&
        o.state == OpenLoop::Outcome::Ok && o.done + interval < cut_at) {
      ++cut.floor[o.target];
    }
  }
  cut.disks.emplace(*c.farm);
  cut.rebuilt = victim;
  return cut;
}

/// Whole-domain cold restart from the disks the power cut left, in a fresh
/// life of the stack. It runs on copies of the same disks several times,
/// so identical work is timed repeatedly; the last life stays for checks.
void durable_recover(const PowerCut& cut, std::uint64_t seed, Spans& spans,
                     Rep& r) {
  std::optional<Cluster> life;
  for (int trial = 0; trial < kRecoveryTrials; ++trial) {
    life.reset();
    life.emplace(cut.disks->size(), seed, /*durable=*/true, spans,
                 &*cut.disks);
    durable_groups(*life, /*place=*/false);
    const Spans::Totals spans0 = spans.totals();
    const std::uint64_t wall0 = wall_ns();
    const sim::Time sim0 = life->sim.now();
    dur::RecoveryStats stats;
    {
      Span s(spans, SpanKind::RecoverDomain);
      stats = life->rm.recover_domain();
    }
    bool converged = false;
    {
      Span s(spans, SpanKind::Converge);
      converged = life->step_until(kRecoveryTimeout, [] { return true; });
    }
    const double wall_s = secs(wall_ns() - wall0);
    if (trial == 0 || wall_s < r.recovery_wall_s) {
      r.recovery_wall_s = wall_s;
      r.recovery_spans = spans.totals() - spans0;
    }
    r.recovery_sim_ms = ms(life->sim.now() - sim0);
    r.extra["dur.records_replayed"] =
        static_cast<double>(stats.records_replayed);
    r.extra["dur.checkpoints_loaded"] =
        static_cast<double>(stats.checkpoints_loaded);
    if (!converged) {
      r.violations.push_back("durable_failover: ring did not reconverge");
    }
  }
  // Nested transfers cut mid-flight are re-issued by the recovered tellers.
  life->sim.run_for(2 * sim::kSecond);

  for (std::uint8_t g = 0; g < 2; ++g) {
    const std::int64_t recovered = max_counter(*life, kDurableCounters[g]);
    if (recovered < cut.floor[g] || recovered > cut.ceiling[g]) {
      r.violations.push_back(
          "durable_failover: " + kDurableCounters[g] + " recovered " +
          std::to_string(recovered) + " outside [" +
          std::to_string(cut.floor[g]) + ", " +
          std::to_string(cut.ceiling[g]) + "]");
    }
  }
  // The node recover_node rebuilt may have carried operations missing from
  // its replicas onto its disk; as before the cut, it is counted, not
  // failed, and every other recovered replica must agree.
  for (const std::string& g : kDurableGroups) {
    if (!replicas_agree(*life, g, cut.rebuilt)) {
      r.violations.push_back("durable_failover: recovered replicas of " + g +
                             " disagree");
    } else if (!replicas_agree(*life, g)) {
      r.extra["rep.stale_replicas"] += 1;
    }
  }
  if (balance_total(*life, cut.rebuilt) != 2 * kOpeningBalance) {
    r.violations.push_back(
        "durable_failover: balances not conserved after recovery");
  }
}

Rep durable_failover(std::uint64_t seed, Spans& spans) {
  Rep r;
  const PowerCut cut = durable_live(seed, spans, r);
  durable_recover(cut, seed, spans, r);
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"pipelined", &pipelined, "ctr"},
      {"open_mixed", &open_mixed, "g0"},
      {"durable_failover", &durable_failover, "ctr-p"},
  };
  return kWorkloads;
}

}  // namespace perfbench
