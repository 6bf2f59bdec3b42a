#include "ft/fault_detector.hpp"

#include "cdr/cdr.hpp"
#include "obs/journal.hpp"

namespace eternal::ft {

namespace {
constexpr std::uint8_t kPing = 1;
constexpr std::uint8_t kPong = 2;

/// Ping/pong frames are 13 bytes, so the sealed WireBuf is inline storage:
/// building one touches only the arena's recycled slab bytes.
cdr::WireBuf make_msg(cdr::Arena& arena, std::uint8_t type, sim::NodeId from,
                      std::uint64_t seq) {
  cdr::Writer w(arena, 16);
  w.put_octet(type);
  w.put_ulong(from);
  w.put_ulonglong(seq);
  return w.seal();
}
}  // namespace

FaultDetector::FaultDetector(sim::Simulation& sim, totem::GroupLayer& groups,
                             FaultNotifier& notifier)
    : sim_(sim),
      groups_(groups),
      notifier_(notifier),
      pings_sent_(obs::fresh_counter("ftd", "pings_sent", groups.id())),
      pongs_received_(
          obs::fresh_counter("ftd", "pongs_received", groups.id())),
      faults_reported_(
          obs::fresh_counter("ftd", "faults_reported", groups.id())),
      faults_cleared_(
          obs::fresh_counter("ftd", "faults_cleared", groups.id())) {}

void FaultDetector::start() {
  if (started_) return;
  started_ = true;
  groups_.subscribe(inbox_name(groups_.id()),
                    [this](const totem::GroupMessage& m) { on_message(m); });
}

void FaultDetector::stop() {
  if (!started_) return;
  started_ = false;
  groups_.unsubscribe(inbox_name(groups_.id()));
  for (auto& [target, watch] : watches_) {
    watch.ping_timer.cancel();
    watch.timeout_timer.cancel();
  }
  watches_.clear();
}

void FaultDetector::monitor(sim::NodeId target, sim::Time interval,
                            sim::Time timeout) {
  start();
  unmonitor(target);
  Watch watch;
  watch.interval = interval;
  watch.timeout = timeout;
  watches_.emplace(target, std::move(watch));
  // First ping after a uniform random phase, as periodic monitors do in
  // practice (and so detection latency is measured from a random phase).
  schedule_ping(target, sim_.rng().below(interval) + 1);
}

void FaultDetector::unmonitor(sim::NodeId target) {
  auto it = watches_.find(target);
  if (it == watches_.end()) return;
  it->second.ping_timer.cancel();
  it->second.timeout_timer.cancel();
  watches_.erase(it);
}

bool FaultDetector::suspects(sim::NodeId target) const {
  auto it = watches_.find(target);
  return it != watches_.end() && it->second.suspected;
}

void FaultDetector::schedule_ping(sim::NodeId target, sim::Time delay) {
  auto it = watches_.find(target);
  if (it == watches_.end()) return;
  it->second.ping_timer = sim_.after(delay, [this, target] {
    send_ping(target);
  });
}

void FaultDetector::send_ping(sim::NodeId target) {
  auto it = watches_.find(target);
  if (it == watches_.end()) return;
  Watch& watch = it->second;
  watch.awaiting_seq = watch.next_seq++;
  pings_sent_.inc();
  groups_.send(inbox_name(target),
               make_msg(groups_.arena(), kPing, groups_.id(),
                        watch.awaiting_seq));
  watch.timeout_timer = sim_.after(watch.timeout, [this, target] {
    auto wit = watches_.find(target);
    if (wit == watches_.end() || wit->second.awaiting_seq == 0) return;
    wit->second.suspected = true;
    const std::uint64_t missed = wit->second.awaiting_seq;
    wit->second.awaiting_seq = 0;
    faults_reported_.inc();
    obs::Journal::global().emit(
        sim_.now(), groups_.id(), obs::EventKind::FaultSuspected,
        "node" + std::to_string(target),
        "ping_seq=" + std::to_string(missed) +
            " timeout=" + std::to_string(wit->second.timeout) + "us");
    notifier_.push(FaultReport{target, "", sim_.now(), "CRASH", {}});
    // Keep probing: recovery clears the suspicion.
    schedule_ping(target, wit->second.interval);
  });
}

void FaultDetector::on_message(const totem::GroupMessage& m) {
  cdr::Decoder dec(m.payload);
  const std::uint8_t type = dec.get_octet();
  const sim::NodeId from = dec.get_ulong();
  const std::uint64_t seq = dec.get_ulonglong();

  if (type == kPing) {
    groups_.send(inbox_name(from),
                 make_msg(groups_.arena(), kPong, groups_.id(), seq));
    return;
  }
  if (type == kPong) {
    auto it = watches_.find(from);
    if (it == watches_.end()) return;
    Watch& watch = it->second;
    if (watch.awaiting_seq != seq) return;  // stale pong
    pongs_received_.inc();
    watch.awaiting_seq = 0;
    watch.timeout_timer.cancel();
    if (watch.suspected) {
      watch.suspected = false;
      faults_cleared_.inc();
      obs::Journal::global().emit(sim_.now(), groups_.id(),
                                  obs::EventKind::FaultCleared,
                                  "node" + std::to_string(from),
                                  "pong_seq=" + std::to_string(seq));
      notifier_.push(FaultReport{from, "", sim_.now(), "RECOVERED", {}});
    }
    schedule_ping(from, watch.interval);
  }
}

}  // namespace eternal::ft
