#include "soak/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "app/servants.hpp"
#include "cdr/cdr.hpp"
#include "ft/recovery.hpp"
#include "ft/replication_manager.hpp"
#include "obs/analyze.hpp"  // obsctl analysis core — the same invariant
                            // audit `obsctl audit` runs offline over dumps
#include "obs/obs.hpp"
#include "rep/oracle.hpp"

namespace eternal::soak {

namespace {

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string SoakResult::summary() const {
  std::string out = "seed " + std::to_string(seed) + ": ";
  out += clean ? "clean"
               : "VIOLATION(" + std::to_string(violations.size()) + ")";
  out += " issued=" + std::to_string(workload.issued);
  if (workload.nested > 0) out += " nested=" + std::to_string(workload.nested);
  out += " completed=" + std::to_string(workload.completed);
  out += " shed=" + std::to_string(workload.shed);
  if (!workload.latency_us.empty()) {
    out += " p50=" + std::to_string(
               static_cast<std::uint64_t>(workload.latency_us.median())) +
           "us p99=" + std::to_string(static_cast<std::uint64_t>(
                           workload.latency_us.percentile(99))) +
           "us";
  }
  out += " failovers=" + std::to_string(failovers);
  out += " spawned=" + std::to_string(replicas_spawned);
  if (!campaign.empty()) out += " campaign=" + campaign;
  return out;
}

std::string SoakRunner::repro_command(std::uint64_t seed) const {
  std::string cmd = "soakctl run --seed " + std::to_string(seed);
  cmd += " --nodes " + std::to_string(cfg_.nodes);
  cmd += " --groups " + std::to_string(cfg_.groups);
  cmd += " --replicas " + std::to_string(cfg_.replicas);
  cmd += " --clients " + std::to_string(cfg_.workload.clients);
  cmd += " --rate " + fmt_rate(cfg_.workload.offered_rate);
  cmd += " --time-ms " + std::to_string(cfg_.run_time / sim::kMillisecond);
  cmd += " --motifs " + std::to_string(cfg_.chaos.motifs);
  if (cfg_.workload.churn_interval > 0) {
    cmd += " --churn-ms " +
           std::to_string(cfg_.workload.churn_interval / sim::kMillisecond);
  }
  if (!cfg_.mix_styles) cmd += " --no-style-mix";
  if (cfg_.fault_free) cmd += " --fault-free";
  if (cfg_.inject_duplicate) cmd += " --inject-duplicate";
  if (cfg_.durable) cmd += " --durable";
  if (cfg_.chaos.allow_domain_kill) cmd += " --allow-domkill";
  if (cfg_.chaos.allow_disk_full) cmd += " --allow-diskfull";
  if (cfg_.workload.nested_fraction > 0) {
    cmd += " --nested-ratio " + fmt_rate(cfg_.workload.nested_fraction);
  }
  if (!cfg_.chaos.allow_partitions && !cfg_.chaos.allow_flapping &&
      !cfg_.chaos.allow_links && !cfg_.chaos.allow_gray &&
      !cfg_.chaos.allow_skew) {
    cmd += " --crash-only";
  }
  return cmd;
}

SoakResult SoakRunner::run(std::uint64_t seed) {
  // Fresh telemetry per schedule. The flight recorder is the audit's
  // evidence, so its per-node rings must hold the *whole* run — ring
  // overwrites could hide a suppression record and turn a legitimate retry
  // into a false unsuppressed-retry conviction. records_dropped reports
  // whether that margin held.
  obs::Tracer::global().enable(cfg_.audit);
  obs::Tracer::global().clear();
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  fr.enable(cfg_.audit);
  if (cfg_.audit && fr.per_node_capacity() != cfg_.recorder_capacity) {
    fr.set_per_node_capacity(cfg_.recorder_capacity);
  }
  fr.clear();
  obs::Journal::global().clear();
  obs::Registry::global().reset();
  // Self-describing dumps: obsctl audit stamps every violation with the
  // run seed it parses from this event.
  obs::Journal::global().emit(0, 0, obs::EventKind::RunMeta,
                              "seed=" + std::to_string(seed));

  sim::Simulation sim(seed);
  sim::Network net(sim, cfg_.nodes);
  totem::Fabric fabric(sim, net);
  rep::EngineParams ep;
  ep.divergence_check_interval = cfg_.divergence_check_interval;
  rep::Domain domain(fabric, ep);
  ft::FaultNotifier notifier;
  ft::ReplicationManager rm(domain, notifier);
  // Durable mode: one simulated disk per node, journal/checkpoint plane
  // attached to every engine. Declared after rm (destroyed before it), farm
  // before plane (plane references both domain and farm).
  std::optional<sim::DiskFarm> farm;
  std::optional<ft::DurabilityPlane> plane;
  if (cfg_.durable) {
    farm.emplace(cfg_.nodes);
    plane.emplace(domain, *farm, cfg_.durability);
    rm.set_durability_plane(&*plane);
    plane->attach_all();
  }
  fabric.start_all();
  fabric.run_until_converged(2 * sim::kSecond);
  sim.run_for(300 * sim::kMillisecond);

  // Host the target groups through the management plane, styles cycling
  // active / active / warm-passive so failover and re-invocation under the
  // original identifiers are exercised alongside active suppression.
  std::vector<std::string> groups;
  ft::Properties base_props;
  base_props.initial_number_replicas =
      std::min<std::uint32_t>(cfg_.replicas,
                              static_cast<std::uint32_t>(cfg_.nodes));
  base_props.minimum_number_replicas =
      std::min<std::uint32_t>(cfg_.min_replicas,
                              base_props.initial_number_replicas);
  for (std::size_t g = 0; g < cfg_.groups; ++g) {
    const std::string name = "soak-g" + std::to_string(g);
    ft::Properties props = base_props;
    props.replication_style = (cfg_.mix_styles && g % 3 == 2)
                                  ? rep::Style::WarmPassive
                                  : rep::Style::Active;
    rm.create_object<app::Counter>(name, props);
    groups.push_back(name);
  }
  // Nested mix: a Teller group whose transfers fan out into two Account
  // groups. These are workload targets and audit subjects, but stay out of
  // `groups` so the Zipf draw over plain counters is untouched.
  WorkloadParams wp = cfg_.workload;
  std::vector<std::string> audit_groups = groups;
  if (wp.nested_fraction > 0) {
    ft::Properties props = base_props;
    props.replication_style = rep::Style::Active;
    rm.create_object<app::Teller>("soak-teller", props);
    rm.create_object<app::Account>("soak-acct-a", props);
    rm.create_object<app::Account>("soak-acct-b", props);
    wp.nested_group = "soak-teller";
    wp.nested_accounts = {"soak-acct-a", "soak-acct-b"};
    audit_groups.insert(audit_groups.end(),
                        {"soak-teller", "soak-acct-a", "soak-acct-b"});
  }
  sim.run_for(500 * sim::kMillisecond);
  if (wp.nested_fraction > 0) {
    // Seed both accounts so the ±1 transfer random walk rarely overdrafts;
    // the occasional NO_FUNDS that still slips through is deliberate
    // coverage (a carried exception through a nested, replayed operation).
    for (const char* acct : {"soak-acct-a", "soak-acct-b"}) {
      cdr::Writer arg;
      arg.put_longlong(1000);
      domain.client(0).invoke(acct, "deposit", arg.written()).get();
    }
  }

  WorkloadGen workload(domain, wp, groups, seed);
  // Durable runs hand the chaos planner the disk-layer hooks; plain crash
  // motifs then recover via state transfer while domain kills recover from
  // the journals — both recovery paths in one campaign.
  ChaosParams cp = cfg_.chaos;
  if (cfg_.durable) {
    cp.hooks.kill = [&fabric, &plane](const std::vector<sim::NodeId>& victims,
                                      bool torn) {
      for (sim::NodeId n : victims) {
        if (!fabric.is_up(n)) continue;
        fabric.crash(n);
        plane->crash(n, torn);
      }
    };
    cp.hooks.recover = [this, &fabric, &rm] {
      for (sim::NodeId n = 0; n < cfg_.nodes; ++n) {
        if (!fabric.is_up(n)) rm.recover_node(n);
      }
    };
    cp.hooks.set_disk_full = [&farm](sim::NodeId n, bool full) {
      farm->disk(n).set_full(full);
    };
  }
  ChaosPlan chaos(domain, cp, workload.client_nodes(), seed);
  workload.start();
  if (!cfg_.fault_free) chaos.start();
  sim.run_for(cfg_.run_time);
  workload.stop();
  chaos.heal_all();

  SoakResult r;
  r.seed = seed;
  r.campaign = chaos.spec();
  r.repro = repro_command(seed);

  if (!fabric.run_until_converged(10 * sim::kSecond)) {
    r.violations.push_back("no-convergence: cluster failed to reconverge "
                           "after heal_all");
  }

  // Drain: every in-flight operation must complete once the cluster is
  // healed — the client retransmits under the same identifier until the
  // logged reply comes back. Anything left over is a lost operation.
  sim::Time waited = 0;
  const sim::Time slice = 50 * sim::kMillisecond;
  while (workload.in_flight() > 0 && waited < cfg_.drain_timeout) {
    sim.run_for(slice);
    waited += slice;
  }
  sim.run_for(300 * sim::kMillisecond);  // trailing reply spans settle
  if (workload.in_flight() > 0) {
    r.violations.push_back(
        "drain-timeout: " + std::to_string(workload.in_flight()) +
        " operation(s) still in flight after heal + " +
        std::to_string(cfg_.drain_timeout / sim::kSecond) + "s");
  }

  // End-state convergence: after heal + drain, every synced replica of each
  // group must hold identical application state at the same version. This
  // is the authoritative divergence invariant under chaos — a partition
  // legitimately diverges the components mid-run (the paper's partitioned
  // operation), and reconciliation on remerge must erase the difference.
  for (const std::string& name : audit_groups) {
    bool have_ref = false;
    sim::NodeId ref_node = 0;
    std::uint64_t ref_version = 0;
    std::uint64_t ref_digest = 0;
    for (sim::NodeId n = 0; n < cfg_.nodes; ++n) {
      rep::Engine& e = domain.engine(n);
      if (!e.hosts(name) || !e.is_synced(name)) continue;
      const auto replica = e.local_replica(name);
      if (!replica) continue;
      const std::uint64_t version = e.state_version(name);
      const std::uint64_t digest = rep::digest_state(*replica, version);
      if (!have_ref) {
        have_ref = true;
        ref_node = n;
        ref_version = version;
        ref_digest = digest;
      } else if (version != ref_version || digest != ref_digest) {
        r.violations.push_back(
            "state-divergence: group " + name + " node " + std::to_string(n) +
            " v" + std::to_string(version) + " digest " +
            std::to_string(digest) + " != node " + std::to_string(ref_node) +
            " v" + std::to_string(ref_version) + " digest " +
            std::to_string(ref_digest) + " after drain");
      }
    }
  }

  if (cfg_.audit) {
    if (cfg_.inject_duplicate) {
      // Fixture: forge a second ExecStart for an executed operation, as a
      // replica that violated exactly-once execution would have recorded.
      for (const obs::FlightRecord& rec : fr.records()) {
        if (rec.stream == obs::FlightRecord::Stream::Span &&
            rec.span_event() == obs::SpanEvent::ExecStart) {
          obs::FlightRecord dup = rec;
          dup.time += 1;
          dup.end = dup.time;
          dup.span_id += 1'000'000;
          fr.absorb(dup);
          break;
        }
      }
    }
    obsctl::Analysis analysis;
    analysis.add_records(fr.records());
    for (const obsctl::AuditViolation& v : analysis.audit()) {
      r.violations.push_back(v.str());
    }
    r.records_dropped = fr.dropped();
  }

  const auto total = [&domain](auto get) { return domain.total(get); };
  r.duplicates_dropped = total([](const rep::EngineCounters& s) {
    return s.duplicate_invocations_dropped.value() +
           s.duplicate_replies_resent.value();
  });
  r.sends_suppressed = total([](const rep::EngineCounters& s) {
    return s.sends_suppressed.value() + s.responses_suppressed.value();
  });
  r.failovers =
      total([](const rep::EngineCounters& s) { return s.failovers.value(); });
  r.divergences = total([](const rep::EngineCounters& s) {
    return s.divergences_detected.value();
  });
  r.replicas_spawned = rm.replicas_spawned();
  // Oracle-silence is only an invariant while the total order never split:
  // chaos motifs (partitions, but also gray lag or clock skew exceeding the
  // failure detector) can split the ring, and components then diverge *by
  // design* until remerge reconciliation — which the end-state check above
  // verifies. With no campaign running, any conviction is real replica
  // nondeterminism.
  const bool campaign_ran = !cfg_.fault_free && chaos.motif_count() > 0;
  if (r.divergences > 0 && !campaign_ran) {
    r.violations.push_back("divergence-oracle: " +
                           std::to_string(r.divergences) +
                           " digest mismatch(es) convicted in a fault-free "
                           "run");
  }

  r.workload = workload.stats();
  r.clean = r.violations.empty();
  if (!r.clean && cfg_.audit && !cfg_.dump_dir.empty()) {
    const std::string path =
        cfg_.dump_dir + "/soak-seed" + std::to_string(seed) + ".bin";
    if (fr.dump(path)) r.dump_path = path;
  }
  // Durable violations also leave the disk farm behind — `recoverctl
  // inspect <dir>` reads the journals and checkpoints the failing run
  // would have recovered from.
  if (!r.clean && cfg_.durable && !cfg_.dump_dir.empty()) {
    const std::string fdir =
        cfg_.dump_dir + "/soak-seed" + std::to_string(seed) + "-farm";
    if (farm->save_to(fdir)) r.farm_dump_path = fdir;
  }
  return r;
}

std::vector<SoakResult> SoakRunner::sweep(
    std::uint64_t first, std::uint64_t count,
    const std::function<void(const SoakResult&)>& on_result) {
  std::vector<SoakResult> results;
  results.reserve(count);
  for (std::uint64_t s = first; s < first + count; ++s) {
    results.push_back(run(s));
    if (on_result) on_result(results.back());
  }
  return results;
}

}  // namespace eternal::soak
