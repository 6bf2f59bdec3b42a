// Soak harness tests: schedule determinism, workload shaping, chaos-plan
// constraints, and the violation-reporting path (injected-duplicate
// fixture + seed repro). The seed-swept campaigns themselves run in the
// `soak` ctest tier (sharded soakctl sweeps, excluded from the default
// tier); these tests keep the harness honest at unit scale.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/obs.hpp"
#include "rep/domain.hpp"
#include "soak/chaos.hpp"
#include "soak/runner.hpp"
#include "soak/workload.hpp"

namespace eternal {
namespace {

// Small-but-real schedule: full stack, short window, modest load.
soak::SoakConfig small_config() {
  soak::SoakConfig cfg;
  cfg.nodes = 5;
  cfg.groups = 3;
  cfg.replicas = 3;
  cfg.workload.clients = 2;
  cfg.workload.offered_rate = 150.0;
  cfg.run_time = sim::kSecond;
  cfg.chaos.start = 200 * sim::kMillisecond;
  cfg.chaos.duration = 500 * sim::kMillisecond;
  cfg.chaos.motifs = 2;
  return cfg;
}

TEST(SoakRunner, SmallScheduleRunsClean) {
  soak::SoakRunner runner(small_config());
  const soak::SoakResult r = runner.run(5);
  EXPECT_TRUE(r.clean) << r.summary();
  EXPECT_GT(r.workload.issued, 0u);
  EXPECT_EQ(r.workload.completed, r.workload.issued - r.workload.shed);
  EXPECT_FALSE(r.campaign.empty());
  EXPECT_EQ(r.records_dropped, 0u)
      << "recorder ring too small for the audit to be sound";
}

TEST(SoakRunner, SameSeedReplaysBitIdentically) {
  soak::SoakRunner runner(small_config());
  const soak::SoakResult a = runner.run(17);
  const soak::SoakResult b = runner.run(17);
  EXPECT_EQ(a.campaign, b.campaign);
  EXPECT_EQ(a.workload.issued, b.workload.issued);
  EXPECT_EQ(a.workload.completed, b.workload.completed);
  EXPECT_EQ(a.workload.shed, b.workload.shed);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.violations, b.violations);
  ASSERT_FALSE(a.workload.latency_us.empty());
  EXPECT_DOUBLE_EQ(a.workload.latency_us.median(),
                   b.workload.latency_us.median());
}

TEST(SoakRunner, FaultFreeRunDrawsButNeverStartsCampaign) {
  soak::SoakConfig cfg = small_config();
  cfg.fault_free = true;
  soak::SoakRunner runner(cfg);
  const soak::SoakResult r = runner.run(9);
  EXPECT_TRUE(r.clean) << r.summary();
  EXPECT_FALSE(r.campaign.empty());  // spec reported for the record
  // No crashes → the RM never needs to restore a group. (Failovers are not
  // asserted zero: warm-passive primaries legitimately shift while replicas
  // join one by one during bootstrap.)
  EXPECT_EQ(r.replicas_spawned, 0u);
}

TEST(SoakRunner, InjectedDuplicateConvictsWithSeedRepro) {
  soak::SoakConfig cfg = small_config();
  cfg.fault_free = true;  // isolate the fixture from campaign noise
  cfg.inject_duplicate = true;
  soak::SoakRunner runner(cfg);
  const soak::SoakResult r = runner.run(7);
  ASSERT_FALSE(r.clean);
  bool convicted = false;
  for (const std::string& v : r.violations) {
    if (v.find("duplicate-execution") != std::string::npos) convicted = true;
  }
  EXPECT_TRUE(convicted) << r.summary();
  // The printed repro replays the exact schedule, fixture included.
  EXPECT_NE(r.repro.find("--seed 7"), std::string::npos) << r.repro;
  EXPECT_NE(r.repro.find("--inject-duplicate"), std::string::npos) << r.repro;
  EXPECT_EQ(r.repro, runner.repro_command(7));
}

TEST(SoakWorkload, ZipfSkewConcentratesLoadOnHotGroup) {
  soak::SoakConfig cfg = small_config();
  cfg.fault_free = true;
  cfg.workload.zipf_s = 2.0;  // strong skew: group 0 ≫ group 2
  soak::SoakRunner runner(cfg);
  const soak::SoakResult r = runner.run(11);
  ASSERT_TRUE(r.clean) << r.summary();

  // The run's flight-recorder records are still global after run();
  // reconstruct per-group operation counts from the audit's own timelines.
  obsctl::Analysis analysis;
  analysis.add_records(obs::FlightRecorder::global().records());
  std::size_t hot = 0, cold = 0;
  for (const obsctl::OpTimeline& t : analysis.timelines()) {
    if (t.group == "soak-g0") ++hot;
    if (t.group == "soak-g2") ++cold;
  }
  EXPECT_GT(hot, 0u);
  EXPECT_GT(hot, 2 * cold) << "hot=" << hot << " cold=" << cold;
}

TEST(SoakWorkload, ChurnTogglesClientsAndStaysClean) {
  soak::SoakConfig cfg = small_config();
  cfg.workload.churn_interval = 150 * sim::kMillisecond;
  soak::SoakRunner runner(cfg);
  const soak::SoakResult r = runner.run(13);
  EXPECT_TRUE(r.clean) << r.summary();
  EXPECT_GT(r.workload.churn_leaves + r.workload.churn_joins, 0u);
}

TEST(SoakChaos, SameSeedDrawsSameSpec) {
  sim::Simulation sim(1);
  sim::Network net(sim, 7);
  totem::Fabric fabric(sim, net);
  rep::Domain domain(fabric);
  soak::ChaosParams params;
  params.motifs = 4;
  soak::ChaosPlan a(domain, params, {0}, 42);
  soak::ChaosPlan b(domain, params, {0}, 42);
  soak::ChaosPlan c(domain, params, {0}, 43);
  EXPECT_EQ(a.spec(), b.spec());
  EXPECT_NE(a.spec(), c.spec());
  EXPECT_EQ(a.motif_count(), 4u);
}

TEST(SoakChaos, NeverCrashesProtectedNodes) {
  sim::Simulation sim(1);
  sim::Network net(sim, 7);
  totem::Fabric fabric(sim, net);
  rep::Domain domain(fabric);
  soak::ChaosParams params;
  params.motifs = 6;  // plenty of draws per seed
  const std::vector<sim::NodeId> protected_nodes{0, 1, 2};
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    soak::ChaosPlan plan(domain, params, protected_nodes, seed);
    // Parse every crash motif's target list out of the one-line spec:
    // "crash(n4,n6@723ms+519ms)" — targets are the tokens before '@'.
    const std::string& spec = plan.spec();
    std::size_t pos = 0;
    while ((pos = spec.find("crash(", pos)) != std::string::npos) {
      pos += 6;
      const std::size_t at = spec.find('@', pos);
      ASSERT_NE(at, std::string::npos) << spec;
      const std::string targets = spec.substr(pos, at - pos);
      for (sim::NodeId p : protected_nodes) {
        const std::string tok = "n" + std::to_string(p);
        std::size_t t = 0;
        while ((t = targets.find(tok, t)) != std::string::npos) {
          // "n1" must not match inside "n12": the token ends the list or
          // is followed by ','.
          const std::size_t end = t + tok.size();
          EXPECT_FALSE(end == targets.size() || targets[end] == ',')
              << "seed " << seed << " crashes protected n" << p << ": "
              << spec;
          ++t;
        }
      }
    }
  }
}

TEST(SoakChaos, HealAllRecoversMidCampaign) {
  sim::Simulation sim(3);
  sim::Network net(sim, 7);
  totem::Fabric fabric(sim, net);
  rep::Domain domain(fabric);
  fabric.start_all();
  ASSERT_TRUE(fabric.run_until_converged(2 * sim::kSecond));

  soak::ChaosParams params;
  params.start = 50 * sim::kMillisecond;
  params.duration = sim::kSecond;
  params.motifs = 4;
  soak::ChaosPlan plan(domain, params, {}, 21);
  plan.start();
  // Interrupt the campaign mid-window: motifs are still live, some not yet
  // applied. heal_all must restore everything regardless.
  sim.run_for(400 * sim::kMillisecond);
  plan.heal_all();
  EXPECT_TRUE(fabric.run_until_converged(10 * sim::kSecond));
  // Idempotent: calling again on a healed cluster is a no-op.
  plan.heal_all();
  EXPECT_TRUE(fabric.run_until_converged(2 * sim::kSecond));
}

}  // namespace
}  // namespace eternal
