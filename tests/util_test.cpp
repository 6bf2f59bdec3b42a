#include <gtest/gtest.h>

#include <set>

#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace eternal::util {
namespace {

TEST(Prng, DeterministicFromSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Prng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Prng, BelowCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, BetweenInclusive) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.between(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Prng, Uniform01InRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, ChanceExtremes) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Prng, ExponentialMeanApprox) {
  Xoshiro256 rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Hash, Fnv1aStable) {
  EXPECT_EQ(fnv1a("hello"), fnv1a("hello"));
  EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
  EXPECT_NE(fnv1a(""), fnv1a_u64(0));
}

TEST(Hash, CombineChangesWithOrder) {
  auto a = hash_combine(hash_combine(0, 1), 2);
  auto b = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(Summary, BasicStats) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Summary, PercentileEdges) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Summary, ClearReleasesCapacity) {
  Summary s;
  for (int i = 0; i < 10000; ++i) s.add(i);
  ASSERT_GT(s.capacity(), 0u);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.capacity(), 0u);
  // Still usable after the storage swap.
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(Summary, DescribeEmptyAndPopulated) {
  Summary s;
  EXPECT_EQ(s.describe(), "n=0 (no samples)");
  s.add(1.0);
  s.add(3.0);
  const std::string d = s.describe();
  EXPECT_NE(d.find("n=2"), std::string::npos);
  EXPECT_NE(d.find("min=1"), std::string::npos);
  EXPECT_NE(d.find("max=3"), std::string::npos);
  s.clear();
  EXPECT_EQ(s.describe(), "n=0 (no samples)");
}

TEST(Summary, AddAfterReadKeepsConsistency) {
  Summary s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  s.add(20);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
}

// The Logger is a process-wide singleton: each test restores the silent
// default so the suite stays quiet regardless of ordering.
struct LoggerSpecTest : ::testing::Test {
  void TearDown() override {
    Logger::instance().clear_component_levels();
    Logger::instance().set_level(LogLevel::Off);
  }
};

TEST_F(LoggerSpecTest, ConfigureDefaultLevel) {
  Logger& lg = Logger::instance();
  EXPECT_TRUE(lg.configure("info"));
  EXPECT_EQ(lg.level(), LogLevel::Info);
  EXPECT_TRUE(lg.enabled(LogLevel::Warn));
  EXPECT_FALSE(lg.enabled(LogLevel::Debug));
  EXPECT_TRUE(lg.enabled_for(LogLevel::Info, "totem"));
}

TEST_F(LoggerSpecTest, ConfigurePerComponentOverrides) {
  Logger& lg = Logger::instance();
  EXPECT_TRUE(lg.configure("warn,totem=debug,engine=trace"));
  EXPECT_EQ(lg.level(), LogLevel::Warn);
  // Fast gate admits the most verbose override...
  EXPECT_TRUE(lg.enabled(LogLevel::Trace));
  // ...and the per-component check applies the right level.
  EXPECT_TRUE(lg.enabled_for(LogLevel::Debug, "totem"));
  EXPECT_FALSE(lg.enabled_for(LogLevel::Trace, "totem"));
  EXPECT_TRUE(lg.enabled_for(LogLevel::Trace, "engine"));
  EXPECT_FALSE(lg.enabled_for(LogLevel::Info, "ftd"));
  EXPECT_TRUE(lg.enabled_for(LogLevel::Error, "ftd"));
}

TEST_F(LoggerSpecTest, ConfigureRejectsBadSpecsUntouched) {
  Logger& lg = Logger::instance();
  ASSERT_TRUE(lg.configure("error,totem=info"));
  EXPECT_FALSE(lg.configure("loud"));               // unknown level
  EXPECT_FALSE(lg.configure("info,totem=loud"));    // unknown override
  EXPECT_FALSE(lg.configure("info,=debug"));        // missing component
  EXPECT_FALSE(lg.configure(""));                   // empty spec
  EXPECT_FALSE(lg.configure("totem=debug,info"));   // default must lead
  // A rejected spec leaves the previous configuration in place.
  EXPECT_EQ(lg.level(), LogLevel::Error);
  EXPECT_TRUE(lg.enabled_for(LogLevel::Info, "totem"));
}

TEST_F(LoggerSpecTest, ComponentOverridesWithoutDefault) {
  Logger& lg = Logger::instance();
  ASSERT_TRUE(lg.configure("totem=debug"));
  EXPECT_EQ(lg.level(), LogLevel::Off);  // default untouched
  EXPECT_TRUE(lg.enabled_for(LogLevel::Debug, "totem"));
  EXPECT_FALSE(lg.enabled_for(LogLevel::Error, "engine"));
}

}  // namespace
}  // namespace eternal::util
