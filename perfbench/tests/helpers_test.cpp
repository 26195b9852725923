// Tests for the benchmark's own helpers: the percentile and sample-count
// rule, span self time, `stats` parsing and deltas, and the seeded
// generators.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "helpers.hpp"
#include "inputs.hpp"
#include "litmus/canonical.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = iota(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.5), 7.0);
  EXPECT_THROW((void)percentile({}, 0.5), ssm::InvalidInput);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // p99 of n samples leaves n - ceil(0.99 n) beyond it: 10 needs n >= 1000.
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(tail_percentile(iota(999), 0.99).has_value());
  ASSERT_TRUE(tail_percentile(iota(1000), 0.99).has_value());
  EXPECT_EQ(*tail_percentile(iota(1000), 0.99), 990.0);
  EXPECT_TRUE(tail_percentile(iota(20), 0.5).has_value());
}

TEST(Summary, MediansOverSlices) {
  // Three slices; the middle one is a burst of contention.
  std::vector<Slice> slices(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const double scale = i == 1 ? 10.0 : 1.0 + 0.1 * static_cast<double>(i);
    slices[i].wall_s = 1.0;
    slices[i].items = 1000.0 / scale;
    slices[i].cpu_us = 2000.0;
    for (double v : iota(1000)) slices[i].latency_us.push_back(v * scale);
  }
  const PhaseSummary s = summarize(slices);
  EXPECT_DOUBLE_EQ(s.rate, 1000.0 / 1.2);
  EXPECT_DOUBLE_EQ(s.p50, 500.0 * 1.2);
  EXPECT_DOUBLE_EQ(s.cpu_per_item, 2000.0 / (1000.0 / 1.2));
  EXPECT_EQ(s.samples, 3000u);
  slices.resize(2);  // an even count takes the mean of the middle two
  EXPECT_DOUBLE_EQ(summarize(slices).rate, (1000.0 + 100.0) / 2);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> s(5);
  s[0] = {"root", 0, 100, -1, 1, -1};
  s[1] = {"a", 10, 30, 0, 1, -1};
  s[2] = {"b", 20, 40, 0, 1, -1};    // overlaps a: union 10..40
  s[3] = {"c", 90, 120, 0, 1, -1};   // overhangs the root: clipped to 90..100
  s[4] = {"d", 12, 18, 1, 1, -1};    // grandchild: counts against a only
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(Stats, ParsesAndSubtracts) {
  const std::string before =
      R"({"id": "s", "ok": true, "proto": 1, "stats": {"counters": )"
      R"({"service.cache_hits": 5,"service.requests": 7},"gauges": )"
      R"({"service.queue_depth": 2},"histograms": {"service.latency_us": )"
      R"({"count": 3, "sum": 30, "max": 12, "buckets": [[3, 2], [4, 1]]}}}})";
  const std::string after =
      R"({"id": "s", "ok": true, "proto": 1, "stats": {"counters": )"
      R"({"service.cache_hits": 9,"service.requests": 10,"checker.nodes": 4},)"
      R"("gauges": {"service.queue_depth": 0},"histograms": )"
      R"({"service.latency_us": {"count": 7, "sum": 90, "max": 40, )"
      R"("buckets": [[3, 2], [4, 2], [6, 3]]}}}})";
  const Snapshot d =
      delta(parse_stats_response(before), parse_stats_response(after));
  EXPECT_EQ(d.counter("service.cache_hits"), 4);
  EXPECT_EQ(d.counter("service.requests"), 3);
  EXPECT_EQ(d.counter("checker.nodes"), 4);  // absent before reads as 0
  EXPECT_EQ(d.counter("no.such"), 0);
  EXPECT_EQ(d.gauge("service.queue_depth"), 0);
  const Hist h = d.hist("service.latency_us");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 60u);
  EXPECT_EQ(h.buckets[4], 1u);
  EXPECT_EQ(h.buckets[6], 3u);
  // Rank 2 of 4 is the first of bucket 6's three samples in [32, 64);
  // rank 1 is bucket 4's only sample in [8, 16).
  EXPECT_DOUBLE_EQ(hist_percentile(h, 0.5), 32.0 + 32.0 * 0.5 / 3.0);
  EXPECT_DOUBLE_EQ(hist_percentile(h, 0.25), 12.0);
  EXPECT_DOUBLE_EQ(hist_percentile(h, 1.0), 32.0 + 32.0 * 2.5 / 3.0);
  EXPECT_EQ(hist_percentile(Hist{}, 0.5), 0.0);
}

TEST(Stats, RouterResponseSplitsNodes) {
  const std::string frame =
      R"({"id": "s", "ok": true, "nodes": [{"id": "agg", "ok": true, )"
      R"("stats": {"counters": {"service.requests": 3}}}, {"id": "agg", )"
      R"("ok": true, "stats": {"counters": {"service.requests": 5}}}], )"
      R"("stats": {"counters": {"cluster.retries": 1}}})";
  std::vector<Snapshot> nodes;
  const Snapshot router = parse_stats_response(frame, &nodes);
  EXPECT_EQ(router.counter("cluster.retries"), 1);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(sum(nodes).counter("service.requests"), 8);
}

TEST(Zipf, DeterministicAndSkewed) {
  const Zipf z(140, 1.0);
  ssm::Rng a(42);
  ssm::Rng b(42);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t x = z(a);
    ASSERT_EQ(x, z(b));
    ASSERT_LT(x, 140u);
    ++counts[x];
  }
  // Rank 0 is drawn about twice as often as rank 1 and far more than the tail.
  EXPECT_GT(counts[0], counts[1] * 3 / 2);
  EXPECT_GT(counts[0], 10 * counts[100]);
}

TEST(Generators, FreshProgramsAreDeterministicAndDistinct) {
  const auto a = fresh_programs(7, 40);
  const auto b = fresh_programs(7, 40);
  ASSERT_EQ(a.size(), 40u);
  std::set<std::string> keys;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].test.hist.num_processors(), 3u);
    EXPECT_TRUE(keys.insert(a[i].canon_key).second);
  }
  EXPECT_NE(fresh_programs(8, 1)[0].text, a[0].text);
}

TEST(Generators, ClonesAreDeterministicIsomorphicAndRenamed) {
  for (const Program& p : fresh_programs(3, 12)) {
    for (std::size_t k = 0; k < 3; ++k) {
      const Program c = clone_program(p, k);
      EXPECT_EQ(c.text, clone_program(p, k).text);
      EXPECT_NE(c.text, p.text);
      EXPECT_EQ(c.canon_key, p.canon_key);
      EXPECT_EQ(ssm::litmus::canonical_key(c.test), p.canon_key);
    }
  }
}

}  // namespace
}  // namespace perfbench
