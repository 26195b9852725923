// Pure helpers of the repo benchmark: percentiles with the sample-count
// rule, span self time, `stats` snapshot parsing and deltas, and the Zipf
// sampler.  Everything here is deterministic and unit-tested
// (perfbench/tests/helpers_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that the number is one or two outliers, not a tail.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(p * n).  Requires a non-empty sample and 0 < p <= 1.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Samples lying strictly after the nearest-rank p-percentile position.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The p-percentile when at least kMinBeyond samples lie beyond it,
/// otherwise nullopt (the sample cannot support that percentile).
[[nodiscard]] std::optional<double> tail_percentile(
    const std::vector<double>& sorted, double p);

/// One equal-length wall-clock slice of a timed phase.
struct Slice {
  double wall_s = 0.0;
  double items = 0.0;   ///< requests (or trace ops) completed
  double cpu_us = 0.0;  ///< CPU spent by the measured processes
  std::vector<double> latency_us;
};

/// What a timed phase reports: rate, p50 and CPU per item, each the median
/// over the slices, so that a burst of contention from other tenants of
/// the host in one slice does not move the run's numbers.
struct PhaseSummary {
  double rate = 0.0;
  double p50 = 0.0;
  double cpu_per_item = 0.0;
  std::size_t samples = 0;
};

/// Summarizes non-empty slices (each with at least one latency sample).
[[nodiscard]] PhaseSummary summarize(const std::vector<Slice>& slices);

/// One traced interval.  `parent` indexes the same span vector (-1 for a
/// root); all spans of one request share `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::int32_t detail = -1;  ///< optional index (the model of a check span)
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent, so
/// overlapping or overhanging children are never double-subtracted).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// One log2 histogram from the metrics registry: bucket i counts samples v
/// with bit_width(v) == i.
struct Hist {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, 65> buckets{};
};

/// The `stats` object of a `stats` response (counters, gauges, histograms).
struct Snapshot {
  std::map<std::string, std::int64_t, std::less<>> counters;
  std::map<std::string, std::int64_t, std::less<>> gauges;
  std::map<std::string, Hist, std::less<>> hists;

  /// Missing instruments read as zero: the registry creates them lazily.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  [[nodiscard]] std::int64_t gauge(std::string_view name) const;
  [[nodiscard]] Hist hist(std::string_view name) const;
};

/// Parses the JSON text of a registry snapshot (the value of `"stats"`).
/// Throws ssm::InvalidInput on malformed input.
[[nodiscard]] Snapshot parse_snapshot(std::string_view stats_json);

/// Extracts and parses the `"stats"` member of a whole `stats` response
/// frame.  For a router's aggregated response it returns the router's own
/// snapshot; `node_snapshots` (when given) receives each node's.
[[nodiscard]] Snapshot parse_stats_response(
    std::string_view frame, std::vector<Snapshot>* node_snapshots = nullptr);

/// after - before for counters and histograms; gauges keep `after`.
[[nodiscard]] Snapshot delta(const Snapshot& before, const Snapshot& after);

/// Element-wise sum (aggregates several nodes into one).
[[nodiscard]] Snapshot sum(const std::vector<Snapshot>& parts);

/// The nearest-rank p-quantile of a log2 histogram, interpolated inside
/// its bucket [2^(i-1), 2^i) as if the bucket's samples were evenly spread
/// (the k-th of n at 2^(i-1) * (1 + (k - 0.5) / n)); 0 for bucket 0 and
/// for an empty histogram.
[[nodiscard]] double hist_percentile(const Hist& h, double p);

/// Zipf(s) over ranks [0, n): P(r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t operator()(ssm::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
