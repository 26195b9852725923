#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/json.hpp"
#include "common/types.hpp"

namespace perfbench {

namespace json = ssm::common::json;

namespace {

std::size_t rank_of(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Uniform double in [0, 1) from the top 53 bits of one draw.
double unit(ssm::Rng& rng) noexcept {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

std::int64_t as_i64(const json::Value& v) {
  return static_cast<std::int64_t>(std::llround(v.as_double()));
}

Snapshot snapshot_from(const json::Value& stats) {
  Snapshot s;
  if (const auto* c = stats.find("counters")) {
    for (const auto& [name, v] : c->members()) s.counters[name] = as_i64(v);
  }
  if (const auto* g = stats.find("gauges")) {
    for (const auto& [name, v] : g->members()) s.gauges[name] = as_i64(v);
  }
  if (const auto* hs = stats.find("histograms")) {
    for (const auto& [name, v] : hs->members()) {
      Hist h;
      h.count = v.at("count").as_u64();
      h.sum = v.at("sum").as_u64();
      h.max = v.at("max").as_u64();
      for (const auto& pair : v.at("buckets").items()) {
        const std::uint64_t i = pair.items().at(0).as_u64();
        if (i >= h.buckets.size()) throw ssm::InvalidInput("bucket index");
        h.buckets[i] = pair.items().at(1).as_u64();
      }
      s.hists[name] = h;
    }
  }
  return s;
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw ssm::InvalidInput("percentile of empty sample");
  return sorted[rank_of(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

std::optional<double> tail_percentile(const std::vector<double>& sorted,
                                      double p) {
  if (samples_beyond(sorted.size(), p) < kMinBeyond) return std::nullopt;
  return percentile(sorted, p);
}

PhaseSummary summarize(const std::vector<Slice>& slices) {
  if (slices.empty()) throw ssm::InvalidInput("no slices to summarize");
  const auto median_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> cpus;
  PhaseSummary out;
  for (const Slice& s : slices) {
    std::vector<double> lat = s.latency_us;
    std::sort(lat.begin(), lat.end());
    rates.push_back(s.wall_s > 0 ? s.items / s.wall_s : 0.0);
    cpus.push_back(s.items > 0 ? s.cpu_us / s.items : 0.0);
    p50s.push_back(percentile(lat, 0.5));
    out.samples += lat.size();
  }
  out.rate = median_of(rates);
  out.p50 = median_of(p50s);
  out.cpu_per_item = median_of(cpus);
  return out;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::int64_t Snapshot::counter(std::string_view name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::int64_t Snapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

Hist Snapshot::hist(std::string_view name) const {
  const auto it = hists.find(name);
  return it == hists.end() ? Hist{} : it->second;
}

Snapshot parse_snapshot(std::string_view stats_json) {
  return snapshot_from(json::parse(stats_json));
}

Snapshot parse_stats_response(std::string_view frame,
                              std::vector<Snapshot>* node_snapshots) {
  const json::Value doc = json::parse(frame);
  if (!doc.at("ok").as_bool()) throw ssm::InvalidInput("stats op failed");
  if (node_snapshots != nullptr) {
    node_snapshots->clear();
    if (const auto* nodes = doc.find("nodes")) {
      for (const auto& n : nodes->items()) {
        node_snapshots->push_back(snapshot_from(n.at("stats")));
      }
    }
  }
  return snapshot_from(doc.at("stats"));
}

Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (const auto& [name, v] : after.counters) {
    d.counters[name] = v - before.counter(name);
  }
  d.gauges = after.gauges;
  for (const auto& [name, h] : after.hists) {
    const Hist b = before.hist(name);
    Hist out;
    out.count = h.count - b.count;
    out.sum = h.sum - b.sum;
    out.max = h.max;  // the registry keeps no per-window max
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
      out.buckets[i] = h.buckets[i] - b.buckets[i];
    }
    d.hists[name] = out;
  }
  return d;
}

Snapshot sum(const std::vector<Snapshot>& parts) {
  Snapshot s;
  for (const Snapshot& p : parts) {
    for (const auto& [name, v] : p.counters) s.counters[name] += v;
    for (const auto& [name, v] : p.gauges) s.gauges[name] += v;
    for (const auto& [name, h] : p.hists) {
      Hist& out = s.hists[name];
      out.count += h.count;
      out.sum += h.sum;
      out.max = std::max(out.max, h.max);
      for (std::size_t i = 0; i < out.buckets.size(); ++i) {
        out.buckets[i] += h.buckets[i];
      }
    }
  }
  return s;
}

double hist_percentile(const Hist& h, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : h.buckets) total += b;
  if (total == 0) return 0.0;
  const std::size_t rank = rank_of(total, p);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t in = h.buckets[i];
    if (seen + in >= rank) {
      if (i == 0) return 0.0;
      // The bucket's samples are taken as evenly spread over [lo, 2 lo).
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      return lo + lo * (static_cast<double>(rank - seen) - 0.5) /
                      static_cast<double>(in);
    }
    seen += in;
  }
  return 0.0;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw ssm::InvalidInput("Zipf over an empty range");
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(ssm::Rng& rng) const {
  const double u = unit(rng);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace perfbench
