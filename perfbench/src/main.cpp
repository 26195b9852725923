// perfbench — the repo benchmark's load generator (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --ssm PATH --work DIR --pins FILE [--revision REV]
//
// Runs one workload against real `ssm serve` / `ssm route` children (or,
// for trace-stream, the library's streaming checker), checks every output,
// and prints as its last stdout line one JSON object: the end-to-end
// metrics (--trace 0) or the per-layer metrics of a separate traced run
// (--trace 1).  Human-readable progress goes to stderr; the host envelope
// and the spans go to files under DIR/results.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "helpers.hpp"
#include "inputs.hpp"
#include "load.hpp"
#include "models/registry.hpp"
#include "proc.hpp"
#include "service/client.hpp"
#include "trace/format.hpp"
#include "trace/streaming.hpp"

namespace perfbench {
namespace {

namespace json = ssm::common::json;
namespace fs = std::filesystem;

/// Seed whose verdict digests are pinned in perfbench/digests.json.
constexpr std::uint64_t kDefaultSeed = 1;
/// Programs of the digest gate, re-sent after the measured phases.
constexpr std::size_t kGatePrograms = 16;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 7;
/// Slices of a timed phase (helpers.hpp: PhaseSummary).
constexpr std::size_t kSlices = 16;

// Workload shapes (README.md explains each choice).
constexpr std::size_t kFreshTraced = 240;     // reserved for the traced run
constexpr std::size_t kWarmEpochs = 8;
constexpr std::size_t kWarmBase = 48;         // working set, well under 4096
constexpr std::size_t kWarmClones = 8;        // clones per working-set program
constexpr std::size_t kWarmStream = 4096;
constexpr std::size_t kWarmTraced = 4000;
constexpr std::size_t kRouteEpochs = 4;
constexpr std::size_t kRouteUniverse = 140;   // > one node's cache, < two
constexpr double kRouteZipf = 0.7;
constexpr std::size_t kRouteBatch = 8;
constexpr std::size_t kRouteStream = 2048;
constexpr std::size_t kRouteWarmup = 256;
constexpr std::size_t kRouteTraced = 300;
constexpr std::uint64_t kRouteRaceBudget = 40;
constexpr std::uint64_t kTraceOps = 3'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string ssm;
  std::string work;
  std::string pins;
  std::string revision = "unknown";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The per-layer metrics every traced run prints (0 where a layer is not
/// on the workload's path).  BENCHMARK.json lists the same names.
std::vector<Metric> per_layer_template() {
  std::vector<Metric> m = {
      {"service.server_p50_us", "us"},
      {"service.server_p99_us", "us"},
      {"service.transport_p50_us", "us"},
      {"service.solve_ms_sum", "ms"},
      {"service.solve_p99_us", "us"},
      {"service.hit_ratio", "ratio"},
      {"service.resolve_ratio", "ratio"},
      {"service.budget_upgrades", "count"},
      {"service.canonical_hit_ratio", "ratio"},
      {"service.dedup_waits", "count"},
      {"service.shard_locks_per_req", "count"},
      {"service.epoll_wakeups_per_req", "count"},
      {"service.batch_size_mean", "count"},
      {"service.queue_depth_max", "count"},
      {"service.rejected", "count"},
      {"service.threads", "count"},
      {"protocol.parse_frame_us", "us"},
      {"litmus.parse_us", "us"},
      {"litmus.canonicalize_us", "us"},
      {"cache.get_many_us", "us"},
      {"litmus.remap_us", "us"},
      {"protocol.serialize_us", "us"},
      {"litmus.identity_frac", "ratio"},
      {"checker.nodes_per_cell", "count"},
      {"checker.memo_hit_ratio", "ratio"},
      {"checker.searches_per_cell", "count"},
      {"checker.exhausted", "count"},
      {"checker.cancelled", "count"},
      {"checker.verify_us", "us"},
      {"checker.verifies_per_req", "count"},
  };
  for (const std::string& name : ssm::models::model_names()) {
    m.push_back({"models." + name + ".check_ms", "ms"});
  }
  const std::vector<Metric> rest = {
      {"solve.encode_checks", "count"},
      {"solve.search_wins", "count"},
      {"solve.encode_wins", "count"},
      {"solve.cancel_p99_us", "us"},
      {"scheduler.steals_per_unit", "count"},
      {"scheduler.steal_failures_per_unit", "count"},
      {"process.cpu_per_wall", "ratio"},
      {"trace.read_ns_per_op", "ns"},
      {"trace.feed_ns_per_op", "ns"},
      {"trace.window_check_p50_us", "us"},
      {"trace.window_check_p99_us", "us"},
      {"trace.dropped_ops", "count"},
      {"trace.ring_evictions", "count"},
      {"cluster.hop_p50_us", "us"},
      {"cluster.retries", "count"},
      {"cluster.failovers", "count"},
      {"cluster.node_share_max", "ratio"},
      {"cluster.router_threads", "count"},
      {"cluster.router_cpu_us_per_req", "us"},
      {"client.cpu_us_per_req", "us"},
      {"client.latency_p99_us", "us"},
      {"run.failed_frac", "ratio"},
      {"run.inconclusive_frac", "ratio"},
      {"tracing.overhead_frac", "ratio"},
      {"tracing.spans", "count"},
      {"tracing.root_self_us", "us"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Collected results of one run.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::string digest;
  std::vector<std::string> commands;
  std::map<std::string, double> notes;  ///< sample counts and such

  void fail(std::string msg) {
    ++failed;
    if (errors.size() < 16) errors.push_back(std::move(msg));
  }
  void set(const std::string& name, double v) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = v;
        return;
      }
    }
    throw ssm::InvalidInput("unknown metric " + name);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 0.5);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Sets the rate, latency and CPU metrics from a timed phase's slices.
void set_summary(Result& r, const std::vector<Slice>& slices,
                 const char* what) {
  bool empty = slices.empty();
  for (const Slice& s : slices) empty = empty || s.latency_us.empty();
  if (empty) {
    r.fail(std::string("a slice without ") + what + " samples");
    return;
  }
  const PhaseSummary sum = summarize(slices);
  r.notes[std::string(what) + "_samples"] = static_cast<double>(sum.samples);
  r.set("rate_per_s", sum.rate);
  r.set("latency_p50_us", sum.p50);
  r.set("cpu_us_per_item", sum.cpu_per_item);
}

/// The client-side p99 of an untraced phase, under the sample-count rule
/// (0 when the sample cannot support it).
void set_client_p99(Result& r, std::vector<double> lat) {
  std::sort(lat.begin(), lat.end());
  r.notes["client_latency_samples"] = static_cast<double>(lat.size());
  r.set("client.latency_p99_us", tail_percentile(lat, 0.99).value_or(0.0));
}

std::vector<Metric> end_to_end_template() {
  return {{"setup_s", "s"},           {"rate_per_s", "1/s"},
          {"latency_p50_us", "us"},   {"cpu_us_per_item", "us"},
          {"rss_peak_mb", "MB"},      {"definite_frac", "ratio"}};
}

/// Mean duration and mean self time (µs) of every span name.
struct SpanStats {
  std::map<std::string, std::pair<double, double>> mean_us;  // dur, self
  std::map<std::string, std::uint64_t> count;
};

SpanStats span_stats(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::pair<double, double>> sums;
  SpanStats out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& s = sums[spans[i].name];
    s.first += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    s.second += static_cast<double>(self[i]);
    ++out.count[spans[i].name];
  }
  for (const auto& [name, s] : sums) {
    const auto n = static_cast<double>(out.count[name]);
    out.mean_us[name] = {s.first / n / 1e3, s.second / n / 1e3};
  }
  return out;
}

double span_mean(const SpanStats& s, const std::string& name) {
  const auto it = s.mean_us.find(name);
  return it == s.mean_us.end() ? 0.0 : it->second.first;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& models) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"i\": " << i << ", \"request\": " << s.request
        << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i];
    if (s.detail >= 0 && static_cast<std::size_t>(s.detail) < models.size()) {
      out << ", \"model\": \"" << models[static_cast<std::size_t>(s.detail)]
          << "\"";
    }
    out << "}\n";
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Compares `digest` against the pin for this workload at the default
/// seed (other seeds have no pin: their gate is the per-response checks).
void check_pin(Result& r, const Args& args) {
  if (args.seed != kDefaultSeed) return;
  const json::Value pins = json::parse(read_file(args.pins));
  const json::Value* pin = pins.find(args.workload);
  if (pin == nullptr) {
    r.fail("no pinned digest for " + args.workload);
  } else if (pin->as_string() != r.digest) {
    r.fail("verdict digest " + r.digest + " differs from pinned " +
           pin->as_string());
  }
}

// ------------------------------------------------------- service workloads

/// One working set of a service workload: its warm-up frames (part of
/// set-up for the first epoch, an untimed pause before the others) and the
/// stream its timed slice draws from.
struct Epoch {
  std::vector<Frame> setup;
  std::vector<Frame> stream;
};

struct ServiceWorkload {
  std::vector<Program> progs;
  /// The timed phase splits evenly over the epochs, so one run averages
  /// over several independently drawn working sets: the cost of a hit or
  /// a routed batch depends on the programs, and a single small working
  /// set would make the numbers depend on the seed.
  std::vector<Epoch> epochs;
  std::size_t timed_first = 0;
  std::size_t traced_first = 0;
  std::size_t traced_count = 0;
  bool cyclic = false;
  unsigned nodes = 1;
  bool routed = false;
};

std::string elem_id(const char* tag, std::size_t e, std::size_t i,
                    std::size_t j = 0) {
  return std::string(tag) + std::to_string(e) + "." + std::to_string(i) +
         "." + std::to_string(j);
}

ServiceWorkload build_fresh(std::uint64_t seed, double seconds) {
  ServiceWorkload w;
  // More distinct programs than any run at the current speed can send; a
  // run that exhausts them ends early and still reports its true rate.
  const auto timed = static_cast<std::size_t>(std::max(4000.0, seconds * 1200));
  w.progs = fresh_programs(seed * 4 + 1, kFreshTraced + timed);
  Epoch e;
  for (std::size_t i = 0; i < w.progs.size(); ++i) {
    e.stream.push_back(make_frame(
        w.progs,
        {Elem{static_cast<std::uint32_t>(i), false, elem_id("f", 0, i)}}, 0));
  }
  w.epochs.push_back(std::move(e));
  w.timed_first = kFreshTraced;
  w.traced_first = 0;
  w.traced_count = kFreshTraced;
  return w;
}

ServiceWorkload build_warm(std::uint64_t seed) {
  ServiceWorkload w;
  const std::vector<Program> bases =
      fresh_programs(seed * 4 + 2, kWarmEpochs * kWarmBase);
  ssm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  for (std::size_t ep = 0; ep < kWarmEpochs; ++ep) {
    // Layout per epoch: kWarmBase programs, then kWarmClones clones of each.
    const std::size_t first = w.progs.size();
    for (std::size_t b = 0; b < kWarmBase; ++b) {
      w.progs.push_back(bases[ep * kWarmBase + b]);
    }
    for (std::size_t b = 0; b < kWarmBase; ++b) {
      for (std::size_t k = 0; k < kWarmClones; ++k) {
        w.progs.push_back(clone_program(w.progs[first + b], k));
      }
    }
    Epoch e;
    for (std::size_t b = 0; b < kWarmBase; ++b) {
      e.setup.push_back(make_frame(
          w.progs,
          {Elem{static_cast<std::uint32_t>(first + b), false,
                elem_id("w", ep, b)}},
          0));
    }
    for (std::size_t i = 0; i < kWarmStream; ++i) {
      const auto b = rng.below(kWarmBase);
      // Half exact resubmissions, half isomorphic clones.
      const std::uint64_t prog =
          rng.chance(1, 2)
              ? first + b
              : first + kWarmBase + b * kWarmClones + rng.below(kWarmClones);
      e.stream.push_back(make_frame(
          w.progs,
          {Elem{static_cast<std::uint32_t>(prog), false, elem_id("s", ep, i)}},
          0));
    }
    w.epochs.push_back(std::move(e));
  }
  w.cyclic = true;
  w.traced_count = kWarmTraced;
  return w;
}

ServiceWorkload build_route(std::uint64_t seed) {
  ServiceWorkload w;
  w.progs = fresh_programs(seed * 4 + 3, kRouteEpochs * kRouteUniverse);
  const Zipf zipf(kRouteUniverse, kRouteZipf);
  ssm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  for (std::size_t ep = 0; ep < kRouteEpochs; ++ep) {
    Epoch e;
    for (std::size_t i = 0; i < kRouteStream; ++i) {
      std::vector<Elem> elems;
      for (std::size_t j = 0; j < kRouteBatch; ++j) {
        const auto prog =
            static_cast<std::uint32_t>(ep * kRouteUniverse + zipf(rng));
        elems.push_back(Elem{prog, rng.chance(1, 4), elem_id("b", ep, i, j)});
      }
      e.stream.push_back(
          make_frame(w.progs, std::move(elems), kRouteRaceBudget));
    }
    e.setup.assign(e.stream.begin(), e.stream.begin() + kRouteWarmup);
    w.epochs.push_back(std::move(e));
  }
  w.cyclic = true;
  w.traced_count = kRouteTraced;
  w.nodes = 2;
  w.routed = true;
  return w;
}

/// The running children of one set-up.
struct Topology {
  std::vector<std::unique_ptr<Child>> nodes;
  std::unique_ptr<Child> router;
  std::string socket;  ///< where clients connect

  [[nodiscard]] std::vector<pid_t> server_pids() const {
    std::vector<pid_t> out;
    for (const auto& n : nodes) out.push_back(n->pid());
    if (router) out.push_back(router->pid());
    return out;
  }
};

/// Children listen on unix sockets under the work directory, named by a
/// path relative to the checkout: the router's hash ring is keyed on node
/// addresses, so fixed names give the same key placement on every run
/// (kernel-assigned TCP ports would reshuffle it).
Topology start_topology(const Args& args, const ServiceWorkload& w, int rep) {
  Topology t;
  const std::string base = args.work + "/run/" + args.workload;
  const std::string suffix = "-rep" + std::to_string(rep) + ".log";
  for (unsigned i = 0; i < w.nodes; ++i) {
    const std::string sock = base + "-n" + std::to_string(i) + ".sock";
    t.nodes.push_back(std::make_unique<Child>(
        std::vector<std::string>{args.ssm, "serve", "--socket", sock},
        base + "-serve" + std::to_string(i) + suffix));
  }
  t.socket = t.nodes.front()->address();
  if (w.routed) {
    const std::string sock = base + "-r.sock";
    std::vector<std::string> argv{args.ssm, "route", "--socket", sock};
    for (const auto& n : t.nodes) {
      argv.push_back("--node");
      argv.push_back("unix:" + n->address());
    }
    t.router = std::make_unique<Child>(argv, base + "-route" + suffix);
    t.socket = t.router->address();
  }
  auto client = ssm::service::Client::connect_unix(t.socket);
  const std::string pong = client.call("{\"op\": \"ping\", \"id\": \"ping\"}");
  if (pong.find("\"ok\": true") == std::string::npos) {
    throw ssm::InvalidInput("ping failed: " + pong);
  }
  return t;
}

std::string command_line(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& a : argv) {
    if (!out.empty()) out += ' ';
    out += a;
  }
  return out;
}

/// `stats` of the serving side: the router's own snapshot plus the sum of
/// the nodes' (single node: the node's snapshot is the server side).
struct Stats {
  Snapshot server;              // summed over nodes
  std::vector<Snapshot> nodes;  // per node
  Snapshot router;
};

Stats read_stats(const Topology& t) {
  auto client = ssm::service::Client::connect_unix(t.socket);
  const std::string line = client.call("{\"op\": \"stats\", \"id\": \"stats\"}");
  Stats s;
  if (t.router) {
    s.router = parse_stats_response(line, &s.nodes);
  } else {
    s.nodes.push_back(parse_stats_response(line));
  }
  s.server = sum(s.nodes);
  return s;
}

double total_cpu_us(const std::vector<pid_t>& pids) {
  double total = 0.0;
  for (const pid_t p : pids) total += cpu_us(p);
  return total;
}

/// Polls `stats` while a phase runs, keeping the largest admission-queue
/// depth any node reported.
class QueueSampler {
 public:
  explicit QueueSampler(const Topology& t) : topo_(t) {
    thread_ = std::thread([this] { loop(); });
  }
  ~QueueSampler() { stop(); }
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  [[nodiscard]] std::int64_t max_depth() const { return max_.load(); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      lock.unlock();
      try {
        for (const Snapshot& n : read_stats(topo_).nodes) {
          std::int64_t cur = max_.load();
          const std::int64_t d = n.gauge("service.queue_depth");
          while (d > cur && !max_.compare_exchange_weak(cur, d)) {
          }
        }
      } catch (const std::exception&) {
        // A missed sample only lowers the observed maximum.
      }
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return done_; });
    }
  }

  const Topology& topo_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<std::int64_t> max_{0};
  std::thread thread_;
};

/// Sends the gate programs one at a time and digests their verdicts.
std::string run_gate(LoadState& load, const ServiceWorkload& w, Result& r) {
  std::vector<Frame> frames;
  for (std::size_t g = 0; g < kGatePrograms && g < w.progs.size(); ++g) {
    frames.push_back(make_frame(
        w.progs,
        {Elem{static_cast<std::uint32_t>(g), false, elem_id("g", 0, g)}},
        0));
  }
  std::vector<std::string> lines;
  PhaseSpec spec;
  spec.frames = &frames;
  spec.count = frames.size();
  spec.responses = &lines;
  const PhaseResult gate = load.run(spec);
  r.attempted += gate.elems;
  r.failed += gate.failed;
  for (const auto& e : gate.errors) r.errors.push_back(e);
  std::string flat;
  for (const std::string& line : lines) {
    const json::Value doc = json::parse(line);
    for (const auto& res : doc.at("results").items()) {
      flat += res.at("model").as_string() + ":" +
              res.at("verdict").as_string() + ";";
    }
    flat += '\n';
  }
  if (lines.size() != frames.size()) r.fail("gate responses missing");
  return ssm::service::hex16(ssm::service::fnv1a64(flat));
}

void run_service(const Args& args, Result& r) {
  // One CPU and one connection.  On a VM, a request handed to a thread on
  // an idle vCPU waits until the host runs that vCPU again; on a busy
  // shared host that wait, not the program, set the numbers (with four
  // connections over four vCPUs the rate varied by about half its median
  // between runs).  With the load generator and every server thread on one
  // CPU, the CPU never idles during the closed loop, so the numbers are
  // the program's own per-request work.  The children inherit the
  // affinity.
  r.notes["cpu"] = pin_to_one_cpu();
  ServiceWorkload w;
  if (args.workload == "serve-fresh") {
    w = build_fresh(args.seed, args.seconds);
  } else if (args.workload == "serve-warm") {
    w = build_warm(args.seed);
  } else {
    w = build_route(args.seed);
  }

  Topology topo;
  std::unique_ptr<LoadState> load;
  const auto warm_up = [&](const Epoch& e) {
    if (e.setup.empty()) return;
    PhaseSpec spec;
    spec.frames = &e.setup;
    spec.count = e.setup.size();
    const PhaseResult warm = load->run(spec);
    if (warm.failed != 0) {
      r.fail("warm-up failed: " +
             (warm.errors.empty() ? std::string("?") : warm.errors.front()));
    }
  };

  // Set-up, kSetupReps times: spawn, ping, warm-up.  The last one, which
  // warms the first epoch, stays.  The others warm the later epochs in
  // turn, so setup_s is a median over several working sets: the cost of
  // warming one depends on its programs, and one set alone made setup_s
  // vary with the seed by up to 4x.
  std::vector<double> setups;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    const std::size_t epoch =
        rep + 1 == reps ? 0 : static_cast<std::size_t>(rep + 1) % w.epochs.size();
    topo = Topology{};
    const auto t0 = Clock::now();
    topo = start_topology(args, w, rep);
    load = std::make_unique<LoadState>(w.progs, topo.socket);
    warm_up(w.epochs[epoch]);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  for (const auto& n : topo.nodes) r.commands.push_back(command_line(n->argv()));
  if (topo.router) r.commands.push_back(command_line(topo.router->argv()));

  const std::vector<pid_t> pids = topo.server_pids();
  VerdictTable table;
  if (!args.trace) {
    r.metrics = end_to_end_template();
    r.set("setup_s", median(setups));
    // kSlices equal slices, spread evenly over the epochs.  Each slice
    // continues its epoch's stream where the previous slice stopped.
    const std::size_t per_epoch = kSlices / w.epochs.size();
    const double slice_s = args.seconds / static_cast<double>(kSlices);
    std::vector<Slice> slices;
    PhaseResult timed;
    for (std::size_t ep = 0; ep < w.epochs.size(); ++ep) {
      if (ep != 0) warm_up(w.epochs[ep]);
      std::size_t next = w.timed_first;
      for (std::size_t i = 0; i < per_epoch; ++i) {
        PhaseSpec spec;
        spec.frames = &w.epochs[ep].stream;
        spec.first = next;
        spec.cyclic = w.cyclic;
        const double cpu0 = total_cpu_us(pids);
        spec.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(slice_s));
        PhaseResult part = load->run(spec);
        next += part.frames;
        if (!w.cyclic && next >= spec.frames->size()) {
          std::fprintf(stderr, "perfbench: the distinct-program stream ran out\n");
        }
        Slice sl;
        sl.wall_s = part.wall_s;
        sl.items = static_cast<double>(part.elems);
        sl.cpu_us = total_cpu_us(pids) - cpu0;
        sl.latency_us = std::move(part.latency_us);
        slices.push_back(std::move(sl));
        timed.frames += part.frames;
        timed.elems += part.elems;
        timed.failed += part.failed;
        timed.cells += part.cells;
        timed.inconclusive += part.inconclusive;
        for (auto& e : part.errors) r.errors.push_back(std::move(e));
      }
    }
    double hwm_kb = 0;
    for (const pid_t p : pids) hwm_kb += static_cast<double>(status_field(p, "VmHWM:"));
    r.attempted += timed.elems;
    r.failed += timed.failed;
    set_summary(r, slices, "frame");
    r.set("rss_peak_mb", hwm_kb / 1024.0);
    r.set("definite_frac", 1.0 - ratio(static_cast<double>(timed.inconclusive),
                                       static_cast<double>(timed.cells)));
    r.notes["frames"] = static_cast<double>(timed.frames);
    r.notes["requests"] = static_cast<double>(timed.elems);
  } else {
    r.metrics = per_layer_template();
    Replay replay;
    // The traced run measures the first epoch only.
    const Epoch& epoch = w.epochs.front();
    for (const Frame& f : epoch.setup) replay.warm(f);
    QueueSampler sampler(topo);
    const Stats a = read_stats(topo);
    const double cpu_a = total_cpu_us(pids);
    const double router_a = topo.router ? cpu_us(topo.router->pid()) : 0.0;
    const double self_a = cpu_us(0);
    PhaseSpec spec;
    spec.frames = &epoch.stream;
    spec.first = w.timed_first;
    spec.cyclic = w.cyclic;
    spec.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(args.seconds / 2));
    const PhaseResult plain = load->run(spec);
    const double self_b = cpu_us(0);
    const double cpu_b = total_cpu_us(pids);
    const double router_b = topo.router ? cpu_us(topo.router->pid()) : 0.0;
    const Stats b = read_stats(topo);

    spec.first = w.traced_first;
    spec.count = w.traced_count;
    spec.replay = &replay;
    spec.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(args.seconds * 3));
    PhaseResult traced = load->run(spec);
    const Stats c = read_stats(topo);
    sampler.stop();

    r.attempted += plain.elems + traced.elems;
    r.failed += plain.failed + traced.failed;
    for (const auto& e : plain.errors) r.errors.push_back(e);
    for (const auto& e : traced.errors) r.errors.push_back(e);

    // Latencies come from the untraced slice (du), per-cell and
    // per-request ratios from the fixed traced slice (dt), and hit ratios
    // and event counts from both (dall): route-skew's misses are programs
    // first seen after the warm-up, which the traced slice revisits.
    const Snapshot du = delta(a.server, b.server);
    const Snapshot dt = delta(b.server, c.server);
    const Snapshot dall = delta(a.server, c.server);
    std::vector<double> lat = plain.latency_us;
    std::sort(lat.begin(), lat.end());
    const double client_p50 = lat.empty() ? 0.0 : percentile(lat, 0.5);
    const double server_p50 = hist_percentile(du.hist("service.latency_us"), 0.5);
    r.set("service.server_p50_us", server_p50);
    r.set("service.server_p99_us", hist_percentile(du.hist("service.latency_us"), 0.99));
    r.set(w.routed ? "cluster.hop_p50_us" : "service.transport_p50_us",
          client_p50 - server_p50);
    r.set("service.solve_ms_sum",
          static_cast<double>(dt.hist("service.solve_us").sum) / 1e3);
    r.set("service.solve_p99_us", hist_percentile(du.hist("service.solve_us"), 0.99));
    const auto hits = static_cast<double>(dall.counter("service.cache_hits"));
    const auto misses = static_cast<double>(dall.counter("service.cache_misses"));
    r.set("service.hit_ratio", ratio(hits, hits + misses));
    r.set("service.resolve_ratio", ratio(static_cast<double>(traced.resolved_misses),
                                         static_cast<double>(traced.misses)));
    r.set("service.budget_upgrades",
          static_cast<double>(dall.counter("service.cache_budget_upgrades")));
    r.set("service.canonical_hit_ratio",
          ratio(static_cast<double>(dall.counter("service.cache_canonical_hits")),
                hits));
    r.set("service.dedup_waits",
          static_cast<double>(dall.counter("service.inflight_dedup")));
    const auto requests = static_cast<double>(dt.counter("service.requests"));
    r.set("service.shard_locks_per_req",
          ratio(static_cast<double>(dt.counter("service.shard_lock_acquisitions")),
                requests));
    r.set("service.epoll_wakeups_per_req",
          ratio(static_cast<double>(dt.counter("service.epoll_wakeups")), requests));
    const Hist batch = dt.hist("service.batch_size");
    r.set("service.batch_size_mean", ratio(static_cast<double>(batch.sum),
                                           static_cast<double>(batch.count)));
    r.set("service.queue_depth_max", static_cast<double>(sampler.max_depth()));
    r.set("service.rejected", static_cast<double>(dall.counter("service.rejected")));
    double threads = 0;
    for (const auto& n : topo.nodes) {
      threads += static_cast<double>(status_field(n->pid(), "Threads:"));
    }
    r.set("service.threads", threads);

    const double solved = std::max(
        1.0, static_cast<double>(dt.counter("service.cache_misses") -
                                 dt.counter("service.inflight_dedup")));
    r.set("checker.nodes_per_cell",
          static_cast<double>(dt.counter("checker.nodes")) / solved);
    const auto memo_hits = static_cast<double>(dt.counter("checker.memo_hits"));
    r.set("checker.memo_hit_ratio",
          ratio(memo_hits,
                memo_hits + static_cast<double>(dt.counter("checker.memo_misses"))));
    r.set("checker.searches_per_cell",
          static_cast<double>(dt.counter("checker.searches")) / solved);
    r.set("checker.exhausted", static_cast<double>(dall.counter("checker.exhausted")));
    r.set("checker.cancelled", static_cast<double>(dall.counter("checker.cancelled")));
    r.set("solve.encode_checks",
          static_cast<double>(dall.counter("checker.encode_checks")));
    r.set("solve.search_wins",
          static_cast<double>(dall.counter("checker.portfolio_search_wins")));
    r.set("solve.encode_wins",
          static_cast<double>(dall.counter("checker.portfolio_encode_wins")));
    r.set("solve.cancel_p99_us",
          hist_percentile(dall.hist("checker.portfolio_cancel_latency_ns"), 0.99) /
              1e3);
    r.set("scheduler.steals_per_unit",
          static_cast<double>(dt.counter("scheduler.steals")) / solved);
    r.set("scheduler.steal_failures_per_unit",
          static_cast<double>(dt.counter("scheduler.steal_failures")) / solved);
    r.set("process.cpu_per_wall", ratio((cpu_b - cpu_a) / 1e6, plain.wall_s));

    if (w.routed) {
      const Snapshot rd = delta(a.router, c.router);
      r.set("cluster.retries", static_cast<double>(rd.counter("cluster.retries")));
      r.set("cluster.failovers", static_cast<double>(rd.counter("cluster.failovers")));
      double share = 0.0;
      for (std::size_t i = 0; i < c.nodes.size() && i < b.nodes.size(); ++i) {
        const auto n = static_cast<double>(
            delta(b.nodes[i], c.nodes[i]).counter("service.requests"));
        share = std::max(share, ratio(n, requests));
      }
      r.set("cluster.node_share_max", share);
      r.set("cluster.router_threads",
            static_cast<double>(status_field(topo.router->pid(), "Threads:")));
      r.set("cluster.router_cpu_us_per_req",
            ratio(router_b - router_a, static_cast<double>(plain.elems)));
    }
    r.set("client.cpu_us_per_req",
          ratio(self_b - self_a, static_cast<double>(plain.elems)));
    set_client_p99(r, plain.latency_us);

    const ReplayTotals rt = replay.totals();
    const SpanStats ss = span_stats(traced.spans);
    r.set("protocol.parse_frame_us", span_mean(ss, "protocol.parse_frame"));
    r.set("litmus.parse_us", span_mean(ss, "litmus.parse_test"));
    r.set("litmus.canonicalize_us", span_mean(ss, "litmus.canonicalize"));
    r.set("cache.get_many_us", span_mean(ss, "cache.get_many"));
    r.set("litmus.remap_us", span_mean(ss, "litmus.remap"));
    r.set("protocol.serialize_us", span_mean(ss, "protocol.serialize"));
    r.set("litmus.identity_frac", ratio(static_cast<double>(rt.identities),
                                        static_cast<double>(rt.canonicalizations)));
    r.set("checker.verify_us", span_mean(ss, "checker.verify"));
    const auto verifies = ss.count.count("checker.verify") != 0
                              ? static_cast<double>(ss.count.at("checker.verify"))
                              : 0.0;
    r.set("checker.verifies_per_req",
          ratio(verifies, static_cast<double>(rt.requests)));
    for (std::size_t m = 0; m < replay.models().size(); ++m) {
      r.set("models." + replay.models()[m] + ".check_ms", rt.model_check_ns[m] / 1e6);
    }
    const double plain_rate = ratio(static_cast<double>(plain.elems), plain.wall_s);
    const double traced_rate = ratio(static_cast<double>(traced.elems), traced.wall_s);
    r.set("tracing.overhead_frac", 1.0 - ratio(traced_rate, plain_rate));
    r.set("tracing.spans", static_cast<double>(traced.spans.size()));
    const auto root = ss.mean_us.find("client.call");
    r.set("tracing.root_self_us", root == ss.mean_us.end() ? 0.0 : root->second.second);
    const double cells = static_cast<double>(plain.cells + traced.cells);
    r.set("run.inconclusive_frac",
          ratio(static_cast<double>(plain.inconclusive + traced.inconclusive), cells));
    r.notes["traced_frames"] = static_cast<double>(traced.frames);
    write_spans(args.work + "/results/spans-" + args.workload + "-s" +
                    std::to_string(args.seed) + ".jsonl",
                traced.spans, replay.models());
  }

  r.digest = run_gate(*load, w, r);
  check_pin(r, args);
  std::uint64_t witnesses = 0;
  r.failed += load->verify_stored(table, r.errors, witnesses);
  r.notes["witnesses_verified"] = static_cast<double>(witnesses);
  r.notes["responses_verified"] = static_cast<double>(load->stored_count());
  if (args.trace) r.set("run.failed_frac", ratio(static_cast<double>(r.failed),
                                                 static_cast<double>(r.attempted)));
  for (const auto& n : topo.nodes) n->stop();
  if (topo.router) topo.router->stop();
}

// ------------------------------------------------------------ trace-stream

struct TracePass {
  std::uint64_t ops = 0;
  bool complete = false;
  ssm::trace::StreamSummary summary;
  std::vector<double> window_us;     ///< feed of the last op -> sink
  double read_ns = 0, feed_ns = 0;   ///< traced: TraceReader::next, plain feeds
  std::uint64_t plain_feeds = 0;
  std::vector<double> closing_us;    ///< traced: feeds that close a window
  std::vector<Span> spans;
  double wall_s = 0;
};

/// Streams the trace file through the checker until it ends or the
/// deadline passes.  `traced` times every reader and checker call.
TracePass stream_pass(const std::string& path,
                      std::optional<Clock::time_point> deadline, bool traced) {
  TracePass pass;
  std::ifstream in(path, std::ios::binary);
  ssm::trace::TraceReader reader(in);
  ssm::trace::StreamingChecker checker(reader.read_header(),
                                       ssm::trace::StreamOptions{});
  std::int64_t feed_start = 0;
  std::int64_t window_start = 0;
  bool closed = false;
  checker.set_verdict_sink([&](const ssm::trace::WindowVerdict&) {
    const std::int64_t now = now_ns();
    pass.window_us.push_back(static_cast<double>(now - feed_start) / 1e3);
    closed = true;
  });
  ssm::trace::TraceOp op;
  const auto t0 = Clock::now();
  while (true) {
    if (deadline && (pass.ops & 1023) == 0 && Clock::now() >= *deadline) break;
    const std::int64_t r0 = traced ? now_ns() : 0;
    if (!reader.next(op)) {
      pass.complete = true;
      break;
    }
    if (traced) {
      feed_start = now_ns();
      pass.read_ns += static_cast<double>(feed_start - r0);
      if (window_start == 0) window_start = r0;
    } else {
      feed_start = now_ns();
    }
    closed = false;
    checker.feed(op);
    ++pass.ops;
    if (traced) {
      const std::int64_t end = now_ns();
      if (closed) {
        pass.closing_us.push_back(static_cast<double>(end - feed_start) / 1e3);
        const std::uint64_t req = pass.spans.size() / 2;  // window index
        Span root{"trace.window", window_start, end, -1, req, -1};
        pass.spans.push_back(root);
        Span check{"trace.window_check", feed_start, end,
                   static_cast<std::int32_t>(pass.spans.size() - 1), req, -1};
        pass.spans.push_back(check);
        window_start = 0;
      } else {
        pass.feed_ns += static_cast<double>(end - feed_start);
        ++pass.plain_feeds;
      }
    }
  }
  // A pass cut by the deadline closes a partial window in finish(); it has
  // no last feed to time from, so its latency sample is dropped.
  const std::size_t samples = pass.window_us.size();
  pass.summary = checker.finish();
  pass.window_us.resize(samples);
  pass.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return pass;
}

Snapshot local_snapshot() {
  return parse_snapshot(ssm::common::metrics::Registry::global().to_json());
}

void run_trace(const Args& args, Result& r) {
  const unsigned lanes = std::max(1u, std::thread::hardware_concurrency());
  ssm::common::ThreadPool::set_global_jobs(lanes);
  r.notes["lanes"] = lanes;
  const std::string path =
      args.work + "/run/trace-s" + std::to_string(args.seed) + ".ndjson";
  std::vector<double> setups;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const auto t0 = Clock::now();
    (void)write_trace(path, args.seed, kTraceOps);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::uint64_t ops = 0, windows = 0, inconclusive = 0, violations = 0;
  std::optional<std::uint64_t> digest;
  const auto absorb = [&](const TracePass& p) {
    windows += p.summary.windows;
    inconclusive += p.summary.inconclusive;
    violations += p.summary.violations;
    if (!p.complete) return;
    if (!digest) {
      digest = p.summary.digest;
    } else if (*digest != p.summary.digest) {
      r.fail("verdict-stream digest differs between passes");
    }
  };
  // Each slice streams the file from its start, as often as fits.
  std::vector<Slice> slices(args.trace ? 1 : kSlices);
  const double slice_s = budget / static_cast<double>(slices.size());
  for (Slice& sl : slices) {
    const double cpu0 = cpu_us(0);
    const auto start = Clock::now();
    const auto end = start + seconds(slice_s);
    while (Clock::now() < end) {
      TracePass p = stream_pass(path, end, false);
      sl.items += static_cast<double>(p.ops);
      sl.latency_us.insert(sl.latency_us.end(), p.window_us.begin(),
                           p.window_us.end());
      absorb(p);
    }
    sl.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    sl.cpu_us = cpu_us(0) - cpu0;
    ops += static_cast<std::uint64_t>(sl.items);
  }
  if (!digest) absorb(stream_pass(path, std::nullopt, false));

  if (!args.trace) {
    r.metrics = end_to_end_template();
    r.set("setup_s", median(setups));
    set_summary(r, slices, "window");
    r.set("rss_peak_mb", static_cast<double>(status_field(0, "VmHWM:")) / 1024.0);
    r.set("definite_frac", 1.0 - ratio(static_cast<double>(inconclusive),
                                       static_cast<double>(windows)));
    r.notes["ops"] = static_cast<double>(ops);
  } else {
    r.metrics = per_layer_template();
    const Snapshot before = local_snapshot();
    TracePass p =
        stream_pass(path, Clock::now() + seconds(args.seconds * 3), true);
    const Snapshot d = delta(before, local_snapshot());
    absorb(p);
    const auto w = static_cast<double>(std::max<std::uint64_t>(1, p.summary.windows));
    r.set("trace.read_ns_per_op", ratio(p.read_ns, static_cast<double>(p.ops)));
    r.set("trace.feed_ns_per_op",
          ratio(p.feed_ns, static_cast<double>(p.plain_feeds)));
    std::sort(p.closing_us.begin(), p.closing_us.end());
    if (!p.closing_us.empty()) {
      r.set("trace.window_check_p50_us", percentile(p.closing_us, 0.5));
      r.set("trace.window_check_p99_us",
            tail_percentile(p.closing_us, 0.99).value_or(0.0));
    }
    r.set("trace.dropped_ops", static_cast<double>(p.summary.dropped_ops));
    r.set("trace.ring_evictions", static_cast<double>(p.summary.ring_evictions));
    r.set("checker.nodes_per_cell", static_cast<double>(d.counter("checker.nodes")) / w);
    const auto memo_hits = static_cast<double>(d.counter("checker.memo_hits"));
    r.set("checker.memo_hit_ratio",
          ratio(memo_hits,
                memo_hits + static_cast<double>(d.counter("checker.memo_misses"))));
    r.set("checker.searches_per_cell",
          static_cast<double>(d.counter("checker.searches")) / w);
    r.set("checker.exhausted", static_cast<double>(d.counter("checker.exhausted")));
    r.set("scheduler.steals_per_unit",
          static_cast<double>(d.counter("scheduler.steals")) / w);
    r.set("scheduler.steal_failures_per_unit",
          static_cast<double>(d.counter("scheduler.steal_failures")) / w);
    const Slice& plain = slices.front();
    set_client_p99(r, plain.latency_us);
    r.set("process.cpu_per_wall", ratio(plain.cpu_us / 1e6, plain.wall_s));
    const double plain_rate = ratio(plain.items, plain.wall_s);
    const double traced_rate = ratio(static_cast<double>(p.ops), p.wall_s);
    r.set("tracing.overhead_frac", 1.0 - ratio(traced_rate, plain_rate));
    r.set("tracing.spans", static_cast<double>(p.spans.size()));
    const SpanStats ss = span_stats(p.spans);
    const auto root = ss.mean_us.find("trace.window");
    r.set("tracing.root_self_us", root == ss.mean_us.end() ? 0.0 : root->second.second);
    r.set("run.inconclusive_frac", ratio(static_cast<double>(inconclusive),
                                         static_cast<double>(windows)));
    write_spans(args.work + "/results/spans-" + args.workload + "-s" +
                    std::to_string(args.seed) + ".jsonl",
                p.spans, {});
  }
  r.attempted += windows;
  if (violations != 0) {
    r.fail("an SC-machine trace produced " + std::to_string(violations) +
           " SC violation window(s)");
  }
  r.digest = digest ? ssm::service::hex16(*digest) : "none";
  check_pin(r, args);
  if (args.trace) r.set("run.failed_frac", ratio(static_cast<double>(r.failed),
                                                 static_cast<double>(r.attempted)));
  std::error_code ec;
  fs::remove(path, ec);
}

// ----------------------------------------------------------------- output

std::string envelope_json(const Args& args, const Result& r, double load0,
                          double load1) {
  std::string out = "{\"workload\": ";
  json::append_quoted(out, args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + fmt(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": ";
  json::append_quoted(out, PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": ";
  json::append_quoted(out, __VERSION__);
  out += ", \"revision\": ";
  json::append_quoted(out, args.revision);
  out += ", \"loadavg_start\": " + fmt(load0);
  out += ", \"loadavg_end\": " + fmt(load1);
  out += ", \"commands\": [";
  for (std::size_t i = 0; i < r.commands.size(); ++i) {
    if (i != 0) out += ", ";
    json::append_quoted(out, r.commands[i]);
  }
  out += "], \"digest\": ";
  json::append_quoted(out, r.digest);
  out += ", \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : r.notes) {
    if (!first) out += ", ";
    first = false;
    json::append_quoted(out, k);
    out += ": " + fmt(v);
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i != 0) out += ", ";
    json::append_quoted(out, r.errors[i]);
  }
  out += "]}";
  return out;
}

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, r.attempted));
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i != 0) out += ", ";
    json::append_quoted(out, m.name);
    out += ": {\"value\": " + fmt(m.value) + ", \"unit\": ";
    json::append_quoted(out, m.unit);
    out += "}";
  }
  out += "}}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-fresh|serve-warm|route-skew|"
               "trace-stream --seed N --seconds S --trace 0|1 --ssm PATH "
               "--work DIR --pins FILE [--revision REV]\n");
  return 64;
}

int run_main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--ssm") {
      args.ssm = v;
    } else if (a == "--work") {
      args.work = v;
    } else if (a == "--pins") {
      args.pins = v;
    } else if (a == "--revision") {
      args.revision = v;
    } else {
      return usage();
    }
  }
  const bool service = args.workload == "serve-fresh" ||
                       args.workload == "serve-warm" ||
                       args.workload == "route-skew";
  if ((!service && args.workload != "trace-stream") || args.work.empty() ||
      args.pins.empty() || (service && args.ssm.empty()) || args.seconds <= 0) {
    return usage();
  }
  fs::create_directories(args.work + "/run");
  fs::create_directories(args.work + "/results");

  const double load0 = loadavg1();
  const double steal0 = steal_seconds();
  Result r;
  if (service) {
    run_service(args, r);
  } else {
    run_trace(args, r);
  }
  const double load1 = loadavg1();
  // Host interference during the run: on a shared host, wall-clock
  // numbers fall as this rises.
  r.notes["host_steal_s"] = steal_seconds() - steal0;

  const std::string envelope = envelope_json(args, r, load0, load1);
  const std::string result = result_json(r);
  std::ofstream(args.work + "/results/" + args.workload + "-s" +
                std::to_string(args.seed) + "-t" + (args.trace ? "1" : "0") +
                ".json")
      << "{\"envelope\": " << envelope << ", \"result\": " << result << "}\n";
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", e.c_str());
  }
  std::fprintf(stderr, "perfbench: %s seed %llu digest %s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               r.digest.c_str());
  std::printf("{\"envelope\": %s}\n%s\n", envelope.c_str(), result.c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
