// The closed-loop load generator, the client-side correctness gate, and
// the traced in-process replay of the server's stage order.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "helpers.hpp"
#include "inputs.hpp"
#include "service/cache.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t now_ns();

/// One check request inside a frame.
struct Elem {
  std::uint32_t prog = 0;  ///< index into the workload's program table
  bool race = false;       ///< backend "race" with the workload's budget
  std::string id;
};

/// One wire frame: a single check, or a batch (a JSON array) of checks.
struct Frame {
  std::string text;  ///< '\n'-terminated
  std::vector<Elem> elems;
};

/// Builds a frame; `race_budget` is the max_nodes of race elements.
[[nodiscard]] Frame make_frame(const std::vector<Program>& progs,
                               std::vector<Elem> elems,
                               std::uint64_t race_budget);

/// What the replay measured (sums over every replayed frame).
struct ReplayTotals {
  std::uint64_t requests = 0;
  std::uint64_t canonicalizations = 0;
  std::uint64_t identities = 0;
  std::vector<double> model_check_ns;  ///< per registered model
};

/// Re-executes frames in-process through the public functions the server
/// calls, in the server's order, recording one span per call:
/// parse_frame -> parse_test -> canonicalize -> VerdictCache::get_many ->
/// Model::check (or Portfolio::check for budgeted / race cells) on misses
/// -> witness_from_verdict + verify_witness -> remap_witness_from_canonical
/// (+ verify_witness) -> serialize_check_response.
class Replay {
 public:
  Replay();
  /// Replays `frame`, appending spans under `root` to `spans`, and returns
  /// the per-element verdict vectors (one string per model, in order).
  std::vector<std::vector<std::string>> run(const Frame& frame,
                                            std::vector<Span>& spans,
                                            std::int32_t root,
                                            std::uint64_t request);
  /// Same, without spans (warms the replay cache during set-up).
  void warm(const Frame& frame);
  [[nodiscard]] ReplayTotals totals() const;
  [[nodiscard]] const std::vector<std::string>& models() const noexcept {
    return models_;
  }

 private:
  std::vector<std::string> models_;
  ssm::service::VerdictCache cache_;
  mutable std::mutex mu_;
  ReplayTotals totals_;
};

/// Definite verdicts per (canonical class, model) across a whole run: two
/// responses that disagree on a definite verdict are a failure.
class VerdictTable {
 public:
  /// Returns false on a conflict with an earlier definite verdict.
  bool record(const std::string& canon_key, const std::string& model,
              const std::string& verdict);

 private:
  std::mutex mu_;
  std::map<std::pair<std::string, std::string>, std::string> table_;
};

/// Per-run settings of a load phase.
struct PhaseSpec {
  const std::vector<Frame>* frames = nullptr;
  std::size_t first = 0;        ///< index of the first frame sent
  std::size_t count = 0;        ///< frames to send; 0 = until the deadline
  bool cyclic = false;          ///< wrap around the frame list
  std::optional<Clock::time_point> deadline;
  Replay* replay = nullptr;     ///< non-null: traced phase
  std::vector<std::string>* responses = nullptr;  ///< non-null: keep lines
};

/// A distinct response kept for verification after the phase.
struct Stored {
  std::uint32_t prog = 0;
  std::string line;
};

struct PhaseResult {
  double wall_s = 0.0;
  std::vector<double> latency_us;  ///< per frame, send to last response
  std::uint64_t frames = 0;
  std::uint64_t elems = 0;        ///< check requests answered or failed
  std::uint64_t failed = 0;       ///< typed errors, disconnects, bad ids
  std::uint64_t cells = 0;
  std::uint64_t inconclusive = 0;
  std::uint64_t resolved_misses = 0;  ///< traced: misses on seen cells
  std::uint64_t misses = 0;           ///< traced: all non-cache cells
  std::vector<Span> spans;
  std::vector<std::string> errors;  ///< the first few failure messages
};

/// Shared state of a service workload's load phases.
class LoadState {
 public:
  LoadState(const std::vector<Program>& progs, std::string socket);

  /// Runs one closed-loop phase on one connection: the next frame is sent
  /// only after every response to the previous one arrived.
  PhaseResult run(const PhaseSpec& spec);

  /// Verifies every stored response: all 18 model results present and in
  /// order, each witness's bytes match its fnv1a, each `allowed` witness
  /// passes checker::verify_witness against the history actually sent,
  /// and definite verdicts agree across the run.  Returns the number of
  /// responses that failed any of these.
  std::uint64_t verify_stored(VerdictTable& table,
                              std::vector<std::string>& errors,
                              std::uint64_t& witnesses_checked);

  [[nodiscard]] std::size_t stored_count() const { return stored_.size(); }

 private:
  void keep(std::uint32_t prog, bool race, const std::string& line);

  const std::vector<Program>& progs_;
  std::string socket_;
  std::mutex store_mu_;
  std::unordered_set<std::uint64_t> stored_keys_;
  std::vector<Stored> stored_;
  std::vector<std::uint32_t> class_of_;  ///< program -> canonical class
  /// answered_[2 * class + race]: the cell variant already got a response.
  std::vector<std::atomic<bool>> answered_;
};

}  // namespace perfbench
