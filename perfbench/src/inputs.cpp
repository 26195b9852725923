#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <unordered_set>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fuzz/generator.hpp"
#include "litmus/canonical.hpp"
#include "litmus/emit.hpp"
#include "litmus/parser.hpp"

namespace perfbench {

namespace {

/// The program as the server sees it: the emitted text parsed back, so
/// operation and location numbering match what a response's witness
/// refers to.
Program as_sent(const ssm::litmus::LitmusTest& t) {
  Program p;
  p.text = ssm::litmus::emit(t);
  p.test = ssm::litmus::parse_test(p.text);
  p.canon_key = ssm::litmus::canonical_key(p.test);
  return p;
}

}  // namespace

std::vector<Program> fresh_programs(std::uint64_t seed, std::size_t count) {
  ssm::fuzz::GeneratorSpec spec;
  spec.min_procs = 3;
  spec.max_procs = 3;
  spec.min_ops = 2;
  spec.max_ops = 4;
  spec.locs = 3;
  // Free mode only: the classic skeletons are two-processor programs.
  spec.shape_percent = 0;
  // Program i takes the i-th per-processor op-count pattern of a fixed
  // cycle through all 27, mid-sized first, so every seed (and every prefix
  // of 27 programs) has the same mix of program sizes; the seed varies
  // everything else.  Check cost grows steeply with size, so without this
  // the seed alone would move the end-to-end numbers.
  std::vector<std::array<std::size_t, 3>> patterns;
  for (std::size_t a = 2; a <= 4; ++a) {
    for (std::size_t b = 2; b <= 4; ++b) {
      for (std::size_t c = 2; c <= 4; ++c) patterns.push_back({a, b, c});
    }
  }
  std::stable_sort(patterns.begin(), patterns.end(),
                   [](const auto& x, const auto& y) {
                     const auto dist = [](const auto& p) {
                       const auto total = static_cast<long>(p[0] + p[1] + p[2]);
                       return std::labs(total - 9);
                     };
                     return dist(x) < dist(y);
                   });
  ssm::Rng rng(seed);
  std::vector<Program> out;
  out.reserve(count);
  std::unordered_set<std::string> seen;
  while (out.size() < count) {
    auto want = patterns[out.size() % patterns.size()];
    std::sort(want.begin(), want.end());
    // Rejection sampling on the pattern, and on the canonical class: the
    // shape has far more classes than any run asks for.
    ssm::litmus::LitmusTest t =
        ssm::fuzz::random_test(spec, rng, "p" + std::to_string(out.size()));
    std::array<std::size_t, 3> got{};
    for (std::size_t p = 0; p < got.size(); ++p) {
      got[p] = t.hist.processor_ops(static_cast<ssm::ProcId>(p)).size();
    }
    std::sort(got.begin(), got.end());
    if (got != want) continue;
    Program p = as_sent(t);
    if (!seen.insert(p.canon_key).second) continue;
    out.push_back(std::move(p));
  }
  return out;
}

Program clone_program(const Program& p, std::size_t k) {
  return as_sent(iso_clone(p.test, k));
}

std::string check_request(const std::string& id,
                          const std::string& program_text,
                          const std::string& backend,
                          std::uint64_t max_nodes) {
  std::string out = "{\"op\": \"check\", \"id\": ";
  ssm::common::json::append_quoted(out, id);
  out += ", \"program\": ";
  ssm::common::json::append_quoted(out, program_text);
  if (!backend.empty()) {
    out += ", \"backend\": ";
    ssm::common::json::append_quoted(out, backend);
  }
  if (max_nodes != 0) out += ", \"max_nodes\": " + std::to_string(max_nodes);
  out += '}';
  return out;
}

ssm::trace::TraceGenResult write_trace(const std::string& path,
                                       std::uint64_t seed, std::uint64_t ops) {
  ssm::trace::TraceGenOptions opts;
  opts.machine = "sc";
  opts.ops = ops;
  opts.seed = seed;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw ssm::InvalidInput("cannot write " + path);
  auto result = ssm::trace::generate_trace(opts, out);
  out.flush();
  if (!out) throw ssm::InvalidInput("short write to " + path);
  return result;
}

}  // namespace perfbench
