// Seeded input generators of the repo benchmark.  The program under test
// only ever receives what these produce; the same seed gives the same
// inputs byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "litmus/test.hpp"
#include "trace/trace_export.hpp"

namespace perfbench {

/// One program the benchmark may send: the test, its DSL text (what goes
/// on the wire) and its canonical key (the isomorphism class).
struct Program {
  ssm::litmus::LitmusTest test;
  std::string text;
  std::string canon_key;
};

/// `count` distinct programs from fuzz::random_test (3 processors, 2-4 ops
/// each, 3 locations), deduplicated by litmus::canonical_key so that no two
/// share a verdict-cache cell, with per-processor op counts cycling through
/// a fixed order of all 27 patterns.  Programs are named "p<index>".
[[nodiscard]] std::vector<Program> fresh_programs(std::uint64_t seed,
                                                  std::size_t count);

/// Isomorphic clone #k of `t`: processors, locations and written values
/// renamed exactly as bench/canonical_hit.cpp does (clone.cpp reuses that
/// file's function), so canonical_key(clone) == canonical_key(t).
[[nodiscard]] ssm::litmus::LitmusTest iso_clone(
    const ssm::litmus::LitmusTest& t, std::size_t k);

/// Wraps iso_clone into a Program (text emitted, key recomputed).
[[nodiscard]] Program clone_program(const Program& p, std::size_t k);

/// One check request frame element (no trailing newline).  `max_nodes` 0
/// leaves the budget unset; `backend` empty leaves the default (search).
[[nodiscard]] std::string check_request(const std::string& id,
                                        const std::string& program_text,
                                        const std::string& backend,
                                        std::uint64_t max_nodes);

/// Writes the seeded SC-machine trace of about `ops` operations to `path`.
ssm::trace::TraceGenResult write_trace(const std::string& path,
                                       std::uint64_t seed, std::uint64_t ops);

}  // namespace perfbench
