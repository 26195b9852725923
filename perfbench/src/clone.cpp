// Reuses the isomorphic-clone renaming of bench/canonical_hit.cpp without
// copying it: that file's make_clone has internal linkage, so it is
// compiled into this translation unit, with its main() renamed out of the
// way.  If the renaming there changes, the benchmark's clones follow.
#define main canonical_hit_main
#include "canonical_hit.cpp"
#undef main

#include "inputs.hpp"

namespace perfbench {

ssm::litmus::LitmusTest iso_clone(const ssm::litmus::LitmusTest& t,
                                  std::size_t k) {
  return make_clone(t, k);
}

}  // namespace perfbench
