#pragma once

// Seeded inputs.  The generator emits `.loop` source text only; the
// program under test never sees the seed or the generator's parameters.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct NestShape {
  int depth = 2;             ///< loop levels, 1..4
  std::int64_t volume = 0;   ///< target iteration count (hit within ~15%)
  int refs = 2;              ///< array references in the one statement, 2..4
};

/// A random affine nest of the given shape: one statement writing array A
/// and reading A (shifted copies of the same access matrix, so references
/// are uniformly generated) plus optionally B; no declarations, so the
/// parser infers every extent and lint stays clean.  `structure` draws
/// the access matrices, which array each read targets and the relative
/// subscript offsets (hence the dependence distances); `rng` draws how the
/// volume splits over the levels and a per-array shift of every offset.
/// Callers seed `structure` per stratum, independent of the run seed, so a
/// seed changes every nest's extents and address ranges while the mix of
/// dependence patterns -- and with it the cost profile -- stays comparable.
std::string generate_nest(SplitMix64& structure, SplitMix64& rng,
                          const NestShape& shape, const std::string& label);

/// The verify-grammar plan that interchanges the two innermost loops
/// ("1" for a 1-deep nest).
std::string interchange_plan(int depth);

}  // namespace perfbench
