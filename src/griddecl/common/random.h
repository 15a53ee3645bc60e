#ifndef GRIDDECL_COMMON_RANDOM_H_
#define GRIDDECL_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

/// \file
/// Deterministic pseudo-random number generation.
///
/// All experiments in this repository are seeded, so results are exactly
/// reproducible run-to-run and platform-to-platform. We implement
/// xoshiro256** (Blackman & Vigna) rather than relying on `std::mt19937`
/// plus `std::uniform_int_distribution`, because the standard distributions
/// are not guaranteed to produce identical streams across standard library
/// implementations.

namespace griddecl {

/// SplitMix64 finalizer: the repo's one deterministic hash. Backoff
/// jitter, fault schedules, crash tears, placement tie-breaks and hedge
/// jitter all draw from it, so every seeded decision is a pure function
/// of its inputs.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** PRNG with rejection-sampled bounded draws.
///
/// Not cryptographically secure; statistical quality is more than adequate
/// for workload generation and randomized property tests.
class Rng {
 public:
  /// Seeds the generator deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound); bound must be > 0. Rejection sampling, unbiased.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform in [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0,1]).
  bool NextBool(double p);

  /// A uniformly random permutation of {0, 1, ..., n-1} (Fisher–Yates).
  std::vector<uint32_t> Permutation(uint32_t n);

 private:
  uint64_t state_[4];
};

}  // namespace griddecl

#endif  // GRIDDECL_COMMON_RANDOM_H_
