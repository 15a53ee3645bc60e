#include "griddecl/common/random.h"

#include <numeric>

#include "griddecl/common/check.h"

namespace griddecl {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 expands the seed into well-mixed state words.
  for (uint64_t k = 0; k < 4; ++k) {
    state_[k] = Mix64(seed + k * 0x9e3779b97f4a7c15ULL);
  }
  // All-zero state would be a fixed point; SplitMix64 cannot produce four
  // zero outputs in a row, but keep the guard explicit.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  GRIDDECL_CHECK(bound > 0);
  // Rejection sampling over the largest multiple of `bound` below 2^64.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  GRIDDECL_CHECK(lo <= hi);
  const uint64_t span =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) {
    // Full 64-bit range.
    return static_cast<int64_t>(Next());
  }
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits -> uniform in [0, 1) with full double precision.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::vector<uint32_t> Rng::Permutation(uint32_t n) {
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(NextBelow(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace griddecl
