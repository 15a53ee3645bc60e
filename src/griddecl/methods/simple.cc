#include "griddecl/methods/simple.h"

#include "griddecl/common/random.h"

namespace griddecl {

Result<std::unique_ptr<DeclusteringMethod>> LinearMethod::Create(
    GridSpec grid, uint32_t num_disks) {
  GRIDDECL_RETURN_IF_ERROR(ValidateMethodArgs(grid, num_disks));
  return std::unique_ptr<DeclusteringMethod>(
      new LinearMethod(std::move(grid), num_disks));
}

uint32_t LinearMethod::DiskOf(const BucketCoords& c) const {
  return static_cast<uint32_t>(grid_.Linearize(c) % num_disks_);
}

Result<std::unique_ptr<DeclusteringMethod>> RandomMethod::Create(
    GridSpec grid, uint32_t num_disks, uint64_t seed) {
  GRIDDECL_RETURN_IF_ERROR(ValidateMethodArgs(grid, num_disks));
  return std::unique_ptr<DeclusteringMethod>(
      new RandomMethod(std::move(grid), num_disks, seed));
}

uint32_t RandomMethod::DiskOf(const BucketCoords& c) const {
  // Stateless SplitMix64 finalizer over (seed, linear index): the same
  // bucket always maps to the same disk, distinct buckets are i.i.d. uniform
  // to the quality of the mixer.
  const uint64_t z = Mix64(grid_.Linearize(c) + seed_ * 0x9e3779b97f4a7c15ULL);
  return static_cast<uint32_t>(z % num_disks_);
}

}  // namespace griddecl
