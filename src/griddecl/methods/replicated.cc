#include "griddecl/methods/replicated.h"

#include <set>

namespace griddecl {

Result<ReplicatedPlacement> ReplicatedPlacement::Create(
    std::unique_ptr<DeclusteringMethod> base, uint32_t num_replicas,
    uint32_t offset) {
  if (base == nullptr) {
    return Status::InvalidArgument("base method must be non-null");
  }
  const uint32_t m = base->num_disks();
  if (num_replicas < 1 || num_replicas > m) {
    return Status::InvalidArgument(
        "replica count must be in [1, M]; got " +
        std::to_string(num_replicas) + " for M=" + std::to_string(m));
  }
  if (num_replicas > 1 && offset % m == 0) {
    return Status::InvalidArgument(
        "offset must be non-zero modulo the disk count");
  }
  // Replica disks must be pairwise distinct: check i * offset mod M
  // distinct over i in [0, r).
  std::set<uint32_t> offsets;
  for (uint32_t i = 0; i < num_replicas; ++i) {
    if (!offsets
             .insert(static_cast<uint32_t>(
                 (static_cast<uint64_t>(i) * offset) % m))
             .second) {
      return Status::InvalidArgument(
          "offset " + std::to_string(offset) + " does not yield " +
          std::to_string(num_replicas) + " distinct replica disks for M=" +
          std::to_string(m));
    }
  }
  return ReplicatedPlacement(std::move(base), num_replicas, offset);
}

Result<ReplicatedPlacement> ReplicatedPlacement::CreateWithTable(
    std::unique_ptr<DeclusteringMethod> base,
    std::vector<std::vector<uint32_t>> replica_disks) {
  if (base == nullptr) {
    return Status::InvalidArgument("base method must be non-null");
  }
  const uint32_t m = base->num_disks();
  if (replica_disks.size() != m) {
    return Status::InvalidArgument(
        "replica table has " + std::to_string(replica_disks.size()) +
        " rows for M=" + std::to_string(m));
  }
  const size_t r = replica_disks.empty() ? 0 : replica_disks[0].size();
  if (r < 1 || r > m) {
    return Status::InvalidArgument("replica table rows must have 1..M disks");
  }
  for (uint32_t primary = 0; primary < m; ++primary) {
    const std::vector<uint32_t>& row = replica_disks[primary];
    if (row.size() != r) {
      return Status::InvalidArgument("replica table rows must be equal-size");
    }
    if (row[0] != primary) {
      return Status::InvalidArgument(
          "replica table row " + std::to_string(primary) +
          " must start with its primary disk");
    }
    std::set<uint32_t> distinct;
    for (uint32_t d : row) {
      if (d >= m || !distinct.insert(d).second) {
        return Status::InvalidArgument(
            "replica table row " + std::to_string(primary) +
            " has an out-of-range or duplicate disk");
      }
    }
  }
  ReplicatedPlacement placement(std::move(base), static_cast<uint32_t>(r),
                                /*offset=*/0);
  placement.table_ = std::move(replica_disks);
  return placement;
}

std::vector<uint32_t> ReplicatedPlacement::DisksOf(
    const BucketCoords& c) const {
  const uint32_t primary = base_->DiskOf(c);
  if (!table_.empty()) return table_[primary];
  std::vector<uint32_t> disks(num_replicas_);
  for (uint32_t i = 0; i < num_replicas_; ++i) {
    disks[i] = DiskOfCopy(primary, i);
  }
  return disks;
}

std::vector<uint64_t> ReplicatedPlacement::DiskLoadHistogram() const {
  std::vector<uint64_t> loads(base_->num_disks(), 0);
  base_->grid().ForEachBucket([&](const BucketCoords& c) {
    for (uint32_t d : DisksOf(c)) ++loads[d];
  });
  return loads;
}

}  // namespace griddecl
