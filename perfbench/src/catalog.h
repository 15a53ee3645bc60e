#ifndef PERFBENCH_CATALOG_H_
#define PERFBENCH_CATALOG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "griddecl/grid/rect.h"
#include "griddecl/gridfile/manifest.h"
#include "griddecl/gridfile/storage_env.h"
#include "griddecl/methods/method.h"
#include "griddecl/serve/service.h"

/// \file
/// Builds the mirrored, bucket-clustered catalog the serving and cluster
/// workloads load, and the range requests they send.

namespace perfbench {

inline constexpr char kRelation[] = "points";

struct CatalogShape {
  uint32_t side = 64;
  uint32_t disks = 8;
  std::string method = "hcam";
  uint32_t page_size = 2048;
  /// Whole pages each bucket fills (records per bucket = this x capacity).
  uint32_t pages_per_bucket = 1;
  std::optional<griddecl::ManifestPlacement> placement;
};

/// Records a v3 page of `page_size` bytes holds for two attributes.
uint32_t PageCapacity(uint32_t page_size);

struct BuiltCatalog {
  std::unique_ptr<griddecl::MemEnv> env;
  double build_s = 0.0;
  double save_s = 0.0;
};

/// Relation build (grid-file inserts, declustering, catalog) followed by a
/// mirrored (copies = 2) `SaveCatalogManifest` into a fresh MemEnv, each
/// timed. `points` must have been generated for `shape`.
BuiltCatalog BuildCatalog(const PointSet& points, const CatalogShape& shape,
                          Tracer* tracer);

/// Buckets a value-space box overlaps on a side x side uniform grid.
griddecl::BucketRect RectOf(const std::vector<double>& lo,
                            const std::vector<double>& hi, uint32_t side);

/// max over disks of `method`'s bucket counts in `rect`, by walking every
/// bucket through `DiskOf`; `counts` receives the per-disk counts.
uint64_t WalkResponse(const griddecl::DeclusteringMethod& method,
                      const griddecl::BucketRect& rect,
                      std::vector<uint64_t>* counts);

/// ceil(a / b).
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Uniformly placed ranges covering between `min_area` and `max_area`
/// buckets in a fixed schedule of sizes and aspect ratios, with every
/// fourth request a one-cell-thick line across the whole domain, along
/// alternating axes (a partial-match query).
std::vector<griddecl::serve::QueryRequest> UniformRequests(uint32_t side,
                                                           int count,
                                                           uint32_t min_area,
                                                           uint32_t max_area,
                                                           uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CATALOG_H_
