#include "catalog.h"

#include <algorithm>
#include <cmath>

#include "griddecl/common/check.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/gridfile/grid_file.h"
#include "griddecl/gridfile/storage.h"

namespace perfbench {

using griddecl::BucketCoords;
using griddecl::BucketRect;

uint32_t PageCapacity(uint32_t page_size) {
  return griddecl::PageCapacityFor(griddecl::kFormatV3, page_size, 2);
}

BuiltCatalog BuildCatalog(const PointSet& points, const CatalogShape& shape,
                          Tracer* tracer) {
  BuiltCatalog built;
  griddecl::Catalog catalog(shape.disks);
  {
    Span span(tracer, "gridfile.build");
    const double start = CpuNow();
    griddecl::Schema schema =
        griddecl::Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
    griddecl::GridFile file =
        griddecl::GridFile::Create(std::move(schema), {shape.side, shape.side})
            .value();
    for (size_t i = 0; i < points.size(); ++i) {
      GRIDDECL_CHECK(file.Insert({points.x[i], points.y[i]}).ok());
    }
    GRIDDECL_CHECK(
        catalog
            .AddRelation(kRelation,
                         griddecl::DeclusteredFile::Create(
                             std::move(file), shape.method, shape.disks)
                             .value())
            .ok());
    built.build_s = CpuSecondsSince(start);
  }
  built.env = std::make_unique<griddecl::MemEnv>();
  {
    Span span(tracer, "gridfile.save");
    const double start = CpuNow();
    griddecl::ManifestSaveOptions options;
    options.page_size_bytes = shape.page_size;
    options.default_redundancy.policy =
        griddecl::RelationRedundancy::Policy::kMirror;
    options.default_redundancy.copies = 2;
    options.placement = shape.placement;
    GRIDDECL_CHECK(
        griddecl::SaveCatalogManifest(catalog, built.env.get(), options).ok());
    built.save_s = CpuSecondsSince(start);
  }
  return built;
}

BucketRect RectOf(const std::vector<double>& lo, const std::vector<double>& hi,
                  uint32_t side) {
  auto cell = [side](double v) {
    return static_cast<uint32_t>(
        std::clamp(std::floor(v * side), 0.0, side - 1.0));
  };
  return BucketRect::Create(BucketCoords{cell(lo[0]), cell(lo[1])},
                            BucketCoords{cell(hi[0]), cell(hi[1])})
      .value();
}

uint64_t WalkResponse(const griddecl::DeclusteringMethod& method,
                      const BucketRect& rect, std::vector<uint64_t>* counts) {
  counts->assign(method.num_disks(), 0);
  const uint32_t k = rect.num_dims();
  BucketCoords c = rect.lo();
  for (;;) {
    (*counts)[method.DiskOf(c)]++;
    uint32_t dim = k;
    for (;;) {
      if (dim == 0) {
        return *std::max_element(counts->begin(), counts->end());
      }
      --dim;
      if (c[dim] < rect.hi()[dim]) {
        c[dim]++;
        break;
      }
      c[dim] = rect.lo()[dim];
    }
  }
}

std::vector<griddecl::serve::QueryRequest> UniformRequests(uint32_t side,
                                                           int count,
                                                           uint32_t min_area,
                                                           uint32_t max_area,
                                                           uint64_t seed) {
  // Sizes and shapes follow a fixed schedule and only positions and edge
  // offsets come from the seed, so every seed asks for the same work.
  constexpr double kAspects[] = {0.5, 0.7, 1.0, 1.4, 2.0};
  Prng rng(seed);
  std::vector<griddecl::serve::QueryRequest> requests;
  const double cell = 1.0 / side;
  int ranges = 0, lines = 0;
  for (int q = 0; q < count; ++q) {
    griddecl::serve::QueryRequest req;
    req.relation = kRelation;
    req.lo.resize(2);
    req.hi.resize(2);
    if (q % 4 == 3) {
      // Partial match: one attribute fixed to a single partition.
      const uint32_t fixed = static_cast<uint32_t>(lines++ % 2);
      const uint32_t at = static_cast<uint32_t>(rng.Below(side));
      req.lo[fixed] = (at + 0.1 * rng.Unit()) * cell;
      req.hi[fixed] = (at + 0.9 + 0.1 * rng.Unit()) * cell;
      req.lo[1 - fixed] = 0.0;
      req.hi[1 - fixed] = 1.0;
    } else {
      const int j = ranges++;
      const double area =
          min_area + (max_area - min_area) * static_cast<double>(j % 16) / 15;
      const double aspect = kAspects[j % 5];
      const uint32_t w = std::clamp<uint32_t>(
          static_cast<uint32_t>(std::lround(std::sqrt(area * aspect))), 1,
          side);
      const uint32_t h = std::clamp<uint32_t>(
          static_cast<uint32_t>(std::lround(area / w)), 1, side);
      const uint32_t x0 = static_cast<uint32_t>(rng.Below(side - w + 1));
      const uint32_t y0 = static_cast<uint32_t>(rng.Below(side - h + 1));
      // Edges fall inside the border cells, so those cells filter partly.
      req.lo[0] = (x0 + 0.5 * rng.Unit()) * cell;
      req.hi[0] = (x0 + w - 0.5 * rng.Unit()) * cell;
      req.lo[1] = (y0 + 0.5 * rng.Unit()) * cell;
      req.hi[1] = (y0 + h - 0.5 * rng.Unit()) * cell;
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace perfbench
