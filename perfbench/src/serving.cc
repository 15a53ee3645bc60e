/// The two single-node serving workloads. Both drive one single-worker
/// `QueryService` over a mirrored, bucket-clustered catalog with one
/// closed-loop client (one outstanding request):
///
///  * serve_cold — the catalog is many times larger than the buffer pool
///    and uniformly placed ranges and lines sweep it, so page reads, CRC
///    verification, decode and eviction dominate.
///  * serve_hot_degraded — the pool holds the hot set, a skewed stream of
///    small ranges hits one corner, and one virtual disk is permanently
///    dead behind its mirror copies. After the warm-up round every page is
///    a pool hit, so planning, degraded re-planning, breaker checks and
///    the filter dominate.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog.h"
#include "griddecl/common/check.h"
#include "griddecl/eval/disk_map.h"
#include "griddecl/gridfile/faulty_env.h"
#include "griddecl/gridfile/page_store.h"
#include "griddecl/gridfile/scrub.h"
#include "griddecl/gridfile/storage.h"
#include "griddecl/methods/registry.h"
#include "griddecl/methods/replicated.h"
#include "griddecl/obs/metrics.h"
#include "griddecl/serve/service.h"
#include "griddecl/sim/faults.h"

namespace perfbench {
namespace {

using griddecl::serve::QueryRequest;
using griddecl::serve::QueryResult;
using griddecl::serve::QueryService;

struct ServeSpec {
  CatalogShape shape;
  size_t pool_pages = 0;
  /// Virtual disk permanently dead behind its mirrors; -1 = none.
  int dead_disk = -1;
  std::vector<QueryRequest> requests;
};

/// Set-ups per run; the median is reported.
constexpr int kSetups = 5;
/// Scrub recoveries per run; the median is reported.
constexpr int kRecoveries = 9;

/// Both serving workloads load the same catalog shape: a 64x64 grid of
/// 250 points per bucket (1M records, 16 MB of user data) in two 2 KiB
/// pages per bucket, mirrored, declustered by HCAM over 8 virtual disks.
CatalogShape ServeShape() {
  CatalogShape shape;
  shape.side = 64;
  shape.disks = 8;
  shape.method = "hcam";
  shape.page_size = 2048;
  shape.pages_per_bucket = 2;
  return shape;
}

ServeSpec ColdSpec(uint64_t seed) {
  ServeSpec spec;
  spec.shape = ServeShape();
  // 512 pages against 16384 data and mirror pages: the pool holds ~3%.
  spec.pool_pages = 512;
  spec.requests = UniformRequests(spec.shape.side, 256, 16, 64, seed);
  return spec;
}

/// Small ranges whose lower corners crowd towards (0, 0): the corner cell
/// index is side/4 * u^2 on each axis. Sizes follow a fixed schedule.
std::vector<QueryRequest> CornerRequests(uint32_t side, int count,
                                         uint64_t seed) {
  Prng rng(seed);
  const double cell = 1.0 / side;
  const uint32_t hot = side / 4;
  std::vector<QueryRequest> requests;
  for (int q = 0; q < count; ++q) {
    const uint32_t w = 3 + q % 5;
    const uint32_t h = 3 + q / 5 % 4;
    const double u = rng.Unit();
    const double v = rng.Unit();
    const uint32_t x0 = static_cast<uint32_t>(hot * u * u);
    const uint32_t y0 = static_cast<uint32_t>(hot * v * v);
    QueryRequest req;
    req.relation = kRelation;
    req.lo = {(x0 + 0.5 * rng.Unit()) * cell, (y0 + 0.5 * rng.Unit()) * cell};
    req.hi = {(x0 + w - 0.5 * rng.Unit()) * cell,
              (y0 + h - 0.5 * rng.Unit()) * cell};
    requests.push_back(std::move(req));
  }
  return requests;
}

ServeSpec HotSpec(uint64_t seed) {
  ServeSpec spec;
  spec.shape = ServeShape();
  // The corner's ~24x24 buckets, two pages each, in both copies fit.
  spec.pool_pages = 4096;
  spec.dead_disk = 3;
  spec.requests = CornerRequests(spec.shape.side, 256, seed);
  return spec;
}

griddecl::serve::ServeOptions ServiceOptions(const ServeSpec& spec) {
  griddecl::serve::ServeOptions options;
  options.num_threads = 1;
  options.max_queue = 4;
  options.pool_pages = spec.pool_pages;
  options.seed = 42;
  // One attempt per read: a dead page fails over to its mirror at once
  // instead of sleeping through backoff, so no work depends on the clock.
  options.read.retry.max_attempts = 1;
  return options;
}

/// Members are declared in dependency order, so destruction stops the
/// service before its env goes away.
struct Service {
  BuiltCatalog catalog;
  std::unique_ptr<griddecl::FaultyEnv> faulty;
  std::unique_ptr<QueryService> service;
  double create_s = 0.0;

  void Release() {
    service.reset();
    faulty.reset();
    catalog.env.reset();
  }
};

Service SetUp(const PointSet& points, const ServeSpec& spec, Tracer* tracer) {
  Service s;
  Span span(tracer, "setup");
  s.catalog = BuildCatalog(points, spec.shape, tracer);
  const griddecl::StorageEnv* env = s.catalog.env.get();
  if (spec.dead_disk >= 0) {
    griddecl::FaultyEnvOptions fault;
    fault.permanent =
        griddecl::serve::DiskFaultSchedule(*s.catalog.env, kRelation,
                                           static_cast<uint32_t>(spec.dead_disk))
            .value();
    s.faulty = griddecl::FaultyEnv::Create(s.catalog.env.get(), fault).value();
    env = s.faulty.get();
  }
  Span create_span(tracer, "serve.create");
  const double start = CpuNow();
  s.service = QueryService::Create(env, ServiceOptions(spec)).value();
  s.create_s = CpuSecondsSince(start);
  TrackThreads();
  return s;
}

/// Layer timings of the read path, taken by calling `PageStore`, the page
/// codec, `DiskMap` and `DegradedPlan` directly over the workload's own
/// pages and rectangles.
void MeasureReadPath(const ServeSpec& spec, const griddecl::MemEnv& env,
                     Tracer* tracer, LayerMetrics* layers) {
  const bool hot = spec.dead_disk >= 0;
  const griddecl::CatalogManifest manifest =
      griddecl::ReadCurrentManifest(env).value();
  const std::string data_file = manifest.DataFileName(0);
  const std::string raw_file = env.ReadFile(data_file).value();
  const griddecl::FileLayout layout =
      griddecl::ParseFileLayout(raw_file).value();

  // The workload's page trace: bucket b's pages in the data file are
  // [b * ppb, (b + 1) * ppb) by construction of the clustered layout.
  std::vector<uint64_t> trace;
  for (const QueryRequest& req : spec.requests) {
    const griddecl::BucketRect rect =
        RectOf(req.lo, req.hi, spec.shape.side);
    for (uint32_t x = rect.lo()[0]; x <= rect.hi()[0]; ++x) {
      for (uint32_t y = rect.lo()[1]; y <= rect.hi()[1]; ++y) {
        const uint64_t b = uint64_t{x} * spec.shape.side + y;
        for (uint32_t p = 0; p < spec.shape.pages_per_bucket; ++p) {
          trace.push_back(b * spec.shape.pages_per_bucket + p);
        }
      }
    }
    if (trace.size() >= 4000) break;
  }

  const griddecl::ReadPolicy policy = griddecl::ServeReadPolicy();
  if (!hot) {
    {
      griddecl::PageStore cold(&env, {0, 42});
      cold.RegisterFile(data_file, layout);
      Span span(tracer, "gridfile.page_miss");
      const double start = CpuNow();
      for (uint64_t page : trace) {
        GRIDDECL_CHECK(cold.GetPage(data_file, page, policy).ok());
      }
      layers->push_back({"gridfile.page_miss_us",
                         CpuSecondsSince(start) * 1e6 / trace.size()});
    }
    {
      std::vector<std::string_view> pages;
      for (uint64_t page : trace) {
        pages.push_back(std::string_view(raw_file).substr(
            layout.PageOffset(page), layout.page_size_bytes));
      }
      Span span(tracer, "gridfile.verify");
      double start = CpuNow();
      for (size_t i = 0; i < pages.size(); ++i) {
        GRIDDECL_CHECK(
            griddecl::VerifyPageBytes(pages[i], layout, trace[i]).ok());
      }
      layers->push_back(
          {"gridfile.crc_ns_per_byte",
           CpuSecondsSince(start) * 1e9 /
               (static_cast<double>(pages.size()) * layout.page_size_bytes)});
      start = CpuNow();
      for (size_t i = 0; i < pages.size(); ++i) {
        GRIDDECL_CHECK(
            griddecl::DecodePageBytes(pages[i], layout, trace[i]).ok());
      }
      layers->push_back(
          {"gridfile.decode_us",
           CpuSecondsSince(start) * 1e6 / pages.size()});
    }
    {
      Span span(tracer, "gridfile.load");
      const double start = CpuNow();
      GRIDDECL_CHECK(griddecl::LoadCatalogManifest(env).ok());
      layers->push_back({"gridfile.load_ms", CpuSecondsSince(start) * 1e3});
    }

    return;
  }
  {
    griddecl::PageStore warm(&env, {trace.size() * 2, 42});
    warm.RegisterFile(data_file, layout);
    for (uint64_t page : trace) {
      GRIDDECL_CHECK(warm.GetPage(data_file, page, policy).ok());
    }
    Span span(tracer, "gridfile.page_hit");
    const double start = CpuNow();
    for (uint64_t page : trace) {
      GRIDDECL_CHECK(warm.GetPage(data_file, page, policy).ok());
    }
    layers->push_back({"gridfile.page_hit_us",
                       CpuSecondsSince(start) * 1e6 / trace.size()});
  }
  griddecl::GridSpec grid =
      griddecl::GridSpec::Square(2, spec.shape.side).value();
  auto method =
      griddecl::CreateMethod(spec.shape.method, grid, spec.shape.disks)
          .value();
  const griddecl::DiskMap map = griddecl::DiskMap::Build(*method);
  {
    std::vector<uint64_t> counts;
    uint64_t runs = 0;
    Span span(tracer, "serve.plan");
    const double start = CpuNow();
    for (const QueryRequest& req : spec.requests) {
      const griddecl::BucketRect rect =
          RectOf(req.lo, req.hi, spec.shape.side);
      map.CountsForRect(rect, counts);
      map.ForEachRowSpan(rect, [&runs](uint64_t, uint64_t) { ++runs; });
    }
    GRIDDECL_CHECK(runs > 0);
    layers->push_back({"serve.plan_us", CpuSecondsSince(start) * 1e6 /
                                            spec.requests.size()});
  }
  {
    const griddecl::ReplicatedPlacement placement =
        griddecl::ReplicatedPlacement::Create(std::move(method), 2).value();
    std::vector<bool> failed(spec.shape.disks, false);
    failed[spec.dead_disk >= 0 ? spec.dead_disk : 0] = true;
    constexpr int kPlans = 50;
    Span span(tracer, "serve.degraded_plan");
    const double start = CpuNow();
    for (int i = 0; i < kPlans; ++i) {
      GRIDDECL_CHECK(
          griddecl::DegradedPlan::ForReplicated(placement, failed).ok());
    }
    layers->push_back(
        {"serve.degraded_plan_us", CpuSecondsSince(start) * 1e6 / kPlans});
  }
}

/// Restores one lost virtual disk: every page of it (primary pages and the
/// mirror pages placed on it) is damaged in a copy of the catalog, then
/// `ScrubCatalog` rebuilds them from the surviving copies. Returns the
/// scrub's CPU time; checks the catalog comes back bit-identical.
double RecoverOneDisk(const griddecl::MemEnv& env, uint32_t disk,
                      uint32_t page_size, Report* report, Tracer* tracer) {
  griddecl::MemEnv damaged(env);
  const std::vector<griddecl::FaultRange> ranges =
      griddecl::serve::DiskFaultSchedule(env, kRelation, disk).value();
  uint64_t pages = 0;
  for (const griddecl::FaultRange& r : ranges) {
    for (uint64_t off = 0; off < r.length; off += page_size) {
      GRIDDECL_CHECK(damaged.CorruptByte(r.file, r.offset + off + 16, 0x5A)
                         .ok());
      ++pages;
    }
  }
  Span span(tracer, "gridfile.scrub");
  const double start = CpuNow();
  const griddecl::ScrubReport scrub =
      griddecl::ScrubCatalog(&damaged).value();
  const double seconds = CpuSecondsSince(start);
  report->Check(scrub.Clean() && scrub.pages_repaired > 0,
                "scrub restores the lost disk");
  const std::vector<std::string> names = env.ListFiles().value();
  for (const std::string& name : names) {
    report->Check(damaged.ReadFile(name).value() == env.ReadFile(name).value(),
                  "scrubbed file " + name + " is bit-identical");
  }
  report->Check(pages > 0, "the lost disk held pages");
  return seconds;
}

WorkloadResult RunServe(const ServeSpec& spec, const Args& args,
                        Report* report, Tracer* tracer) {
  WorkloadResult out;
  const uint32_t capacity = PageCapacity(spec.shape.page_size);
  const PointSet points = PointSet::Generate(
      spec.shape.side, capacity * spec.shape.pages_per_bucket, args.seed);

  // Set-up, several times; the last one is kept and measured.
  std::vector<double> setups;
  std::vector<double> builds, saves, creates;
  Service s;
  for (int i = 0; i < kSetups; ++i) {
    s.Release();  // Free the previous catalog before building the next.
    s = SetUp(points, spec, tracer);
    setups.push_back(s.catalog.build_s + s.catalog.save_s + s.create_s);
    builds.push_back(s.catalog.build_s);
    saves.push_back(s.catalog.save_s);
    creates.push_back(s.create_s);
  }
  out.setup_s = Median(setups);

  // Oracle answers and the paper's metric, apart from any timing.
  griddecl::GridSpec grid =
      griddecl::GridSpec::Square(2, spec.shape.side).value();
  auto method =
      griddecl::CreateMethod(spec.shape.method, grid, spec.shape.disks)
          .value();
  const griddecl::DiskMap map = griddecl::DiskMap::Build(*method);
  std::vector<uint64_t> expected(spec.requests.size());
  std::vector<size_t> expected_size(spec.requests.size());
  std::vector<double> ratios;
  std::vector<uint64_t> counts, map_counts;
  for (size_t i = 0; i < spec.requests.size(); ++i) {
    const QueryRequest& req = spec.requests[i];
    const std::vector<uint64_t> ids = points.BoxFilter(req.lo, req.hi);
    expected[i] = Fingerprint(ids);
    expected_size[i] = ids.size();
    const griddecl::BucketRect rect = RectOf(req.lo, req.hi, spec.shape.side);
    const uint64_t response = WalkResponse(*method, rect, &counts);
    map.CountsForRect(rect, map_counts);
    report->Check(map_counts == counts, "DiskMap counts match DiskOf walk");
    ratios.push_back(static_cast<double>(response) /
                     CeilDiv(rect.Volume(), spec.shape.disks));
  }
  out.response_ratio = Mean(ratios);

  auto check_result = [&](size_t i, const QueryResult& r) {
    report->Attempt();
    if (!r.status.ok()) {
      report->Fail();
      return;
    }
    report->Check(r.matches.size() == expected_size[i] &&
                      Fingerprint(r.matches) == expected[i],
                  "query " + std::to_string(i) + " equals the box filter");
  };

  // Warm-up round: fills the pool (and trips the dead disk's breaker).
  for (size_t i = 0; i < spec.requests.size(); ++i) {
    check_result(i, s.service->Execute(spec.requests[i]));
  }

  // Measured phase: whole rounds of the request list until the summed
  // request time reaches the run length.
  std::vector<double> latencies_ms;
  double measured_s = 0.0;
  uint64_t pages = 0, zone_skips = 0, rerouted = 0, failovers = 0;
  double queue_ms = 0.0;
  uint64_t request_id = 0;
  while (measured_s < args.seconds) {
    for (size_t i = 0; i < spec.requests.size(); ++i) {
      QueryResult r;
      {
        Span span(tracer, "serve.execute", ++request_id);
        const double start = CpuNow();
        r = s.service->Execute(spec.requests[i]);
        const double dt = CpuSecondsSince(start);
        measured_s += dt;
        latencies_ms.push_back(dt * 1e3);
      }
      check_result(i, r);
      pages += r.pages_read;
      zone_skips += r.zone_map_skips;
      rerouted += r.rerouted_buckets;
      failovers += r.failover_reads;
      queue_ms += r.queue_ms;
    }
  }
  const Timings timings =
      SummarizeTimings(latencies_ms, spec.requests.size(), {});
  out.queries_per_cpu_s = timings.queries_per_cpu_s;
  out.query_cpu_p50_ms = timings.p50_ms;
  out.query_cpu_p95_ms = timings.p95_ms;
  const double queries = static_cast<double>(latencies_ms.size());

  const uint64_t stored = EnvBytes(*s.catalog.env);
  const double user_bytes = static_cast<double>(points.size()) * 2 * 8;
  out.stored_bytes_per_user_byte = stored / user_bytes;

  const uint32_t lost_disk = spec.dead_disk >= 0 ? spec.dead_disk : 0;
  std::vector<double> recoveries;
  for (int i = 0; i < kRecoveries; ++i) {
    recoveries.push_back(RecoverOneDisk(*s.catalog.env, lost_disk,
                                        spec.shape.page_size, report, tracer));
  }
  out.recovery_cpu_s = Median(recoveries);

  if (tracer != nullptr) {
    griddecl::obs::MetricsRegistry registry;
    s.service->SnapshotMetrics(&registry);
    auto counter = [&registry](const char* name) {
      return static_cast<double>(registry.GetCounter(name)->value());
    };
    // Each layer metric is reported by the workload whose end-to-end
    // metrics it should move (README.md, "Layers").
    LayerMetrics& l = out.layers;
    if (spec.dead_disk < 0) {
      const double hits = counter("storage.pool.hits");
      const double misses = counter("storage.pool.misses");
      l.push_back({"gridfile.build_ms", Median(builds) * 1e3});
      l.push_back({"gridfile.save_ms", Median(saves) * 1e3});
      l.push_back({"gridfile.bytes_written_mb", stored / 1e6});
      l.push_back({"serve.create_ms", Median(creates) * 1e3});
      l.push_back({"gridfile.pool_hit_ratio", hits / (hits + misses)});
      l.push_back({"gridfile.pool_evictions_per_query",
                   counter("storage.pool.evictions") / queries});
      l.push_back({"serve.pages_per_query", pages / queries});
      l.push_back({"serve.zone_skips_per_query", zone_skips / queries});
    } else {
      l.push_back({"serve.queue_ms", queue_ms / queries});
      l.push_back({"serve.rerouted_buckets_per_query", rerouted / queries});
      l.push_back({"serve.failover_reads_per_query", failovers / queries});
      l.push_back({"serve.breaker_opened", counter("serve.breaker.opened")});
      // Fixed cost: a box inside one cell plans, reads and filters one
      // pooled page.
      std::vector<double> fixed;
      const double cell = 1.0 / spec.shape.side;
      for (int i = 0; i < 200; ++i) {
        QueryRequest req;
        req.relation = kRelation;
        const double x = (i % 4 + 0.4) * cell;
        const double y = (i / 4 % 4 + 0.4) * cell;
        req.lo = {x, y};
        req.hi = {x + 0.2 * cell, y + 0.2 * cell};
        const double start = CpuNow();
        const QueryResult r = s.service->Execute(req);
        fixed.push_back(CpuSecondsSince(start) * 1e6);
        report->Check(r.status.ok() && r.buckets_touched == 1,
                      "one-bucket request touches one bucket");
      }
      l.push_back({"serve.fixed_cost_us", Median(fixed)});
    }
    MeasureReadPath(spec, *s.catalog.env, tracer, &l);
  }
  report->Check(s.service->Shutdown().ok(), "service drains");
  return out;
}

}  // namespace

WorkloadResult RunServeCold(const Args& args, Report* report,
                            Tracer* tracer) {
  return RunServe(ColdSpec(args.seed), args, report, tracer);
}

WorkloadResult RunServeHotDegraded(const Args& args, Report* report,
                                   Tracer* tracer) {
  return RunServe(HotSpec(args.seed), args, report, tracer);
}

}  // namespace perfbench
