#include "griddecl/serve/service.h"

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "griddecl/common/random.h"
#include "griddecl/gridfile/catalog.h"
#include "griddecl/gridfile/declustered_file.h"
#include "griddecl/serve/script.h"

namespace griddecl {
namespace serve {
namespace {

/// 4x4 grid, 8 records per bucket inserted bucket by bucket: with
/// 168-byte v3 pages (capacity (168 - 8 - 2*16) / 16 = 8) every storage page holds
/// exactly one bucket — the bucket-clustered layout DiskFaultSchedule
/// requires.
GridFile MakeClusteredFile(uint64_t seed) {
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  const GridSpec grid = f.grid();
  Rng rng(seed);
  for (uint64_t b = 0; b < grid.num_buckets(); ++b) {
    const BucketCoords c = grid.Delinearize(b);
    for (uint32_t k = 0; k < 8; ++k) {
      const std::vector<double> point = {
          (c[0] + rng.NextDouble()) / 4.0, (c[1] + rng.NextDouble()) / 4.0};
      EXPECT_TRUE(f.Insert(point).ok());
    }
  }
  return f;
}

/// One-relation catalog ("dm" over 4 disks), committed to `env` with the
/// given redundancy. Returns the in-memory catalog for reference answers.
Catalog CommitCatalog(MemEnv* env, RelationRedundancy redundancy,
                      uint64_t seed = 1) {
  Catalog catalog(4);
  Result<DeclusteredFile> rel =
      DeclusteredFile::Create(MakeClusteredFile(seed), "dm", 4);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_TRUE(catalog.AddRelation("dm", std::move(rel).value()).ok());
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  options.default_redundancy = redundancy;
  EXPECT_TRUE(SaveCatalogManifest(catalog, env, options).ok());
  return catalog;
}

RelationRedundancy Mirror2() {
  RelationRedundancy r;
  r.policy = RelationRedundancy::Policy::kMirror;
  r.copies = 2;
  return r;
}

RelationRedundancy Parity4() {
  RelationRedundancy r;
  r.policy = RelationRedundancy::Policy::kParity;
  r.group_pages = 4;
  return r;
}

QueryRequest Range(std::vector<double> lo, std::vector<double> hi,
                   double deadline_ms = 0.0) {
  QueryRequest req;
  req.relation = "dm";
  req.lo = std::move(lo);
  req.hi = std::move(hi);
  req.deadline_ms = deadline_ms;
  return req;
}

std::vector<RecordId> Sorted(std::vector<RecordId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(QueryServiceTest, CreateValidatesOptionsAndEnv) {
  MemEnv env;
  EXPECT_FALSE(QueryService::Create(nullptr, {}).ok());
  // No committed catalog in the env.
  EXPECT_FALSE(QueryService::Create(&env, {}).ok());

  CommitCatalog(&env, {});
  ServeOptions bad;
  bad.num_threads = 0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.max_queue = 0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.read.retry.max_attempts = 0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.breaker.failure_ratio = 2.0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());
  bad = {};
  bad.drain_deadline_ms = -1.0;
  EXPECT_FALSE(QueryService::Create(&env, bad).ok());

  auto service = QueryService::Create(&env, {}).value();
  EXPECT_EQ(service->num_disks(), 4u);
  EXPECT_EQ(service->RelationNames(), std::vector<std::string>{"dm"});
}

TEST(QueryServiceTest, MatchesDirectStorageReadsExactly) {
  // The regression anchor: null fault model, no deadlines — the service's
  // matches must be identical to the catalog's direct synchronous
  // execution for every query.
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();

  Rng rng(7);
  for (int q = 0; q < 25; ++q) {
    std::vector<double> lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    const QueryResult got = service->Execute(Range(lo, hi));
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    const QueryExecution want =
        catalog.Find("dm")->ExecuteRange(lo, hi).value();
    EXPECT_EQ(got.matches, Sorted(want.matches)) << "query " << q;
    EXPECT_EQ(got.buckets_touched, want.buckets_touched);
    EXPECT_EQ(got.retries, 0u);
    EXPECT_EQ(got.rerouted_buckets, 0u);
    EXPECT_EQ(got.failover_reads, 0u);
    EXPECT_EQ(got.reconstructed_pages, 0u);
  }
  EXPECT_EQ(service->BreakerTotals().opened, 0u);
}

TEST(QueryServiceTest, UnknownRelationAndBadQueryFailCleanly) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  QueryRequest req = Range({0.0, 0.0}, {1.0, 1.0});
  req.relation = "nope";
  EXPECT_EQ(service->Execute(req).status.code(), StatusCode::kNotFound);
  // Dimension mismatch is surfaced by ResolveRange.
  EXPECT_FALSE(service->Execute(Range({0.0}, {1.0})).status.ok());
}

TEST(QueryServiceTest, ExpiredDeadlineFailsWithDeadlineExceeded) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  // 100 ns: expired by the time a worker dequeues it.
  const QueryResult r =
      service->Execute(Range({0.0, 0.0}, {1.0, 1.0}, 0.0001));
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.matches.empty());

  // The service default applies when the request carries none.
  ServeOptions options;
  options.default_deadline_ms = 0.0001;
  auto strict = QueryService::Create(&env, options).value();
  EXPECT_EQ(strict->Execute(Range({0.0, 0.0}, {1.0, 1.0})).status.code(),
            StatusCode::kDeadlineExceeded);
  // An explicit generous per-query deadline overrides the default.
  EXPECT_TRUE(
      strict->Execute(Range({0.0, 0.0}, {1.0, 1.0}, 60000.0)).status.ok());
}

TEST(QueryServiceTest, FullQueueShedsWithResourceExhausted) {
  MemEnv env;
  CommitCatalog(&env, {});
  // One slow worker (every read sleeps), a one-slot queue.
  FaultyEnvOptions fault;
  fault.latency_ms = 5.0;
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.num_threads = 1;
  options.max_queue = 1;
  auto service = QueryService::Create(faulty.get(), options).value();

  std::vector<std::future<QueryResult>> admitted;
  uint64_t shed = 0;
  for (int i = 0; i < 10; ++i) {
    Result<std::future<QueryResult>> f =
        service->Submit(Range({0.0, 0.0}, {1.0, 1.0}));
    if (f.ok()) {
      admitted.push_back(std::move(f).value());
    } else {
      EXPECT_EQ(f.status().code(), StatusCode::kResourceExhausted);
      shed++;
    }
  }
  // 10 instant submits against a 1-deep queue: most must shed, and
  // everything admitted completes correctly.
  EXPECT_GE(shed, 7u);
  EXPECT_LE(admitted.size(), 3u);
  for (auto& f : admitted) {
    EXPECT_TRUE(f.get().status.ok());
  }
  obs::MetricsRegistry reg;
  service->SnapshotMetrics(&reg);
  EXPECT_EQ(reg.GetCounter("serve.shed")->value(), shed);
  EXPECT_EQ(reg.GetCounter("serve.admitted")->value(), admitted.size());
}

TEST(QueryServiceTest, ShutdownDrainsAndRefusesNewWork) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        service->Submit(Range({0.0, 0.0}, {1.0, 1.0})).value());
  }
  EXPECT_TRUE(service->Shutdown().ok());
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  // Post-shutdown admission is refused, and Shutdown is idempotent.
  EXPECT_EQ(service->Submit(Range({0.0, 0.0}, {1.0, 1.0})).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(service->Shutdown().ok());
}

TEST(QueryServiceTest, DrainDeadlineHardFailsRemainingWork) {
  MemEnv env;
  CommitCatalog(&env, {});
  FaultyEnvOptions fault;
  fault.latency_ms = 20.0;  // Each query reads many pages: way past 1 ms.
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.num_threads = 1;
  options.max_queue = 16;
  options.drain_deadline_ms = 1.0;
  auto service = QueryService::Create(faulty.get(), options).value();

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service->Submit(Range({0.0, 0.0}, {1.0, 1.0})).value());
  }
  EXPECT_EQ(service->Shutdown().code(), StatusCode::kDeadlineExceeded);
  // Every future is still fulfilled with a well-formed result: either a
  // completed query or a clean unavailable.
  int failed = 0;
  for (auto& f : futures) {
    const QueryResult r = f.get();
    if (!r.status.ok()) {
      EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
      failed++;
    }
  }
  EXPECT_GE(failed, 1);
}

TEST(QueryServiceTest, MirrorFailoverServesEveryQueryOffADeadDisk) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 2).value();
  ASSERT_FALSE(fault.permanent.empty());
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.breaker.min_events = 1000000;  // Pin breakers closed.
  options.breaker.window = 1000000;
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const QueryResult r = service->Execute(Range(lo, hi));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches,
            Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches));
  EXPECT_GT(r.failover_reads, 0u);
  EXPECT_EQ(r.rerouted_buckets, 0u);  // No breaker: inline failover only.
}

TEST(QueryServiceTest, BreakerTripsThenReroutesAroundTheDeadDisk) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 1).value();
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.breaker.min_events = 2;
  options.breaker.window = 4;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_ms = 1e18;  // Once open, stays open.
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const std::vector<RecordId> want =
      Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches);

  // Two queries feed the dead disk's breaker two batch failures (served
  // correctly via inline failover meanwhile).
  for (int i = 0; i < 2; ++i) {
    const QueryResult r = service->Execute(Range(lo, hi));
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.matches, want);
    EXPECT_GT(r.failover_reads, 0u);
  }
  EXPECT_EQ(service->BreakerStateOf(1), BreakerState::kOpen);
  const BreakerCounters totals = service->BreakerTotals();
  EXPECT_EQ(totals.opened, 1u);
  EXPECT_EQ(totals.half_opened, 0u);

  // From now on the planner routes around the disk: replica reads, no
  // failed direct reads, no retries.
  const QueryResult r = service->Execute(Range(lo, hi));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.matches, want);
  EXPECT_GT(r.rerouted_buckets, 0u);
  EXPECT_EQ(r.failover_reads, 0u);
  EXPECT_EQ(r.retries, 0u);
}

TEST(QueryServiceTest, HalfOpenProbeRecoversARepairedDisk) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  // Transient-only faults that exhaust the retry budget: the first
  // max_transient_attempts reads of every site fail, so with a 1-attempt
  // retry policy the first batch fails; later attempts succeed.
  FaultyEnvOptions fault;
  fault.transient_error_prob = 1.0;
  fault.max_transient_attempts = 1;
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.read.retry.max_attempts = 1;
  options.breaker.min_events = 1;
  options.breaker.window = 1;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_ms = 1.0;
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  // Early queries fail (both copies' first reads of a site fail and the
  // policy never retries), tripping breakers one batch at a time. Every
  // failed attempt advances its site's counter, so queries eventually
  // succeed, and once sites are past max_transient_attempts the half-open
  // probes find healthy disks and close the breakers.
  bool succeeded = false;
  for (int i = 0; i < 100 && !succeeded; ++i) {
    succeeded = service->Execute(Range(lo, hi)).status.ok();
    if (!succeeded) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(succeeded);
  EXPECT_GT(service->BreakerTotals().opened, 0u);

  // Let any still-open breakers run their probe cycle to recovery.
  for (int i = 0; i < 30; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(service->Execute(Range(lo, hi)).status.ok());
  }
  const BreakerCounters totals = service->BreakerTotals();
  EXPECT_GT(totals.half_opened, 0u);
  EXPECT_GT(totals.closed, 0u);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(service->BreakerStateOf(d), BreakerState::kClosed) << d;
  }
}

TEST(QueryServiceTest, ParityReconstructionRebuildsDeadDiskPages) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Parity4());
  // Group of 4 pages = one grid row = one page per disk under dm, so a
  // single dead disk is always reconstructible from its stripe.
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 3).value();
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.breaker.min_events = 1000000;
  options.breaker.window = 1000000;
  auto service = QueryService::Create(faulty.get(), options).value();

  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const QueryResult r = service->Execute(Range(lo, hi));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches,
            Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches));
  EXPECT_GT(r.reconstructed_pages, 0u);
}

TEST(QueryServiceTest, NoRedundancyMeansDeadDiskQueriesFailCleanly) {
  MemEnv env;
  CommitCatalog(&env, {});
  FaultyEnvOptions fault;
  fault.permanent = DiskFaultSchedule(env, "dm", 0).value();
  auto faulty = FaultyEnv::Create(&env, fault).value();
  auto service = QueryService::Create(faulty.get(), {}).value();
  const QueryResult r = service->Execute(Range({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(r.matches.empty());
  // A query that misses the dead disk still succeeds. Under dm the
  // bucket (cx, cy) lives on disk (cx + cy) mod 4, so single-cell probes
  // split cleanly: cells summing to 0 mod 4 fail, all others succeed.
  for (int cx = 0; cx < 4; ++cx) {
    for (int cy = 0; cy < 4; ++cy) {
      const QueryResult cell = service->Execute(Range(
          {(cx + 0.25) / 4.0, (cy + 0.25) / 4.0},
          {(cx + 0.75) / 4.0, (cy + 0.75) / 4.0}));
      if ((cx + cy) % 4 == 0) {
        EXPECT_EQ(cell.status.code(), StatusCode::kUnavailable)
            << "cell " << cx << "," << cy;
      } else {
        EXPECT_TRUE(cell.status.ok()) << "cell " << cx << "," << cy << ": "
                                      << cell.status.ToString();
      }
    }
  }
}

TEST(QueryServiceTest, SnapshotMetricsPublishesAbsoluteTotals) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(service->Execute(Range({0.0, 0.0}, {1.0, 1.0})).status.ok());
  }
  obs::MetricsRegistry reg;
  service->SnapshotMetrics(&reg);
  service->SnapshotMetrics(&reg);  // Re-snapshot must not double-count.
  EXPECT_EQ(reg.GetCounter("serve.admitted")->value(), 3u);
  EXPECT_EQ(reg.GetCounter("serve.completed")->value(), 3u);
  EXPECT_EQ(reg.GetCounter("serve.failed")->value(), 0u);
  EXPECT_EQ(
      reg.GetHistogram("serve.latency_ms", obs::DefaultLatencyBoundsMs())
          ->count(),
      3u);
  EXPECT_GE(reg.GetGauge("serve.queue.max_depth")->value(), 0.0);
}

TEST(DiskFaultScheduleTest, CoversDataAndMirrorRanges) {
  MemEnv env;
  CommitCatalog(&env, Mirror2());
  const CatalogManifest manifest = ReadCurrentManifest(env).value();
  for (uint32_t disk = 0; disk < 4; ++disk) {
    const std::vector<FaultRange> ranges =
        DiskFaultSchedule(env, "dm", disk).value();
    // 16 pages over 4 disks under dm: 4 data pages + 4 mirror pages.
    EXPECT_EQ(ranges.size(), 8u) << "disk " << disk;
    bool has_data = false;
    bool has_mirror = false;
    for (const FaultRange& r : ranges) {
      EXPECT_EQ(r.length, 168u);
      if (r.file == manifest.DataFileName(0)) has_data = true;
      if (r.file == manifest.MirrorFileName(0, 1)) has_mirror = true;
    }
    EXPECT_TRUE(has_data);
    EXPECT_TRUE(has_mirror);
  }
  EXPECT_EQ(DiskFaultSchedule(env, "nope", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(DiskFaultSchedule(env, "dm", 99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DiskFaultScheduleTest, RejectsNonClusteredLayouts) {
  // Records inserted round-robin across buckets: pages mix buckets on
  // different disks, so no byte range is attributable to one disk.
  MemEnv env;
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng rng(3);
  for (int i = 0; i < 128; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  Catalog catalog(4);
  EXPECT_TRUE(
      catalog
          .AddRelation("dm",
                       DeclusteredFile::Create(std::move(f), "dm", 4).value())
          .ok());
  ManifestSaveOptions options;
  options.page_size_bytes = 168;
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, options).ok());
  EXPECT_EQ(DiskFaultSchedule(env, "dm", 0).status().code(),
            StatusCode::kUnsupported);
}

TEST(QueryServiceTest, UnclusteredCatalogServesEveryPathExactly) {
  // Records inserted in random order: each 8-record page mixes buckets of
  // several disks, so a page is read by more than one (disk, copy) and
  // each serves only its own slot runs. Every path must still return the
  // catalog's answer exactly, strictly ascending.
  MemEnv env;
  Schema schema = Schema::Create({{"x", 0.0, 1.0}, {"y", 0.0, 1.0}}).value();
  GridFile f = GridFile::Create(std::move(schema), {4, 4}).value();
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(f.Insert({rng.NextDouble(), rng.NextDouble()}).ok());
  }
  Catalog catalog(4);
  ASSERT_TRUE(
      catalog
          .AddRelation("dm",
                       DeclusteredFile::Create(std::move(f), "dm", 4).value())
          .ok());
  ManifestSaveOptions save;
  save.page_size_bytes = 168;
  save.default_redundancy = Mirror2();
  ASSERT_TRUE(SaveCatalogManifest(catalog, &env, save).ok());
  const DeclusteredFile& rel = *catalog.Find("dm");

  std::vector<std::pair<std::vector<double>, std::vector<double>>> boxes = {
      {{0.0, 0.0}, {1.0, 1.0}}, {{0.1, 0.3}, {0.7, 0.9}}};
  for (int q = 0; q < 6; ++q) {
    std::vector<double> lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      const double a = rng.NextDouble();
      const double b = rng.NextDouble();
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    boxes.emplace_back(lo, hi);
  }
  const auto expect_answer = [](const QueryResult& r,
                                const std::vector<RecordId>& want,
                                const std::string& what) {
    ASSERT_TRUE(r.status.ok()) << what << ": " << r.status.ToString();
    EXPECT_EQ(r.matches, want) << what;
    for (size_t i = 1; i < r.matches.size(); ++i) {
      EXPECT_LT(r.matches[i - 1], r.matches[i]) << what;
    }
  };
  // Plain, each single-disk filter, and the pinned mirror copy.
  const auto check_every_path = [&](QueryService& service,
                                    const std::string& phase) {
    for (size_t b = 0; b < boxes.size(); ++b) {
      const auto& [lo, hi] = boxes[b];
      const std::vector<RecordId> want =
          Sorted(rel.ExecuteRange(lo, hi).value().matches);
      const std::string what = phase + " box " + std::to_string(b);
      expect_answer(service.Execute(Range(lo, hi)), want, what);
      for (uint32_t d = 0; d < 4; ++d) {
        std::vector<RecordId> on_disk;
        for (RecordId id : want) {
          if (rel.DiskOfRecord(id) == d) on_disk.push_back(id);
        }
        QueryRequest sub = Range(lo, hi);
        sub.disks = {d};
        expect_answer(service.Execute(sub), on_disk,
                      what + " disk " + std::to_string(d));
      }
      QueryRequest pinned = Range(lo, hi);
      pinned.serve_copy = 1;
      expect_answer(service.Execute(pinned), want, what + " copy 1");
    }
  };

  {
    auto healthy = QueryService::Create(&env, {}).value();
    check_every_path(*healthy, "healthy");
  }

  // Trip disk 2's breaker: its sub-queries read the data file while every
  // page of it faults, failing over to the mirror. Then the fault heals
  // (virtual time moves past its window) but the breaker stays open, so
  // every path plans around disk 2.
  const std::string data_file =
      ReadCurrentManifest(env).value().DataFileName(0);
  FaultyEnvOptions fault;
  fault.permanent = {{data_file, 0, env.ReadFile(data_file).value().size(),
                      0.0, 1.0}};
  auto faulty = FaultyEnv::Create(&env, fault).value();
  ServeOptions options;
  options.breaker.min_events = 2;
  options.breaker.window = 4;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_ms = 1e18;  // Once open, stays open.
  auto service = QueryService::Create(faulty.get(), options).value();
  for (int i = 0; i < 2; ++i) {
    QueryRequest sub = Range({0.0, 0.0}, {1.0, 1.0});
    sub.disks = {2};
    const QueryResult r = service->Execute(sub);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_GT(r.failover_reads, 0u);
  }
  faulty->SetNowMs(2.0);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(service->BreakerStateOf(d),
              d == 2 ? BreakerState::kOpen : BreakerState::kClosed);
  }
  check_every_path(*service, "disk 2 tripped");
  const QueryResult full = service->Execute(Range({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_GT(full.rerouted_buckets, 0u);
  EXPECT_EQ(full.failover_reads, 0u);
  EXPECT_EQ(service->BreakerTotals().opened, 1u);
}

TEST(QueryServiceTest, DiskFilterPartitionsTheFullAnswer) {
  // The coordinator extension clusters are built on: sub-queries
  // restricted to disjoint primary-disk sets must union to exactly the
  // unrestricted answer, with no overlap.
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  const std::vector<double> lo = {0.1, 0.1};
  const std::vector<double> hi = {0.9, 0.9};
  const std::vector<RecordId> want =
      Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches);

  std::vector<RecordId> merged;
  for (uint32_t d = 0; d < 4; ++d) {
    QueryRequest sub = Range(lo, hi);
    sub.disks = {d};
    const QueryResult r = service->Execute(sub);
    ASSERT_TRUE(r.status.ok()) << "disk " << d << ": " << r.status.ToString();
    merged.insert(merged.end(), r.matches.begin(), r.matches.end());
  }
  EXPECT_EQ(Sorted(merged), want);

  // Out-of-range disks are request errors, and an empty intersection is a
  // clean empty result, not a failure.
  QueryRequest bad = Range(lo, hi);
  bad.disks = {9};
  EXPECT_EQ(service->Execute(bad).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, ServeCopyPinsEveryReadToOneMirror) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, Mirror2());
  auto service = QueryService::Create(&env, {}).value();
  const std::vector<double> lo = {0.0, 0.0};
  const std::vector<double> hi = {1.0, 1.0};
  const std::vector<RecordId> want =
      Sorted(catalog.Find("dm")->ExecuteRange(lo, hi).value().matches);

  QueryRequest pinned = Range(lo, hi);
  pinned.serve_copy = 1;
  const QueryResult r = service->Execute(pinned);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.matches, want);  // Mirror copies are byte-identical.

  // Pinning past the relation's copies, or on a non-mirrored relation,
  // is a request error.
  pinned.serve_copy = 2;
  EXPECT_EQ(service->Execute(pinned).status.code(),
            StatusCode::kInvalidArgument);
  MemEnv plain_env;
  CommitCatalog(&plain_env, {});
  auto plain = QueryService::Create(&plain_env, {}).value();
  QueryRequest on_plain = Range(lo, hi);
  on_plain.serve_copy = 1;
  EXPECT_EQ(plain->Execute(on_plain).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, GenerationFenceFailsFastOnMismatch) {
  MemEnv env;
  CommitCatalog(&env, {});
  auto service = QueryService::Create(&env, {}).value();
  EXPECT_EQ(service->generation(), 1u);

  QueryRequest fenced = Range({0.0, 0.0}, {1.0, 1.0});
  fenced.expected_generation = 1;  // Matching fence passes.
  EXPECT_TRUE(service->Execute(fenced).status.ok());
  fenced.expected_generation = 2;  // A coordinator one cutover ahead.
  const QueryResult r = service->Execute(fenced);
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(r.matches.empty());
  fenced.expected_generation = 0;  // Unfenced requests never check.
  EXPECT_TRUE(service->Execute(fenced).status.ok());
}

TEST(QueryServiceTest, ServeOptionsGenerationLoadsStagedCatalogs) {
  MemEnv env;
  const Catalog catalog = CommitCatalog(&env, {});
  // Stage generation 2 without committing: CURRENT still names 1.
  ManifestSaveOptions save;
  save.page_size_bytes = 168;
  EXPECT_EQ(StageCatalogManifest(catalog, &env, save).value(), 2u);
  EXPECT_EQ(ReadCurrentManifest(env).value().generation, 1u);

  auto current = QueryService::Create(&env, {}).value();
  EXPECT_EQ(current->generation(), 1u);
  ServeOptions at2;
  at2.generation = 2;
  auto staged = QueryService::Create(&env, at2).value();
  EXPECT_EQ(staged->generation(), 2u);

  const QueryRequest full = Range({0.0, 0.0}, {1.0, 1.0});
  const QueryResult a = current->Execute(full);
  const QueryResult b = staged->Execute(full);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.matches, b.matches);

  ServeOptions at9;
  at9.generation = 9;
  EXPECT_FALSE(QueryService::Create(&env, at9).ok());
}

TEST(ServeScriptTest, ParsesQueriesCommentsAndDeadlines) {
  const auto requests = ParseServeScript(
      "# comment\n"
      "\n"
      "query dm 0.1,0.2 0.6,0.9\n"
      "query other 0,0 1,1 250\r\n").value();
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].relation, "dm");
  EXPECT_EQ(requests[0].lo, (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(requests[0].hi, (std::vector<double>{0.6, 0.9}));
  EXPECT_EQ(requests[0].deadline_ms, 0.0);
  EXPECT_EQ(requests[1].relation, "other");
  EXPECT_EQ(requests[1].deadline_ms, 250.0);
}

TEST(ServeScriptTest, RejectsMalformedLinesByNumber) {
  EXPECT_FALSE(ParseServeScript("frobnicate dm 0 1\n").ok());
  EXPECT_FALSE(ParseServeScript("query dm 0,0\n").ok());          // Missing hi.
  EXPECT_FALSE(ParseServeScript("query dm 0,x 1,1\n").ok());      // Bad number.
  EXPECT_FALSE(ParseServeScript("query dm 0,0 1,1,1\n").ok());    // Arity.
  EXPECT_FALSE(ParseServeScript("query dm 0,0 1,1 -5\n").ok());   // Deadline.
  const Status st = ParseServeScript("query dm 0,0 1,1\nbad\n").status();
  EXPECT_NE(st.message().find("line 2"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace serve
}  // namespace griddecl
