#include "griddecl/serve/service.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#include "griddecl/methods/registry.h"

namespace griddecl::serve {

// Page verification and decode live in gridfile/storage.h now
// (VerifyPageBytes / DecodePageBytes), invoked once at pool admission by
// the PageStore every read below goes through.

namespace {

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

}  // namespace

QueryService::QueryService(const StorageEnv* env, ServeOptions options,
                           uint32_t num_disks)
    : env_(env),
      options_(options),
      num_disks_(num_disks),
      start_(std::chrono::steady_clock::now()),
      latency_ms_(obs::DefaultLatencyBoundsMs()) {
  breakers_.assign(num_disks_, CircuitBreaker(options_.breaker));
  scratch_.resize(options_.num_threads);
  PageStore::Options store_options;
  store_options.pool_pages = options_.pool_pages;
  store_options.seed = options_.seed;
  store_ = std::make_unique<PageStore>(env_, store_options);
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    const StorageEnv* env, ServeOptions options) {
  if (env == nullptr) {
    return Status::InvalidArgument("QueryService needs a storage env");
  }
  if (options.num_threads < 1 || options.num_threads > 256) {
    return Status::InvalidArgument("num_threads must be in [1, 256]");
  }
  if (options.max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (!(options.default_deadline_ms >= 0.0)) {
    return Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  if (!(options.drain_deadline_ms >= 0.0)) {
    return Status::InvalidArgument("drain_deadline_ms must be >= 0");
  }
  {
    Status st = ValidateBackoffPolicy(options.read.retry);
    if (!st.ok()) return st;
    st = ValidateBreakerOptions(options.breaker);
    if (!st.ok()) return st;
  }
  if (options.read.on_damage != ReadPolicy::OnDamage::kFail) {
    return Status::InvalidArgument(
        "serve requires ReadPolicy::OnDamage::kFail (damage must surface "
        "as kUnavailable so the degraded paths engage)");
  }
  for (uint32_t attempt = 0;; ++attempt) {
    Result<CatalogManifest> manifest =
        options.generation != 0 ? ReadManifest(*env, options.generation)
                                : ReadCurrentManifest(*env);
    if (!manifest.ok()) return manifest.status();
    const CatalogManifest& m = manifest.value();
    if (m.num_disks < 1) {
      return Status::InvalidArgument("manifest declusters over zero disks");
    }
    std::unique_ptr<QueryService> service(
        new QueryService(env, options, m.num_disks));
    service->generation_ = m.generation;
    Status load_error = Status::Ok();
    for (size_t i = 0; i < m.relations.size(); ++i) {
      Result<Relation> rel = LoadRelation(*env, m, i);
      if (!rel.ok()) {
        load_error = rel.status();
        break;
      }
      std::string name = rel.value().name;
      const auto emplaced = service->relations_.emplace(
          std::move(name), std::move(rel).value());
      // Every copy shares the primary's layout (mirrors are byte-identical);
      // registering them lets the PageStore serve any copy from the pool.
      const Relation& r = emplaced.first->second;
      for (const std::string& file : r.copy_files) {
        service->store_->RegisterFile(file, r.layout);
      }
    }
    if (!load_error.ok()) {
      // The same concurrent-commit race LoadCatalogManifestConsistent
      // absorbs: a commit can advance CURRENT and GC generation G's files
      // mid-load. If the committed generation moved, retry at the new one;
      // otherwise the failure is real.
      if (options.generation != 0 || attempt >= 3) return load_error;
      Result<CatalogManifest> again = ReadCurrentManifest(*env);
      if (!again.ok() || again.value().generation == m.generation) {
        return load_error;
      }
      continue;
    }
    QueryService* self = service.get();
    for (uint32_t t = 0; t < options.num_threads; ++t) {
      service->workers_.emplace_back([self, t] { self->WorkerLoop(t); });
    }
    return service;
  }
}

QueryService::~QueryService() { (void)Shutdown(); }

Result<QueryService::Relation> QueryService::LoadRelation(
    const StorageEnv& env, const CatalogManifest& manifest, size_t index) {
  const ManifestRelation& mr = manifest.relations[index];
  Relation rel;
  rel.name = mr.name;
  rel.redundancy = mr.redundancy;
  const std::string data_name = manifest.DataFileName(index);
  Result<std::string> bytes = env.ReadFile(data_name);
  if (!bytes.ok()) return bytes.status();
  Result<FileLayout> layout = ParseFileLayout(bytes.value());
  if (!layout.ok()) return layout.status();
  rel.layout = layout.value();
  Result<GridFile> file = ParseGridFile(bytes.value());
  if (!file.ok()) return file.status();
  rel.file = std::make_unique<GridFile>(std::move(file).value());
  Result<std::unique_ptr<DeclusteringMethod>> method =
      CreateMethod(mr.method, rel.file->grid(), manifest.num_disks);
  if (!method.ok()) return method.status();
  rel.method = std::move(method).value();
  rel.disk_map = std::make_unique<DiskMap>(DiskMap::Build(*rel.method));
  rel.copy_files.push_back(data_name);
  if (mr.redundancy.policy == RelationRedundancy::Policy::kMirror) {
    for (uint32_t c = 1; c < mr.redundancy.copies; ++c) {
      rel.copy_files.push_back(manifest.MirrorFileName(index, c));
    }
    // The mirror copies realize chained declustering: copy r of a bucket
    // is served from replica r's disk, (primary + r) mod M.
    Result<std::unique_ptr<DeclusteringMethod>> base =
        CreateMethod(mr.method, rel.file->grid(), manifest.num_disks);
    if (!base.ok()) return base.status();
    Result<ReplicatedPlacement> placement = ReplicatedPlacement::Create(
        std::move(base).value(), mr.redundancy.copies, /*offset=*/1);
    if (!placement.ok()) return placement.status();
    rel.placement =
        std::make_unique<ReplicatedPlacement>(std::move(placement).value());
  } else if (mr.redundancy.policy == RelationRedundancy::Policy::kParity) {
    rel.parity_file = manifest.ParityFileName(index);
  }
  const GridSpec& grid = rel.file->grid();
  rel.bucket_pages.assign(static_cast<size_t>(grid.num_buckets()), {});
  const uint32_t capacity = rel.layout.page_capacity;
  // Both parse the same bytes, so the records fit the layout's pages.
  GRIDDECL_CHECK(rel.file->num_records() <= rel.layout.num_pages * capacity);
  // Counts per page first (shifted by one), prefix-summed into offsets
  // below.
  rel.run_begin.assign(static_cast<size_t>(rel.layout.num_pages) + 1, 0);
  // Reserved once (exact for a bucket-clustered layout): growing it by
  // doubling leaves freed blocks among the parsed records, which kept
  // ~9 MB more heap resident across service rebuilds on serve_cold.
  rel.runs.reserve(static_cast<size_t>(rel.layout.num_pages));
  for (RecordId id = 0; id < rel.file->num_records(); ++id) {
    const uint64_t bucket = grid.Linearize(rel.file->BucketOfRecord(id));
    const uint64_t page = id / capacity;
    const uint32_t slot = static_cast<uint32_t>(id % capacity);
    std::vector<uint64_t>& pages =
        rel.bucket_pages[static_cast<size_t>(bucket)];
    // Ids within a bucket ascend, so pages arrive sorted; dedupe inline.
    if (pages.empty() || pages.back() != page) pages.push_back(page);
    // Ids ascend, so runs arrive in (page, slot) order: extend the last
    // run while the page and bucket stay the same.
    if (slot == 0 || rel.runs.back().bucket != bucket) {
      rel.runs.push_back({slot, slot + 1, bucket});
      rel.run_begin[static_cast<size_t>(page) + 1]++;
    } else {
      rel.runs.back().slot_end = slot + 1;
    }
  }
  for (size_t p = 1; p < rel.run_begin.size(); ++p) {
    rel.run_begin[p] += rel.run_begin[p - 1];
  }
  return rel;
}

double QueryService::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

Result<std::future<QueryResult>> QueryService::Submit(QueryRequest request) {
  Pending p;
  p.request = std::move(request);
  const double now = NowMs();
  p.submitted_ms = now;
  const double budget = p.request.deadline_ms > 0.0
                            ? p.request.deadline_ms
                            : options_.default_deadline_ms;
  p.deadline_ms = budget > 0.0 ? now + budget : kNoDeadline;
  std::future<QueryResult> future = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_) {
      return Status::Unavailable("service is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      std::lock_guard<std::mutex> m(metrics_mu_);
      shed_++;
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(options_.max_queue) +
          " queued); request shed");
    }
    queue_.push_back(std::move(p));
    queue_max_depth_ =
        std::max<uint64_t>(queue_max_depth_, queue_.size());
  }
  {
    std::lock_guard<std::mutex> m(metrics_mu_);
    admitted_++;
  }
  queue_cv_.notify_one();
  return future;
}

QueryResult QueryService::Execute(QueryRequest request) {
  Result<std::future<QueryResult>> future = Submit(std::move(request));
  if (!future.ok()) {
    QueryResult r;
    r.status = future.status();
    return r;
  }
  return future.value().get();
}

void QueryService::WorkerLoop(uint32_t worker_id) {
  QueryScratch& scratch = scratch_[worker_id];
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining_ and nothing left to do.
      p = std::move(queue_.front());
      queue_.pop_front();
      if (hard_stop_.load()) {
        lock.unlock();
        QueryResult r;
        r.status = Status::Unavailable(
            "shed at shutdown: drain deadline exceeded");
        {
          std::lock_guard<std::mutex> m(metrics_mu_);
          failed_++;
        }
        p.promise.set_value(std::move(r));
        drained_cv_.notify_all();
        continue;
      }
      in_flight_++;
    }
    QueryResult result = RunQuery(p, scratch);
    {
      std::lock_guard<std::mutex> m(metrics_mu_);
      if (result.status.ok()) {
        completed_++;
      } else {
        failed_++;
      }
      retries_ += result.retries;
      rerouted_buckets_ += result.rerouted_buckets;
      failover_reads_ += result.failover_reads;
      reconstructed_pages_ += result.reconstructed_pages;
      pool_hits_ += result.pool_hits;
      zone_map_skips_ += result.zone_map_skips;
      latency_ms_.Observe(result.total_ms);
    }
    p.promise.set_value(std::move(result));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      in_flight_--;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
    }
  }
}

QueryResult QueryService::RunQuery(const Pending& p, QueryScratch& scratch) {
  QueryResult result;
  const double started = NowMs();
  result.queue_ms = started - p.submitted_ms;
  const auto finish = [&](Status st) -> QueryResult {
    result.status = std::move(st);
    if (!result.status.ok()) result.matches.clear();
    result.total_ms = NowMs() - p.submitted_ms;
    return std::move(result);
  };

  if (p.deadline_ms != kNoDeadline && started > p.deadline_ms) {
    return finish(Status::DeadlineExceeded("deadline expired while queued"));
  }
  // The cutover fence: a fenced request must land on the generation its
  // coordinator planned against, before any page is read.
  if (p.request.expected_generation != 0 &&
      p.request.expected_generation != generation_) {
    {
      std::lock_guard<std::mutex> m(metrics_mu_);
      generation_fenced_++;
    }
    return finish(Status::FailedPrecondition(
        "generation fence: request expects catalog generation " +
        std::to_string(p.request.expected_generation) +
        " but this service serves " + std::to_string(generation_)));
  }
  const auto it = relations_.find(p.request.relation);
  if (it == relations_.end()) {
    return finish(
        Status::NotFound("no relation named '" + p.request.relation + "'"));
  }
  const Relation& rel = it->second;
  Result<RangeQuery> resolved =
      rel.file->ResolveRange(p.request.lo, p.request.hi);
  if (!resolved.ok()) return finish(resolved.status());
  const RangeQuery& query = resolved.value();
  result.buckets_touched = query.NumBuckets();
  const RelationRedundancy::Policy policy = rel.redundancy.policy;

  // Coordinator extensions: a disk-ownership filter and/or a pinned mirror
  // copy route the query through the per-bucket planning path below.
  const bool filtered = !p.request.disks.empty();
  const uint32_t pinned_copy = p.request.serve_copy;
  const bool per_bucket_path = filtered || pinned_copy > 0;
  std::vector<uint8_t>& allowed = scratch.allowed;
  if (filtered) {
    allowed.assign(num_disks_, 0);
    for (uint32_t d : p.request.disks) {
      if (d >= num_disks_) {
        return finish(Status::InvalidArgument(
            "request disk " + std::to_string(d) + " out of range [0, " +
            std::to_string(num_disks_) + ")"));
      }
      allowed[d] = 1;
    }
  }
  if (pinned_copy > 0) {
    if (policy != RelationRedundancy::Policy::kMirror ||
        pinned_copy >= rel.copy_files.size()) {
      return finish(Status::InvalidArgument(
          "serve_copy " + std::to_string(pinned_copy) +
          " needs a mirror relation with more copies"));
    }
  }

  // --- Plan: assign every touched bucket a (disk, copy) --------------------
  // The mask routed around is "breakers that would refuse right now",
  // probed without consuming half-open slots; actual admission happens per
  // batch below.
  std::vector<uint8_t>& touched = scratch.touched;
  touched.assign(num_disks_, 0);
  rel.disk_map->ForEachRowSpan(query.rect(), [&](uint64_t begin,
                                                 uint64_t length) {
    for (uint64_t j = 0; j < length; ++j) {
      touched[rel.disk_map->DiskAt(begin + j)] = 1;
    }
  });
  std::vector<bool>& refused = scratch.refused;
  refused.assign(num_disks_, false);
  bool any_refused = false;
  {
    std::lock_guard<std::mutex> lock(breaker_mu_);
    const double now = NowMs();
    for (uint32_t d = 0; d < num_disks_; ++d) {
      // The per-bucket path may assign replica disks the primary sweep
      // never touched, so it needs the full mask.
      if ((touched[d] || per_bucket_path) && breakers_[d].WouldRefuse(now)) {
        refused[d] = true;
        any_refused = true;
      }
    }
  }

  // A previous query's plan is cleared here rather than on its every exit.
  using Assign = QueryScratch::Assign;
  for (uint64_t addr : scratch.planned) scratch.assign[addr] = Assign{};
  scratch.planned.clear();
  if (scratch.assign.size() < rel.bucket_pages.size()) {
    scratch.assign.resize(rel.bucket_pages.size());
  }
  const auto plan = [&scratch](uint64_t addr, const Assign& a) {
    if (scratch.assign[addr].disk == QueryScratch::kUnplanned) {
      scratch.planned.push_back(addr);
    }
    scratch.assign[addr] = a;
  };

  if (!per_bucket_path && any_refused &&
      policy == RelationRedundancy::Policy::kMirror) {
    // Plan-time reroute through the same machinery the simulator uses.
    Result<DegradedPlan> degraded =
        DegradedPlan::ForReplicated(*rel.placement, refused);
    if (!degraded.ok()) return finish(degraded.status());
    Result<DegradedPlan::QueryPlan> expanded =
        degraded.value().ExpandQuery(query);
    if (!expanded.ok()) return finish(expanded.status());
    const DegradedPlan::QueryPlan& qp = expanded.value();
    if (qp.unavailable_buckets > 0) {
      return finish(Status::Unavailable(
          std::to_string(qp.unavailable_buckets) +
          " buckets have no live replica"));
    }
    result.rerouted_buckets = qp.rerouted_buckets;
    const uint32_t copies = rel.placement->num_replicas();
    for (uint32_t d = 0; d < num_disks_; ++d) {
      for (uint64_t addr : qp.per_disk[d]) {
        const uint32_t primary = rel.disk_map->DiskAt(addr);
        uint32_t copy = 0;
        while (copy < copies && rel.placement->DiskOfCopy(primary, copy) != d) {
          ++copy;
        }
        if (copy == copies) {
          return finish(Status::Internal(
              "replica plan assigned a bucket to a non-replica disk"));
        }
        plan(addr, {d, copy, false});
      }
    }
  } else {
    // Primary (or pinned-copy) placement, one bucket at a time. A refused
    // disk's buckets reconstruct from parity when the relation has it,
    // reroute to an un-refused mirror replica, or fail the query.
    uint64_t dead_buckets = 0;
    rel.disk_map->ForEachRowSpan(query.rect(), [&](uint64_t begin,
                                                   uint64_t length) {
      for (uint64_t j = 0; j < length; ++j) {
        const uint64_t addr = begin + j;
        const uint32_t primary = rel.disk_map->DiskAt(addr);
        if (filtered && !allowed[primary]) continue;
        Assign a{primary, 0, false};
        if (pinned_copy > 0) {
          a.copy = pinned_copy;
          a.disk = rel.placement->DiskOfCopy(primary, pinned_copy);
        }
        if (refused[a.disk]) {
          if (policy == RelationRedundancy::Policy::kParity) {
            a.reconstruct = true;
          } else if (policy == RelationRedundancy::Policy::kMirror) {
            // Reroute this bucket to its first un-refused replica (the
            // whole-query re-expansion above is primary-placement only).
            const uint32_t copies = rel.placement->num_replicas();
            for (uint32_t step = 1; step < copies; ++step) {
              const uint32_t c = (a.copy + step) % copies;
              const uint32_t disk = rel.placement->DiskOfCopy(primary, c);
              if (!refused[disk]) {
                a.copy = c;
                a.disk = disk;
                result.rerouted_buckets++;
                break;
              }
            }
            // Every replica refused: keep the assignment — inline mirror
            // failover still tries each copy at read time.
          } else {
            dead_buckets++;
          }
        }
        plan(addr, a);
      }
    });
    if (dead_buckets > 0) {
      return finish(Status::Unavailable(
          std::to_string(dead_buckets) +
          " buckets on tripped disks and the relation has no redundancy"));
    }
    if (per_bucket_path) result.buckets_touched = scratch.planned.size();
  }

  // --- Gather page reads, grouped per disk (the breaker unit) --------------
  // Sorted by (disk, copy, page); a page two buckets of one (disk, copy)
  // share is read once, reconstructing if either bucket needs it.
  using PageRead = QueryScratch::PageRead;
  std::vector<PageRead>& reads = scratch.reads;
  reads.clear();
  for (uint64_t addr : scratch.planned) {
    const Assign& a = scratch.assign[addr];
    for (uint64_t page : rel.bucket_pages[static_cast<size_t>(addr)]) {
      reads.push_back({a.disk, a.copy, page, a.reconstruct});
    }
  }
  const auto key = [](const PageRead& r) {
    return std::tie(r.disk, r.copy, r.page);
  };
  std::sort(reads.begin(), reads.end(),
            [&](const PageRead& x, const PageRead& y) {
              return key(x) < key(y);
            });
  size_t kept = 0;
  for (size_t i = 0; i < reads.size(); ++i) {
    if (kept > 0 && key(reads[kept - 1]) == key(reads[i])) {
      reads[kept - 1].reconstruct |= reads[i].reconstruct;
    } else {
      reads[kept++] = reads[i];
    }
  }
  reads.resize(kept);

  const uint32_t num_attrs = rel.layout.num_attrs;
  const uint32_t capacity = rel.layout.page_capacity;
  scratch.mask.resize(capacity);
  scratch.matches.clear();
  scratch.emitted.clear();

  // --- Execute, disk by disk ----------------------------------------------
  for (size_t batch = 0; batch < reads.size();) {
    const uint32_t disk = reads[batch].disk;
    size_t batch_end = batch;
    while (batch_end < reads.size() && reads[batch_end].disk == disk) {
      ++batch_end;
    }
    if (hard_stop_.load()) {
      return finish(Status::Unavailable("service shutting down"));
    }
    if (p.deadline_ms != kNoDeadline && NowMs() > p.deadline_ms) {
      return finish(
          Status::DeadlineExceeded("deadline expired between disk batches"));
    }
    // Admission: false either because the plan already routed around this
    // disk, or because its breaker tripped (or lost the probe race) since
    // planning — then every page goes straight to the degraded path.
    const bool admitted = AllowDisk(disk);
    bool direct_ok = true;
    for (; batch < batch_end; ++batch) {
      const PageRead& read = reads[batch];
      Result<PinnedPage> pinned = ReadPageResilient(
          rel, read.copy, read.page, p.deadline_ms,
          /*try_direct=*/admitted && !read.reconstruct, &direct_ok, &result);
      if (!pinned.ok()) {
        if (admitted) RecordDiskOutcome(disk, false);
        return finish(pinned.status());
      }
      const DecodedPage& decoded = pinned.value().decoded();
      // Zone-map skip: min/max prove no record intersects the predicate
      // box, so the whole page needs no filtering.
      if (!decoded.MayMatch(p.request.lo, p.request.hi)) {
        result.zone_map_skips++;
        continue;
      }
      // Branch-free columnar filter over each run this (disk, copy) owns:
      // AND per-attribute range masks over the run's slots, then emit the
      // surviving ids.
      const RecordId page_first = read.page * capacity;
      const size_t run_end = rel.run_begin[read.page + 1];
      for (size_t r = rel.run_begin[read.page]; r < run_end; ++r) {
        const SlotRun& run = rel.runs[r];
        const Assign& owner = scratch.assign[run.bucket];
        if (owner.disk != disk || owner.copy != read.copy) continue;
        const uint32_t length = run.slot_end - run.slot_begin;
        uint8_t* mask = scratch.mask.data();
        std::fill(mask, mask + length, uint8_t{1});
        for (uint32_t a = 0; a < num_attrs; ++a) {
          const double lo = p.request.lo[a];
          const double hi = p.request.hi[a];
          const double* col = decoded.column(a) + run.slot_begin;
          for (uint32_t k = 0; k < length; ++k) {
            mask[k] &= static_cast<uint8_t>(col[k] >= lo && col[k] <= hi);
          }
        }
        const size_t begin = scratch.matches.size();
        const RecordId run_first = page_first + run.slot_begin;
        for (uint32_t k = 0; k < length; ++k) {
          if (mask[k]) scratch.matches.push_back(run_first + k);
        }
        if (scratch.matches.size() > begin) {
          scratch.emitted.push_back(
              {run_first, begin, scratch.matches.size()});
        }
      }
    }
    if (admitted) RecordDiskOutcome(disk, direct_ok);
  }

  // Runs are disjoint id intervals, each emitted in ascending order, so
  // ordering the runs orders the answer.
  using EmittedRun = QueryScratch::EmittedRun;
  std::sort(scratch.emitted.begin(), scratch.emitted.end(),
            [](const EmittedRun& x, const EmittedRun& y) {
              return x.first < y.first;
            });
  result.matches.reserve(scratch.matches.size());
  for (const EmittedRun& run : scratch.emitted) {
    result.matches.insert(result.matches.end(),
                          scratch.matches.begin() + run.begin,
                          scratch.matches.begin() + run.end);
  }
  return finish(Status::Ok());
}

InterruptFn QueryService::MakeInterrupt(double deadline_ms) const {
  return [this, deadline_ms]() -> Status {
    if (hard_stop_.load()) {
      return Status::Unavailable("service shutting down");
    }
    if (deadline_ms != kNoDeadline && NowMs() > deadline_ms) {
      return Status::DeadlineExceeded("deadline expired before read");
    }
    return Status::Ok();
  };
}

Result<PinnedPage> QueryService::ReadPageResilient(
    const Relation& rel, uint32_t assigned_copy, uint64_t page,
    double deadline_ms, bool try_direct, bool* direct_ok,
    QueryResult* result) {
  Status direct_status;
  if (try_direct) {
    Result<PinnedPage> direct =
        ReadPagePinned(rel, assigned_copy, page, deadline_ms, result);
    if (direct.ok()) return direct;
    *direct_ok = false;
    if (direct.status().code() != StatusCode::kUnavailable) {
      return direct.status();  // Deadline / malformed request: no failover.
    }
    direct_status = direct.status();
  }
  if (rel.redundancy.policy == RelationRedundancy::Policy::kMirror) {
    for (uint32_t copy = 0; copy < rel.copy_files.size(); ++copy) {
      if (copy == assigned_copy) continue;
      Result<PinnedPage> alt =
          ReadPagePinned(rel, copy, page, deadline_ms, result);
      if (alt.ok()) {
        result->failover_reads++;
        return alt;
      }
      if (alt.status().code() != StatusCode::kUnavailable) {
        return alt.status();
      }
    }
    return Status::Unavailable("page " + std::to_string(page) +
                               " unreadable on every mirror copy");
  }
  if (rel.redundancy.policy == RelationRedundancy::Policy::kParity) {
    return ReconstructPage(rel, page, deadline_ms, result);
  }
  if (try_direct) return direct_status;
  return Status::Unavailable("disk routed around; direct read skipped");
}

Result<PinnedPage> QueryService::ReadPagePinned(const Relation& rel,
                                                uint32_t copy,
                                                uint64_t page,
                                                double deadline_ms,
                                                QueryResult* result) {
  PageReadStats stats;
  Result<PinnedPage> pinned =
      store_->GetPage(rel.copy_files[copy], page, options_.read, &stats,
                      MakeInterrupt(deadline_ms));
  result->retries += stats.retries;
  if (pinned.ok()) {
    result->pages_read++;
    if (stats.cache_hit) result->pool_hits++;
  }
  return pinned;
}

Result<PinnedPage> QueryService::ReconstructPage(const Relation& rel,
                                                 uint64_t page,
                                                 double deadline_ms,
                                                 QueryResult* result) {
  if (rel.parity_file.empty()) {
    return Status::Unavailable("page " + std::to_string(page) +
                               " unreadable and relation has no parity");
  }
  const uint32_t group = rel.redundancy.group_pages;
  const uint64_t stripe = page / group;
  const uint64_t first = stripe * group;
  const uint64_t last =
      std::min<uint64_t>(first + group, rel.layout.num_pages);
  const auto degrade = [&](const Status& st) -> Status {
    if (st.code() == StatusCode::kDeadlineExceeded) return st;
    return Status::Unavailable("reconstruction of page " +
                               std::to_string(page) +
                               " failed: " + st.message());
  };
  // Parity pages carry no grid-file layout of their own: raw uncached
  // read with the same retry/interrupt machinery.
  PageReadStats parity_stats;
  Result<std::string> acc = store_->ReadRaw(
      rel.parity_file, stripe * rel.layout.page_size_bytes,
      rel.layout.page_size_bytes, options_.read, &parity_stats,
      MakeInterrupt(deadline_ms));
  result->retries += parity_stats.retries;
  if (!acc.ok()) return degrade(acc.status());
  result->pages_read++;
  std::string rebuilt = std::move(acc).value();
  for (uint64_t sibling = first; sibling < last; ++sibling) {
    if (sibling == page) continue;
    // Stripe siblings are ordinary data pages: pooled reads, so repeated
    // reconstructions of a stripe fetch each survivor once.
    Result<PinnedPage> bytes =
        ReadPagePinned(rel, 0, sibling, deadline_ms, result);
    if (!bytes.ok()) return degrade(bytes.status());
    const std::string_view src = bytes.value().raw();
    for (uint32_t b = 0; b < rel.layout.page_size_bytes; ++b) {
      rebuilt[b] = static_cast<char>(rebuilt[b] ^ src[b]);
    }
  }
  // Self-check, decode, and pin — without admitting under the data file's
  // key (see header: breakers must keep observing the real fault). The
  // verify doubles as the reconstruction's integrity proof.
  Status verify = VerifyPageBytes(rebuilt, rel.layout, page);
  if (!verify.ok()) return degrade(verify);
  Result<DecodedPage> decoded = DecodePageBytes(rebuilt, rel.layout, page);
  if (!decoded.ok()) return degrade(decoded.status());
  auto frame = std::make_shared<BufferPool::Frame>();
  frame->file = rel.copy_files[0];
  frame->page = page;
  frame->raw = std::move(rebuilt);
  frame->decoded = std::move(decoded).value();
  result->reconstructed_pages++;
  return PinnedPage(std::move(frame));
}

bool QueryService::AllowDisk(uint32_t disk) {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return breakers_[disk].AllowRequest(NowMs());
}

void QueryService::RecordDiskOutcome(uint32_t disk, bool success) {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  if (success) {
    breakers_[disk].RecordSuccess(NowMs());
  } else {
    breakers_[disk].RecordFailure(NowMs());
  }
}

Status QueryService::Shutdown() {
  std::lock_guard<std::mutex> serialize(shutdown_mu_);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (shutdown_done_) return shutdown_status_;
    draining_ = true;
    queue_cv_.notify_all();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                options_.drain_deadline_ms));
    const bool drained = drained_cv_.wait_until(lock, deadline, [&] {
      return queue_.empty() && in_flight_ == 0;
    });
    if (drained) {
      shutdown_status_ = Status::Ok();
    } else {
      hard_stop_.store(true);
      queue_cv_.notify_all();
      drained_cv_.wait(lock,
                       [&] { return queue_.empty() && in_flight_ == 0; });
      shutdown_status_ = Status::DeadlineExceeded(
          "drain deadline exceeded; remaining work was failed");
    }
    shutdown_done_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  return shutdown_status_;
}

void QueryService::SnapshotMetrics(MetricsRegistry* out) const {
  if (out == nullptr) return;
  const auto set_counter = [out](const char* name, uint64_t v) {
    obs::Counter* c = out->GetCounter(name);
    c->Reset();
    c->Inc(v);
  };
  uint64_t max_depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    max_depth = queue_max_depth_;
  }
  const BreakerCounters totals = BreakerTotals();
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    set_counter("serve.admitted", admitted_);
    set_counter("serve.shed", shed_);
    set_counter("serve.completed", completed_);
    set_counter("serve.failed", failed_);
    set_counter("serve.retries", retries_);
    set_counter("serve.rerouted_buckets", rerouted_buckets_);
    set_counter("serve.failover_reads", failover_reads_);
    set_counter("serve.reconstructed_pages", reconstructed_pages_);
    set_counter("serve.pool_hits", pool_hits_);
    set_counter("serve.zone_map_skips", zone_map_skips_);
    set_counter("serve.generation_fenced", generation_fenced_);
    obs::Histogram* h =
        out->GetHistogram("serve.latency_ms", latency_ms_.bounds());
    h->Reset();
    h->Merge(latency_ms_);
  }
  set_counter("serve.breaker.opened", totals.opened);
  set_counter("serve.breaker.half_opened", totals.half_opened);
  set_counter("serve.breaker.closed", totals.closed);
  set_counter("serve.breaker.reopened", totals.reopened);
  out->GetGauge("serve.queue.max_depth")
      ->Set(static_cast<double>(max_depth));
  // Storage-layer pool counters ride along in the same snapshot, so a
  // `declctl serve --metrics-json` dump shows the whole read path.
  store_->PublishMetrics(out);
}

BreakerState QueryService::BreakerStateOf(uint32_t disk) const {
  GRIDDECL_CHECK(disk < num_disks_);
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return breakers_[disk].state();
}

BreakerCounters QueryService::BreakerTotals() const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  BreakerCounters totals;
  for (const CircuitBreaker& b : breakers_) {
    totals.opened += b.counters().opened;
    totals.half_opened += b.counters().half_opened;
    totals.closed += b.counters().closed;
    totals.reopened += b.counters().reopened;
  }
  return totals;
}

std::vector<std::string> QueryService::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, rel] : relations_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<FaultRange>> DiskFaultSchedule(const StorageEnv& env,
                                                  const std::string& relation,
                                                  uint32_t disk) {
  return DiskFaultSchedule(env, relation, disk, 0.0,
                           std::numeric_limits<double>::infinity());
}

Result<std::vector<FaultRange>> DiskFaultSchedule(const StorageEnv& env,
                                                  const std::string& relation,
                                                  uint32_t disk,
                                                  double from_ms,
                                                  double until_ms) {
  Result<CatalogManifest> manifest = ReadCurrentManifest(env);
  if (!manifest.ok()) return manifest.status();
  const CatalogManifest& m = manifest.value();
  size_t index = m.relations.size();
  for (size_t i = 0; i < m.relations.size(); ++i) {
    if (m.relations[i].name == relation) {
      index = i;
      break;
    }
  }
  if (index == m.relations.size()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  if (disk >= m.num_disks) {
    return Status::InvalidArgument("disk index out of range");
  }
  const ManifestRelation& mr = m.relations[index];
  const std::string data_name = m.DataFileName(index);
  Result<std::string> bytes = env.ReadFile(data_name);
  if (!bytes.ok()) return bytes.status();
  Result<FileLayout> layout = ParseFileLayout(bytes.value());
  if (!layout.ok()) return layout.status();
  const FileLayout& l = layout.value();
  Result<GridFile> file = ParseGridFile(bytes.value());
  if (!file.ok()) return file.status();
  const GridFile& gf = file.value();
  Result<std::unique_ptr<DeclusteringMethod>> method =
      CreateMethod(mr.method, gf.grid(), m.num_disks);
  if (!method.ok()) return method.status();
  std::unique_ptr<ReplicatedPlacement> placement;
  if (mr.redundancy.policy == RelationRedundancy::Policy::kMirror) {
    Result<std::unique_ptr<DeclusteringMethod>> base =
        CreateMethod(mr.method, gf.grid(), m.num_disks);
    if (!base.ok()) return base.status();
    Result<ReplicatedPlacement> p = ReplicatedPlacement::Create(
        std::move(base).value(), mr.redundancy.copies, /*offset=*/1);
    if (!p.ok()) return p.status();
    placement = std::make_unique<ReplicatedPlacement>(std::move(p).value());
  }

  std::vector<FaultRange> ranges;
  for (uint64_t page = 0; page < l.num_pages; ++page) {
    const uint32_t in_page = l.PageRecords(page);
    if (in_page == 0) continue;
    // The page's disk is its records' bucket's disk — require the layout
    // to be bucket-clustered so that is well-defined.
    const RecordId first_id = page * l.page_capacity;
    const BucketCoords first_bucket = gf.BucketOfRecord(first_id);
    const uint32_t primary = method.value()->DiskOf(first_bucket);
    for (uint32_t slot = 1; slot < in_page; ++slot) {
      if (method.value()->DiskOf(gf.BucketOfRecord(first_id + slot)) !=
          primary) {
        return Status::Unsupported(
            "page " + std::to_string(page) +
            " mixes buckets of different disks; DiskFaultSchedule needs a "
            "bucket-clustered layout (insert bucket by bucket, pick a page "
            "size whose capacity divides the per-bucket record count)");
      }
    }
    if (primary == disk) {
      ranges.push_back({data_name, l.PageOffset(page), l.page_size_bytes,
                        from_ms, until_ms});
    }
    if (placement != nullptr) {
      const std::vector<uint32_t> disks = placement->DisksOf(first_bucket);
      for (uint32_t copy = 1; copy < disks.size(); ++copy) {
        if (disks[copy] == disk) {
          ranges.push_back({m.MirrorFileName(index, copy),
                            l.PageOffset(page), l.page_size_bytes, from_ms,
                            until_ms});
        }
      }
    }
  }
  return ranges;
}

}  // namespace griddecl::serve
