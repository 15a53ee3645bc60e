/// paper_sweep: the paper's own experiment. The four paper methods (DM,
/// FX-auto, ECC where defined, HCAM) on a 2-D and a 3-D grid at several
/// disk counts M. Queries are squarish ranges of varied area plus
/// partial-match lines; each is evaluated by `Evaluator` and priced by
/// `ParallelIoSimulator` under every configuration of its grid, and every
/// round of queries is also run through `SimulateThroughput`. One thread,
/// no storage: serve and cluster changes should not move it.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog.h"
#include "griddecl/common/check.h"
#include "griddecl/eval/disk_map.h"
#include "griddecl/eval/evaluator.h"
#include "griddecl/methods/registry.h"
#include "griddecl/methods/replicated.h"
#include "griddecl/obs/metrics.h"
#include "griddecl/query/query.h"
#include "griddecl/query/workload.h"
#include "griddecl/sim/faults.h"
#include "griddecl/sim/io_sim.h"
#include "griddecl/sim/throughput.h"

namespace perfbench {
namespace {

using griddecl::BucketCoords;
using griddecl::BucketRect;
using griddecl::DeclusteringMethod;
using griddecl::GridSpec;
using griddecl::RangeQuery;

constexpr uint32_t kDiskCounts[] = {8, 16, 32, 64};
constexpr int kRangesPerGrid = 96;
constexpr int kLinesPerGrid = 32;
constexpr int kSetups = 3;
/// Rounds per pass over the query list; one degraded re-plan (the
/// recovery sample) follows each pass, so its samples span the run.
constexpr size_t kBatches = 4;
/// Ranges per configuration the degraded re-plan covers (recovery_cpu_s).
constexpr size_t kReplanQueries = 10;

/// One (grid, method, M) configuration, ready to price queries.
struct Config {
  std::unique_ptr<DeclusteringMethod> method;
  std::unique_ptr<griddecl::Evaluator> evaluator;
  std::unique_ptr<griddecl::ParallelIoSimulator> sim;
  size_t grid_index = 0;
  bool is_dm = false;
};

struct GridQueries {
  GridSpec grid;
  griddecl::Workload workload;
};

std::vector<GridSpec> Grids() {
  return {GridSpec::Create({512, 512}).value(),
          GridSpec::Create({32, 32, 32}).value()};
}

/// Squarish ranges whose volumes step geometrically from 16 to 4096
/// buckets, and partial-match lines: every attribute but one fixed to a
/// partition, the free one cycling. Sizes and shapes are a fixed schedule;
/// the seed places them, so every seed asks for the same work.
GridQueries MakeQueries(const GridSpec& grid, uint64_t seed) {
  constexpr double kAspects[] = {0.8, 1.0, 1.25};
  Prng rng(seed);
  GridQueries out{grid, {}};
  out.workload.name = grid.ToString();
  const uint32_t k = grid.num_dims();
  for (int q = 0; q < kRangesPerGrid + kLinesPerGrid; ++q) {
    BucketCoords lo(k), hi(k);
    if (q < kRangesPerGrid) {
      const double volume =
          16.0 * std::pow(4096.0 / 16.0,
                          static_cast<double>(q) / (kRangesPerGrid - 1));
      const double side = std::pow(volume, 1.0 / k);
      for (uint32_t d = 0; d < k; ++d) {
        const uint32_t extent = std::clamp<uint32_t>(
            static_cast<uint32_t>(std::lround(side * kAspects[(q + d) % 3])),
            1, grid.dim(d));
        lo[d] = static_cast<uint32_t>(rng.Below(grid.dim(d) - extent + 1));
        hi[d] = lo[d] + extent - 1;
      }
    } else {
      const uint32_t free_dim = static_cast<uint32_t>(q % k);
      for (uint32_t d = 0; d < k; ++d) {
        if (d == free_dim) {
          lo[d] = 0;
          hi[d] = grid.dim(d) - 1;
        } else {
          lo[d] = hi[d] = static_cast<uint32_t>(rng.Below(grid.dim(d)));
        }
      }
    }
    out.workload.queries.push_back(
        RangeQuery::Create(grid, BucketRect::Create(lo, hi).value()).value());
  }
  return out;
}

std::vector<Config> SetUp(const std::vector<GridSpec>& grids) {
  std::vector<Config> configs;
  for (size_t g = 0; g < grids.size(); ++g) {
    for (uint32_t m : kDiskCounts) {
      for (auto& method : griddecl::CreatePaperMethods(grids[g], m)) {
        Config c;
        c.grid_index = g;
        c.is_dm = method->name().rfind("DM", 0) == 0;
        c.evaluator = std::make_unique<griddecl::Evaluator>(*method);
        GRIDDECL_CHECK(c.evaluator->disk_map() != nullptr);
        c.sim = std::make_unique<griddecl::ParallelIoSimulator>(
            griddecl::ParallelIoSimulator::Create(m, griddecl::DiskParams{})
                .value());
        c.method = std::move(method);
        configs.push_back(std::move(c));
      }
    }
  }
  return configs;
}

/// What one configuration answered for one query; later rounds must
/// answer exactly the same.
struct Priced {
  uint64_t response = 0;
  double makespan_ms = 0.0;
};

/// Independent checks of one (query, configuration) answer: per-disk
/// counts against a bucket walk through `DiskOf` (and, for DM, against
/// its closed form), the response bounds, and the simulator's makespan
/// bounds from `DiskParams`.
void CheckPriced(const Config& c, const RangeQuery& query,
                 const griddecl::QueryEval& eval,
                 const griddecl::SimResult& sim, Report* report) {
  const uint32_t m = c.method->num_disks();
  std::vector<uint64_t> walk;
  const uint64_t response = WalkResponse(*c.method, query.rect(), &walk);
  std::vector<uint64_t> counts;
  c.evaluator->disk_map()->CountsForRect(query.rect(), counts);
  report->Check(counts == walk, c.method->name() + " DiskMap counts");
  if (c.is_dm) {
    std::vector<uint64_t> closed(m, 0);
    query.rect().ForEachBucket([&](const BucketCoords& b) {
      uint64_t sum = 0;
      for (uint32_t d = 0; d < b.size(); ++d) sum += b[d];
      closed[sum % m]++;
    });
    report->Check(closed == walk, "DM closed form");
  }
  const uint64_t q = query.NumBuckets();
  report->Check(eval.num_buckets == q && eval.response == response &&
                    eval.optimal == CeilDiv(q, m),
                c.method->name() + " evaluator response");
  report->Check(CeilDiv(q, m) <= eval.response && eval.response <= q,
                "ceil(|Q|/M) <= response <= |Q|");
  const griddecl::DiskParams& p = c.sim->params();
  const double lo = response * p.TransferMs();
  const double hi =
      response * (p.avg_seek_ms + p.rotational_latency_ms + p.TransferMs());
  report->Check(sim.makespan_ms >= lo * (1 - 1e-9) &&
                    sim.makespan_ms <= hi * (1 + 1e-9),
                "makespan within response x [transfer, seek+rot+transfer]");
}

/// The closed-system run must account for every bucket: summed disk busy
/// time lies between all transfers and all fully positioned reads.
void CheckThroughput(const Config& c, const griddecl::Workload& workload,
                     const griddecl::ThroughputResult& r, Report* report) {
  const griddecl::DiskParams& p = c.sim->params();
  const double buckets = static_cast<double>(workload.TotalBuckets());
  double busy = 0.0;
  for (double b : r.disk_busy_ms) busy += b;
  report->Check(r.num_queries == workload.size() &&
                    busy >= buckets * p.TransferMs() * (1 - 1e-9) &&
                    busy <= buckets *
                                (p.avg_seek_ms + p.rotational_latency_ms +
                                 p.TransferMs()) *
                                (1 + 1e-9) &&
                    r.total_ms * c.method->num_disks() >= busy * (1 - 1e-9),
                c.method->name() + " throughput accounts for every bucket");
}

/// Chained two-copy placements of every configuration's method, built
/// apart from any timing for the re-planning below.
std::vector<griddecl::ReplicatedPlacement> Placements(
    const std::vector<GridSpec>& grids) {
  std::vector<griddecl::ReplicatedPlacement> placements;
  for (const GridSpec& grid : grids) {
    for (uint32_t m : kDiskCounts) {
      for (auto& method : griddecl::CreatePaperMethods(grid, m)) {
        placements.push_back(
            griddecl::ReplicatedPlacement::Create(std::move(method), 2)
                .value());
      }
    }
  }
  return placements;
}

/// Degraded re-planning after losing disk 0 under chained mirrors: the
/// declustering layer's recovery. The ranges are fixed (cubes of side
/// 2..kReplanQueries+1 at the origin), so every seed re-plans the same
/// work. Checks that every bucket stays readable and none is read from
/// disk 0.
double Replan(const std::vector<Config>& configs,
              const std::vector<griddecl::ReplicatedPlacement>& placements,
              Report* report, Tracer* tracer) {
  double seconds = 0.0;
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const Config& c = configs[ci];
    const GridSpec& grid = c.method->grid();
    std::vector<RangeQuery> ranges;
    for (uint32_t side = 2; side < kReplanQueries + 2; ++side) {
      BucketCoords lo(grid.num_dims()), hi(grid.num_dims());
      for (uint32_t d = 0; d < grid.num_dims(); ++d) hi[d] = side - 1;
      ranges.push_back(
          RangeQuery::Create(grid, BucketRect::Create(lo, hi).value())
              .value());
    }
    std::vector<bool> failed(c.method->num_disks(), false);
    failed[0] = true;
    std::vector<griddecl::DegradedPlan::QueryPlan> plans;
    {
      Span span(tracer, "sim.degraded_replan");
      const double start = CpuNow();
      const griddecl::DegradedPlan plan =
          griddecl::DegradedPlan::ForReplicated(placements[ci], failed)
              .value();
      for (const RangeQuery& q : ranges) {
        plans.push_back(plan.ExpandQuery(q).value());
      }
      seconds += CpuSecondsSince(start);
    }
    for (size_t qi = 0; qi < ranges.size(); ++qi) {
      const auto& p = plans[qi];
      uint64_t served = 0;
      for (const auto& reads : p.per_disk) served += reads.size();
      report->Check(p.unavailable_buckets == 0 && p.per_disk[0].empty() &&
                        served == ranges[qi].NumBuckets(),
                    c.method->name() + " re-plan serves every bucket");
    }
  }
  return seconds;
}

}  // namespace

WorkloadResult RunPaperSweep(const Args& args, Report* report,
                             Tracer* tracer) {
  WorkloadResult out;
  const std::vector<GridSpec> grids = Grids();
  std::vector<GridQueries> queries;
  for (size_t g = 0; g < grids.size(); ++g) {
    queries.push_back(MakeQueries(grids[g], args.seed * 31 + g));
  }

  std::vector<double> setups;
  std::vector<Config> configs;
  for (int i = 0; i < kSetups; ++i) {
    configs.clear();
    Span span(tracer, "setup");
    const double start = CpuNow();
    configs = SetUp(grids);
    setups.push_back(CpuSecondsSince(start));
  }
  out.setup_s = Median(setups);

  // Round b: the queries of both grids whose index is b mod kBatches
  // under every configuration of their grid, then one closed-system
  // simulation of that batch per configuration. Every batch spans the
  // whole size schedule, so rounds cost alike.
  std::vector<std::vector<griddecl::Workload>> batches(queries.size());
  for (size_t g = 0; g < queries.size(); ++g) {
    batches[g].resize(kBatches);
    const griddecl::Workload& w = queries[g].workload;
    for (size_t qi = 0; qi < w.size(); ++qi) {
      batches[g][qi % kBatches].queries.push_back(w.queries[qi]);
    }
  }
  // First answer of each (configuration, query) and (configuration,
  // batch), checked once against the oracles; repeats must match them.
  std::vector<std::vector<Priced>> first(configs.size());
  std::vector<std::vector<griddecl::ThroughputResult>> first_tp(
      configs.size(), std::vector<griddecl::ThroughputResult>(kBatches));
  const std::vector<griddecl::ReplicatedPlacement> placements =
      Placements(grids);
  report->Check(placements.size() == configs.size(),
                "one placement per configuration");
  std::vector<double> latencies_ms;
  std::vector<double> round_rates;
  std::vector<double> recoveries;
  size_t pass_requests = 0;
  std::vector<double> ratios;
  std::vector<uint64_t> scratch;
  griddecl::ThroughputOptions tp_options;
  tp_options.concurrency = 4;
  double measured_s = 0.0;
  uint64_t request_id = 0;
  for (size_t round = 0; measured_s < args.seconds || round % kBatches != 0;
       ++round) {
    const size_t b = round % kBatches;
    const bool checking = round < kBatches;
    double round_s = 0.0;
    uint64_t round_queries = 0;
    for (size_t g = 0; g < queries.size(); ++g) {
      const griddecl::Workload& w = queries[g].workload;
      for (size_t qi = b; qi < w.size(); qi += kBatches) {
        const RangeQuery& query = w.queries[qi];
        std::vector<griddecl::QueryEval> evals;
        std::vector<griddecl::SimResult> sims;
        // One request: the query priced under one configuration.
        for (const Config& c : configs) {
          if (c.grid_index != g) continue;
          Span span(tracer, "sweep.query", ++request_id);
          const double start = CpuNow();
          {
            Span s(tracer, "eval.query", request_id);
            evals.push_back(c.evaluator->EvaluateQuery(query, scratch));
          }
          {
            Span s(tracer, "sim.io_query", request_id);
            sims.push_back(c.sim->RunQuery(*c.evaluator->disk_map(), query));
          }
          const double dt = CpuSecondsSince(start);
          round_s += dt;
          latencies_ms.push_back(dt * 1e3);
          ++round_queries;
          report->Attempt();
        }
        // Checks, outside the timed region.
        size_t k = 0;
        for (size_t ci = 0; ci < configs.size(); ++ci) {
          const Config& c = configs[ci];
          if (c.grid_index != g) continue;
          const griddecl::QueryEval& e = evals[k];
          const griddecl::SimResult& s = sims[k];
          ++k;
          if (checking) {
            CheckPriced(c, query, e, s, report);
            first[ci].resize(w.size());
            first[ci][qi] = {e.response, s.makespan_ms};
            ratios.push_back(e.Ratio());
          } else {
            const Priced& p = first[ci][qi];
            report->Check(p.response == e.response &&
                              p.makespan_ms == s.makespan_ms,
                          "repeated query prices the same");
          }
        }
      }
    }
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      const Config& c = configs[ci];
      const griddecl::Workload& w = batches[c.grid_index][b];
      std::optional<griddecl::Result<griddecl::ThroughputResult>> result;
      {
        Span span(tracer, "sim.throughput", ++request_id);
        const double start = CpuNow();
        result.emplace(griddecl::SimulateThroughput(*c.method, w, tp_options));
        round_s += CpuSecondsSince(start);
      }
      const griddecl::Result<griddecl::ThroughputResult>& tp = *result;
      report->Attempt();
      if (!tp.ok()) {
        report->Fail();
        continue;
      }
      if (checking) {
        CheckThroughput(c, w, tp.value(), report);
        first_tp[ci][b] = tp.value();
      } else {
        report->Check(tp.value().total_ms == first_tp[ci][b].total_ms,
                      "repeated throughput run matches");
      }
    }
    measured_s += round_s;
    round_rates.push_back(round_queries / round_s);
    if (checking) pass_requests += round_queries;
    if (b == kBatches - 1) {
      recoveries.push_back(Replan(configs, placements, report, tracer));
    }
  }
  const Timings timings =
      SummarizeTimings(latencies_ms, pass_requests, round_rates);
  out.queries_per_cpu_s = timings.queries_per_cpu_s;
  out.query_cpu_p50_ms = timings.p50_ms;
  out.query_cpu_p95_ms = timings.p95_ms;
  out.response_ratio = Mean(ratios);

  double table_bytes = 0.0, entry_bytes = 0.0;
  for (const Config& c : configs) {
    table_bytes += c.evaluator->disk_map()->SizeBytes();
    entry_bytes += 4.0 * c.method->grid().num_buckets();
  }
  out.stored_bytes_per_user_byte = table_bytes / entry_bytes;

  out.recovery_cpu_s = Median(recoveries);

  if (tracer != nullptr) {
    LayerMetrics& l = out.layers;
    // Virtual DiskOf over every bucket of every configuration's grid.
    double disk_of_s = 0.0, build_s = 0.0, calls = 0.0;
    std::vector<uint64_t> counts;
    for (const Config& c : configs) {
      const GridSpec& grid = c.method->grid();
      {
        Span span(tracer, "methods.disk_of");
        const double start = CpuNow();
        WalkResponse(*c.method, BucketRect::Full(grid), &counts);
        disk_of_s += CpuSecondsSince(start);
      }
      calls += static_cast<double>(grid.num_buckets());
      Span span(tracer, "eval.diskmap_build");
      const double start = CpuNow();
      const griddecl::DiskMap map = griddecl::DiskMap::Build(*c.method);
      build_s += CpuSecondsSince(start);
      report->Check(map.SizeBytes() ==
                        c.evaluator->disk_map()->SizeBytes(),
                    "rebuilt DiskMap matches the evaluator's");
    }
    l.push_back({"methods.disk_of_ns", disk_of_s * 1e9 / calls});
    l.push_back({"eval.diskmap_build_ms", build_s * 1e3});
    l.push_back({"eval.query_us", tracer->MeanMs("eval.query") * 1e3});
    l.push_back({"sim.io_query_us", tracer->MeanMs("sim.io_query") * 1e3});
    l.push_back({"sim.throughput_ms", tracer->MeanMs("sim.throughput")});
    l.push_back({"sim.replan_ms", Median(recoveries) * 1e3});
    // Share of queries the DiskMap answers on its analytic stride path.
    double fast = 0.0, all = 0.0;
    for (const Config& c : configs) {
      griddecl::obs::MetricsRegistry registry;
      griddecl::EvalOptions options;
      options.metrics = &registry;
      const griddecl::Evaluator evaluator(*c.method, options);
      evaluator.EvaluateWorkload(queries[c.grid_index].workload);
      fast += registry.GetCounter("eval.fastpath_queries")->value();
      all += registry.GetCounter("eval.queries")->value();
    }
    l.push_back({"eval.fastpath_share", fast / all});
  }
  return out;
}

}  // namespace perfbench
