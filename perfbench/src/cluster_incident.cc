/// cluster_incident: three single-worker nodes, one per zone, zone_aware
/// placement at copies = 2, hedging off. Every round creates a cluster
/// from the committed catalog and runs one fixed script:
///
///   healthy queries -> KillNode -> AdvanceTimeMs past heartbeat death ->
///   degraded queries -> Repair -> queries -> ReviveNode -> queries ->
///   Migrate to another method -> queries
///
/// Scatter/gather, degraded routing and the staged-generation write path
/// dominate. Every node stores every file, so that copying shows in
/// stored_bytes_per_user_byte and peak_rss_mb.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "catalog.h"
#include "griddecl/cluster/cluster.h"
#include "griddecl/cluster/placement.h"
#include "griddecl/common/check.h"
#include "griddecl/methods/registry.h"

namespace perfbench {
namespace {

using griddecl::cluster::Cluster;
using griddecl::cluster::ClusterQueryResult;
using griddecl::serve::QueryRequest;

constexpr uint32_t kNodes = 3;
constexpr uint32_t kDisks = 6;
constexpr uint32_t kSide = 32;
constexpr uint32_t kDeadNode = 0;
constexpr int kQueriesPerPhase = 256;
constexpr int kSetups = 3;
/// Heartbeat: 10 ms beats, dead after 4 missed (t = 40 virtual ms).
constexpr double kPastDeathMs = 60.0;
constexpr char kMethod[] = "hcam";
constexpr char kMigrateTo[] = "fx-auto";

constexpr const char* kPhases[] = {"healthy", "degraded", "repaired",
                                   "revived", "migrated"};
constexpr int kNumPhases = 5;

griddecl::cluster::PlacementSpec ZoneAware() {
  griddecl::cluster::PlacementSpec spec;
  spec.policy = griddecl::cluster::PlacementPolicy::kZoneAware;
  spec.topology =
      griddecl::cluster::Topology::Grid(kNodes, kNodes, kNodes).value();
  spec.seed = 7;
  return spec;
}

griddecl::cluster::ClusterOptions Options() {
  griddecl::cluster::ClusterOptions options;
  options.num_nodes = kNodes;
  options.node.num_threads = 1;
  options.node.max_queue = 16;
  // Each node's pool holds its whole catalog, so after first touch the
  // layers above the page read dominate.
  options.node.pool_pages = 4096;
  options.node.seed = 42;
  options.node.read.retry.max_attempts = 1;
  options.hedging = false;
  options.seed = 42;
  options.placement = ZoneAware();
  return options;
}

/// Node each disk's buckets are read from under the cluster's published
/// placement: the primary holder when alive, else the first alive copy.
std::vector<int> ServingNodes(const Cluster& c) {
  griddecl::cluster::PlacementSpec spec = c.placement_spec();
  const uint32_t m = c.num_disks();
  std::vector<uint32_t> disk_node(m);
  if (!spec.table.empty() && spec.table[0].size() == m) {
    disk_node = spec.table[0];
  } else {
    spec.table.clear();
    for (uint32_t d = 0; d < m; ++d) disk_node[d] = d * c.num_nodes() / m;
  }
  const griddecl::cluster::PlacementMap map =
      griddecl::cluster::PlacementMap::Build(spec, disk_node, 2).value();
  std::vector<int> node(m, -1);
  for (uint32_t d = 0; d < m; ++d) {
    for (uint32_t copy = 0; copy < 2 && node[d] < 0; ++copy) {
      if (c.NodeAlive(map.NodeOf(d, copy))) node[d] = map.NodeOf(d, copy);
    }
  }
  return node;
}

struct Phase {
  std::vector<double> latencies_ms;
  uint64_t sub_queries = 0;
  uint64_t rerouted = 0;
  uint64_t queries = 0;
  std::vector<uint64_t> node_buckets = std::vector<uint64_t>(kNodes, 0);
};

struct Round {
  double create_s = 0.0;
  double repair_s = 0.0, revive_s = 0.0, migrate_s = 0.0;
  uint64_t repair_bytes = 0, migrate_bytes = 0;
  uint64_t stored_bytes = 0;
  std::vector<Phase> phases = std::vector<Phase>(kNumPhases);
  std::vector<double> ratios;
};

class Script {
 public:
  Script(const PointSet& points, const std::vector<QueryRequest>& requests,
         Report* report, Tracer* tracer)
      : requests_(requests), report_(report), tracer_(tracer) {
    for (const QueryRequest& req : requests_) {
      const std::vector<uint64_t> ids = points.BoxFilter(req.lo, req.hi);
      expected_.push_back(Fingerprint(ids));
      expected_size_.push_back(ids.size());
    }
  }

  /// One incident on a fresh cluster over `env`.
  Round Run(const griddecl::MemEnv& env) {
    Round round;
    std::unique_ptr<Cluster> c;
    {
      Span span(tracer_, "cluster.create");
      const double start = CpuNow();
      c = Cluster::Create(env, Options()).value();
      round.create_s = CpuSecondsSince(start);
    }
    report_->Check(c->PlacementWarnings().empty(),
                   "zone_aware placement has no colocated copies");
    Queries(*c, 0, kMethod, &round);

    report_->Check(c->KillNode(kDeadNode).ok(), "kill node");
    c->AdvanceTimeMs(kPastDeathMs);
    report_->Check(c->NodeHealthOf(kDeadNode) ==
                       griddecl::cluster::NodeHealth::kDead,
                   "heartbeat declares the killed node dead");
    Queries(*c, 1, kMethod, &round);

    {
      Span span(tracer_, "cluster.repair");
      const double start = CpuNow();
      auto repair = c->Repair({});
      round.repair_s = CpuSecondsSince(start);
      report_->Attempt();
      if (!repair.ok() || !repair.value().committed) {
        report_->Fail();
      } else {
        round.repair_bytes = repair.value().bytes_copied;
        report_->Check(repair.value().verify_mismatches == 0,
                       "repair verifies clean");
      }
    }
    CheckRepairedPlacement(*c);
    Queries(*c, 2, kMethod, &round);

    {
      Span span(tracer_, "cluster.revive");
      const double start = CpuNow();
      const griddecl::Status revived = c->ReviveNode(kDeadNode);
      round.revive_s = CpuSecondsSince(start);
      report_->Attempt();
      if (!revived.ok()) report_->Fail();
    }
    Queries(*c, 3, kMethod, &round);

    {
      Span span(tracer_, "cluster.migrate");
      griddecl::cluster::MigrationOptions options;
      options.new_method = kMigrateTo;
      options.new_num_disks = kDisks;
      const double start = CpuNow();
      auto migrated = c->Migrate(options);
      round.migrate_s = CpuSecondsSince(start);
      report_->Attempt();
      if (!migrated.ok() || !migrated.value().committed) {
        report_->Fail();
      } else {
        round.migrate_bytes = migrated.value().bytes_copied;
        report_->Check(migrated.value().verify_mismatches == 0,
                       "migration verifies clean");
      }
    }
    Queries(*c, 4, kMigrateTo, &round);

    for (uint32_t n = 0; n < c->num_nodes(); ++n) {
      round.stored_bytes += EnvBytes(*c->node_env_for_test(n));
    }
    return round;
  }

 private:
  /// After the repair no replica stays on the dead node and each disk's
  /// two copies lie in distinct zones.
  void CheckRepairedPlacement(const Cluster& c) {
    const griddecl::cluster::PlacementSpec spec = c.placement_spec();
    report_->Check(spec.table.size() == 2 &&
                       spec.table[0].size() == c.num_disks(),
                   "repair publishes an explicit two-copy table");
    if (spec.table.size() != 2) return;
    for (uint32_t d = 0; d < c.num_disks(); ++d) {
      const uint32_t a = spec.table[0][d];
      const uint32_t b = spec.table[1][d];
      report_->Check(a != kDeadNode && b != kDeadNode,
                     "no replica on the dead node");
      report_->Check(
          spec.topology.zone_of(a) != spec.topology.zone_of(b),
          "both copies of a disk in distinct zones");
    }
  }

  void Queries(Cluster& c, int phase, const char* method, Round* round) {
    Phase& p = round->phases[phase];
    // The incident steps before a phase may start or stop node services.
    TrackThreads();
    const std::vector<int> serving = ServingNodes(c);
    const griddecl::GridSpec grid =
        griddecl::GridSpec::Square(2, kSide).value();
    auto m = griddecl::CreateMethod(method, grid, c.num_disks()).value();
    std::vector<uint64_t> counts;
    for (size_t i = 0; i < requests_.size(); ++i) {
      ClusterQueryResult r;
      {
        Span span(tracer_, kPhases[phase], ++request_id_);
        const double start = CpuNow();
        r = c.Execute(requests_[i]);
        const double dt = CpuSecondsSince(start);
        p.latencies_ms.push_back(dt * 1e3);
      }
      report_->Attempt();
      p.queries++;
      p.sub_queries += r.sub_queries;
      p.rerouted += r.rerouted_subqueries;
      if (!r.status.ok() || !r.complete) {
        report_->Fail();
        continue;
      }
      report_->Check(r.matches.size() == expected_size_[i] &&
                         Fingerprint(r.matches) == expected_[i],
                     std::string(kPhases[phase]) + " query " +
                         std::to_string(i) + " equals the box filter");
      const griddecl::BucketRect rect = RectOf(requests_[i].lo,
                                               requests_[i].hi, kSide);
      const uint64_t response = WalkResponse(*m, rect, &counts);
      round->ratios.push_back(static_cast<double>(response) /
                              CeilDiv(rect.Volume(), c.num_disks()));
      for (uint32_t d = 0; d < counts.size(); ++d) {
        if (counts[d] > 0 && serving[d] >= 0) {
          p.node_buckets[serving[d]] += counts[d];
        }
      }
    }
  }

  const std::vector<QueryRequest>& requests_;
  Report* report_;
  Tracer* tracer_;
  std::vector<uint64_t> expected_;
  std::vector<size_t> expected_size_;
  uint64_t request_id_ = 0;
};

}  // namespace

WorkloadResult RunClusterIncident(const Args& args, Report* report,
                                  Tracer* tracer) {
  WorkloadResult out;
  CatalogShape shape;
  shape.side = kSide;
  shape.disks = kDisks;
  shape.method = kMethod;
  shape.page_size = 4096;
  shape.placement = griddecl::cluster::ToManifestPlacement(ZoneAware());
  const PointSet points =
      PointSet::Generate(kSide, PageCapacity(shape.page_size), args.seed);
  const std::vector<QueryRequest> requests =
      UniformRequests(kSide, kQueriesPerPhase, 8, 32, args.seed + 1);
  Script script(points, requests, report, tracer);

  // The first rounds each start from a freshly built catalog (a full
  // set-up sample); later rounds re-create the cluster only.
  std::vector<double> setups;
  std::vector<Round> rounds;
  BuiltCatalog catalog;
  double measured_s = 0.0;
  while (rounds.size() < static_cast<size_t>(kSetups) ||
         measured_s < args.seconds) {
    const bool fresh = rounds.size() < static_cast<size_t>(kSetups);
    if (fresh) {
      catalog.env.reset();
      Span span(tracer, "setup");
      catalog = BuildCatalog(points, shape, tracer);
    }
    const double start = CpuNow();
    rounds.push_back(script.Run(*catalog.env));
    measured_s += CpuSecondsSince(start) - rounds.back().create_s;
    if (fresh) {
      setups.push_back(catalog.build_s + catalog.save_s +
                       rounds.back().create_s);
    }
  }
  out.setup_s = Median(setups);

  std::vector<double> latencies, recoveries, ratios;
  for (const Round& r : rounds) {
    for (const Phase& p : r.phases) {
      latencies.insert(latencies.end(), p.latencies_ms.begin(),
                       p.latencies_ms.end());
    }
    recoveries.push_back(r.repair_s + r.revive_s + r.migrate_s);
    ratios.insert(ratios.end(), r.ratios.begin(), r.ratios.end());
  }
  // A pass is one incident round: every phase's queries.
  const Timings timings =
      SummarizeTimings(latencies, kNumPhases * kQueriesPerPhase, {});
  out.queries_per_cpu_s = timings.queries_per_cpu_s;
  out.query_cpu_p50_ms = timings.p50_ms;
  out.query_cpu_p95_ms = timings.p95_ms;
  out.recovery_cpu_s = Median(recoveries);
  out.response_ratio = Mean(ratios);
  const double user_bytes = static_cast<double>(points.size()) * 2 * 8;
  out.stored_bytes_per_user_byte = rounds.back().stored_bytes / user_bytes;

  if (tracer != nullptr) {
    LayerMetrics& l = out.layers;
    std::vector<double> creates, repair_ms, revive_ms, migrate_ms;
    for (const Round& r : rounds) {
      creates.push_back(r.create_s * 1e3);
      repair_ms.push_back(r.repair_s * 1e3);
      revive_ms.push_back(r.revive_s * 1e3);
      migrate_ms.push_back(r.migrate_s * 1e3);
    }
    l.push_back({"cluster.create_ms", Median(creates)});
    uint64_t subs = 0, rerouted = 0, queries = 0;
    std::vector<uint64_t> node_buckets(kNodes, 0);
    for (int ph = 0; ph < kNumPhases; ++ph) {
      std::vector<double> phase_ms;
      uint64_t phase_subs = 0, phase_queries = 0;
      for (const Round& r : rounds) {
        const Phase& p = r.phases[ph];
        phase_ms.insert(phase_ms.end(), p.latencies_ms.begin(),
                        p.latencies_ms.end());
        phase_subs += p.sub_queries;
        phase_queries += p.queries;
        subs += p.sub_queries;
        rerouted += p.rerouted;
        queries += p.queries;
        for (uint32_t n = 0; n < kNodes; ++n) {
          node_buckets[n] += p.node_buckets[n];
        }
      }
      l.push_back({std::string("cluster.execute_ms_p50.") + kPhases[ph],
                   Quantile(phase_ms, 0.5)});
      l.push_back(
          {std::string("cluster.subqueries_per_query.") + kPhases[ph],
           static_cast<double>(phase_subs) / phase_queries});
    }
    l.push_back({"cluster.subqueries_per_query",
                 static_cast<double>(subs) / queries});
    l.push_back({"cluster.rerouted_subqueries_per_query",
                 static_cast<double>(rerouted) / queries});
    uint64_t total_buckets = 0, max_buckets = 0;
    for (uint64_t b : node_buckets) {
      total_buckets += b;
      max_buckets = std::max(max_buckets, b);
    }
    l.push_back({"cluster.node_share_max",
                 static_cast<double>(max_buckets) / total_buckets});
    l.push_back({"cluster.repair_ms", Median(repair_ms)});
    l.push_back({"cluster.repair_mb", rounds.back().repair_bytes / 1e6});
    l.push_back({"cluster.revive_ms", Median(revive_ms)});
    l.push_back({"cluster.migrate_ms", Median(migrate_ms)});
    l.push_back({"cluster.migrate_mb", rounds.back().migrate_bytes / 1e6});
    l.push_back({"cluster.stored_mb_per_node",
                 rounds.back().stored_bytes / 1e6 / kNodes});
  }
  return out;
}

}  // namespace perfbench
