#include "griddecl/cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <utility>

#include "griddecl/common/random.h"

namespace griddecl::cluster {

namespace {

/// Copies every file of `from` into `to` — how a node is seeded from the
/// catalog or caught up from a peer.
Status CopyFiles(const StorageEnv& from, StorageEnv* to) {
  auto files = from.ListFiles();
  if (!files.ok()) return files.status();
  for (const std::string& name : files.value()) {
    auto bytes = from.ReadFile(name);
    if (!bytes.ok()) return bytes.status();
    GRIDDECL_RETURN_IF_ERROR(to->WriteFile(name, bytes.value()));
  }
  return Status::Ok();
}

/// Uniform double in [0, 1) from a hash of (seed, a, b).
double HashUnit(uint64_t seed, uint64_t a, uint64_t b) {
  const uint64_t h = Mix64(seed ^ Mix64(a ^ Mix64(b)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<std::unique_ptr<Cluster>> Cluster::Create(const StorageEnv& seed,
                                                 ClusterOptions options) {
  if (options.num_nodes == 0) {
    return Status::InvalidArgument("cluster needs at least one node");
  }
  if (options.quorum_fraction < 0.0 || options.quorum_fraction >= 1.0) {
    return Status::InvalidArgument("quorum_fraction must be in [0, 1)");
  }
  if (options.hedge_factor <= 0.0 || options.hedge_min_ms < 0.0) {
    return Status::InvalidArgument("hedge parameters out of domain");
  }
  if (options.node.generation != 0) {
    return Status::InvalidArgument(
        "ClusterOptions::node.generation must be 0; nodes follow the "
        "cluster's committed generation");
  }
  GRIDDECL_RETURN_IF_ERROR(ValidateBreakerOptions(options.node_breaker));
  GRIDDECL_RETURN_IF_ERROR(ValidateHeartbeatOptions(options.heartbeat));
  if (options.retry_budget_per_query > (1u << 20) ||
      options.hedge_budget_fraction < 0.0) {
    return Status::InvalidArgument("budget options out of domain");
  }
  for (const NodeFaultWindow& w : options.node_windows) {
    if (w.node >= options.num_nodes) {
      return Status::InvalidArgument("node fault window names node " +
                                     std::to_string(w.node) + " of " +
                                     std::to_string(options.num_nodes));
    }
  }

  auto manifest = ReadCurrentManifest(seed);
  if (!manifest.ok()) return manifest.status();
  if (options.num_nodes > manifest.value().num_disks) {
    return Status::InvalidArgument(
        "more nodes than virtual disks: " + std::to_string(options.num_nodes) +
        " > " + std::to_string(manifest.value().num_disks));
  }

  // Resolve the placement spec: an explicit override wins, else the
  // manifest's persisted record, else chained over a flat topology —
  // exactly the pre-placement behavior.
  PlacementSpec spec;
  if (options.placement.has_value()) {
    spec = *options.placement;
  } else if (manifest.value().placement.has_value()) {
    auto from = FromManifestPlacement(*manifest.value().placement);
    if (!from.ok()) return from.status();
    spec = std::move(from).value();
  } else {
    spec.policy = PlacementPolicy::kChained;
    spec.topology = Topology::Flat(options.num_nodes);
    spec.seed = options.seed;
  }
  GRIDDECL_RETURN_IF_ERROR(spec.topology.Validate());
  if (spec.topology.num_nodes() != options.num_nodes) {
    return Status::InvalidArgument(
        "placement topology describes " +
        std::to_string(spec.topology.num_nodes()) + " nodes, cluster has " +
        std::to_string(options.num_nodes));
  }
  for (const ZoneFaultWindow& w : options.zone_windows) {
    if (w.zone >= spec.topology.num_zones()) {
      return Status::InvalidArgument(
          "zone fault window names zone " + std::to_string(w.zone) + " of " +
          std::to_string(spec.topology.num_zones()));
    }
  }

  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->options_ = std::move(options);
  const ClusterOptions& opts = cluster->options_;
  cluster->placement_spec_ = std::move(spec);
  cluster->start_ = std::chrono::steady_clock::now();

  // One effective window list — node windows plus zone windows expanded
  // to their member nodes — shared by NodeAliveAt (routing) and the
  // FaultyEnv wildcard ranges (reads), so a zone kill is both routed
  // around and enforced at the storage layer.
  cluster->effective_windows_ = opts.node_windows;
  for (const ZoneFaultWindow& w : opts.zone_windows) {
    for (uint32_t n = 0; n < opts.num_nodes; ++n) {
      if (cluster->placement_spec_.topology.zone_of(n) == w.zone) {
        cluster->effective_windows_.push_back(
            NodeFaultWindow{n, w.from_ms, w.until_ms});
      }
    }
  }
  // Preallocate every slot up to max_nodes so AddNode never reallocates
  // state concurrent Execute calls index into.
  const uint32_t max_nodes = std::max(opts.max_nodes, opts.num_nodes);
  cluster->node_inflight_ =
      std::make_unique<std::atomic<int64_t>[]>(max_nodes);
  cluster->heartbeat_ =
      std::make_unique<HeartbeatDetector>(opts.heartbeat, max_nodes);

  std::vector<std::shared_ptr<serve::QueryService>> services;
  for (uint32_t n = 0; n < max_nodes; ++n) {
    // Growth slots stay empty (env/service materialize in AddNode) and
    // killed until then so no path ever routes to them.
    cluster->nodes_.push_back(std::make_unique<Node>());
    cluster->nodes_[n]->killed.store(n >= opts.num_nodes);
  }
  for (uint32_t n = 0; n < opts.num_nodes; ++n) {
    GRIDDECL_RETURN_IF_ERROR(cluster->MaterializeNode(n, seed));
    services.push_back(cluster->nodes_[n]->service);
    cluster->heartbeat_->Track(n);
  }
  cluster->active_nodes_.store(opts.num_nodes);

  for (uint32_t n = 0; n < max_nodes; ++n) {
    cluster->node_breakers_.emplace_back(opts.node_breaker);
    cluster->node_query_ms_.emplace_back(obs::DefaultLatencyBoundsMs());
  }

  auto epoch = cluster->BuildEpoch(manifest.value().generation,
                                   std::move(services),
                                   cluster->nodes_[0]->env);
  if (!epoch.ok()) return epoch.status();
  cluster->epoch_ = std::move(epoch.value());

  // Self-colocation check: warn (loudly, once, at construction) about any
  // mirror relation whose placement puts two copies of some disk on one
  // node — the chained trap where a single node kill can take every
  // replica of a bucket down at once.
  for (const auto& [name, rel] : cluster->epoch_->routing->relations) {
    if (rel.copies < 2) continue;
    const std::vector<uint32_t> colocated =
        cluster->epoch_->placement.SelfColocatedDisks(rel.copies);
    if (colocated.empty()) continue;
    std::string disks;
    for (uint32_t d : colocated) {
      if (!disks.empty()) disks += ",";
      disks += std::to_string(d);
    }
    std::string warning =
        "placement warning: relation '" + name + "' (" +
        PlacementPolicyName(cluster->placement_spec_.policy) + ", copies=" +
        std::to_string(rel.copies) + ") co-locates copies of disk(s) " +
        disks + " on one node; a single node loss can drop those buckets";
    std::fprintf(stderr, "%s\n", warning.c_str());
    cluster->placement_warnings_.push_back(std::move(warning));
  }
  return cluster;
}

Cluster::~Cluster() = default;

Status Cluster::MaterializeNode(uint32_t n, const StorageEnv& from) {
  Node& nd = *nodes_[n];
  GRIDDECL_RETURN_IF_ERROR(CopyFiles(from, &nd.env));
  FaultyEnvOptions fo;
  fo.seed = options_.fault_seed + n;
  fo.transient_error_prob = options_.node_transient_prob;
  fo.max_transient_attempts = options_.node_max_transient_attempts;
  fo.latency_ms =
      n < options_.node_latency_ms.size() ? options_.node_latency_ms[n] : 0.0;
  for (const NodeFaultWindow& w : effective_windows_) {
    if (w.node != n) continue;
    fo.permanent.push_back(FaultRange{
        "", 0, std::numeric_limits<uint64_t>::max(), w.from_ms, w.until_ms});
  }
  auto faulty = FaultyEnv::Create(&nd.env, std::move(fo));
  if (!faulty.ok()) return faulty.status();
  nd.faulty = std::move(faulty.value());
  nd.faulty->SetNowMs(virtual_now_ms_.load());
  auto service = StartService(n, 0);
  if (!service.ok()) return service.status();
  nd.service = std::move(service.value());
  return Status::Ok();
}

Result<std::shared_ptr<serve::QueryService>> Cluster::StartService(
    uint32_t n, uint64_t generation) const {
  serve::ServeOptions so = options_.node;
  so.seed += n;  // decorrelate retry jitter across nodes
  so.generation = generation;
  auto service = serve::QueryService::Create(nodes_[n]->faulty.get(), so);
  if (!service.ok()) return service.status();
  return std::shared_ptr<serve::QueryService>(std::move(service.value()));
}

int Cluster::CommittedPeer(uint32_t skip) const {
  const uint64_t committed = CurrentEpoch()->generation;
  for (uint32_t p = 0; p < num_nodes(); ++p) {
    if (p == skip || !NodeAlive(p)) continue;
    auto pm = ReadCurrentManifest(nodes_[p]->env);
    if (pm.ok() && pm.value().generation == committed) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

Result<std::shared_ptr<const Cluster::Epoch>> Cluster::BuildEpoch(
    uint64_t generation,
    std::vector<std::shared_ptr<serve::QueryService>> services,
    const StorageEnv& env) const {
  // Node envs hold identical catalog files by construction; a raw MemEnv
  // (not the faulty wrapper) keeps epoch builds fault-free.
  auto manifest = ReadManifest(env, generation);
  if (!manifest.ok()) return manifest.status();
  auto catalog = LoadCatalogFromManifest(env, manifest.value());
  if (!catalog.ok()) return catalog.status();

  auto routing = std::make_shared<Routing>(std::move(catalog.value()));
  for (const ManifestRelation& mr : manifest.value().relations) {
    const DeclusteredFile* df = routing->catalog.Find(mr.name);
    if (df == nullptr) {
      return Status::Internal("manifest relation missing from catalog: " +
                              mr.name);
    }
    const uint32_t copies =
        mr.redundancy.policy == RelationRedundancy::Policy::kMirror
            ? mr.redundancy.copies
            : 1;
    routing->relations.emplace(
        mr.name, EpochRelation{df, mr.redundancy, DiskMap::Build(df->method()),
                               copies});
  }

  auto epoch = std::make_shared<Epoch>();
  epoch->generation = manifest.value().generation;
  epoch->num_disks = manifest.value().num_disks;

  // Placement resolution per generation: a manifest record carrying an
  // explicit table is repair ground truth and wins outright (its row 0 IS
  // the disk ownership map); otherwise the cluster's current spec applies
  // with any stale table cleared (a migration changes M, invalidating old
  // tables) and contiguous disk ownership.
  PlacementSpec spec = placement_spec();
  if (manifest.value().placement.has_value() &&
      !manifest.value().placement->table.empty()) {
    auto from = FromManifestPlacement(*manifest.value().placement);
    if (!from.ok()) return from.status();
    spec = std::move(from).value();
  } else {
    spec.table.clear();
  }
  if (!spec.table.empty() && spec.table[0].size() == epoch->num_disks) {
    epoch->disk_node = spec.table[0];
  } else {
    spec.table.clear();
    epoch->disk_node.resize(epoch->num_disks);
    const uint64_t n = num_nodes();
    for (uint32_t d = 0; d < epoch->num_disks; ++d) {
      epoch->disk_node[d] = static_cast<uint32_t>(
          static_cast<uint64_t>(d) * n / epoch->num_disks);
    }
  }
  uint32_t max_copies = 1;
  for (const auto& [name, rel] : routing->relations) {
    max_copies = std::max(max_copies, rel.copies);
  }
  auto placement = PlacementMap::Build(spec, epoch->disk_node, max_copies);
  if (!placement.ok()) return placement.status();
  epoch->placement = std::move(placement).value();
  epoch->services = std::move(services);
  epoch->routing = std::move(routing);
  return std::shared_ptr<const Epoch>(std::move(epoch));
}

std::shared_ptr<const Cluster::Epoch> Cluster::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

std::shared_ptr<const Cluster::Epoch> Cluster::StagingEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return staging_epoch_;
}

void Cluster::SetStagingEpoch(std::shared_ptr<const Epoch> epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  staging_epoch_ = std::move(epoch);
}

void Cluster::AdoptEpoch(std::shared_ptr<const Epoch> epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  // A repair epoch carries null services for the dead nodes it planned
  // around; those nodes re-enter through ReviveNode's catch-up fence.
  for (size_t n = 0; n < epoch->services.size() && n < nodes_.size(); ++n) {
    nodes_[n]->service = epoch->services[n];
  }
  epoch_ = std::move(epoch);
  staging_epoch_.reset();
}

uint32_t Cluster::num_disks() const { return CurrentEpoch()->num_disks; }

uint64_t Cluster::generation() const { return CurrentEpoch()->generation; }

std::vector<std::string> Cluster::RelationNames() const {
  auto epoch = CurrentEpoch();
  std::vector<std::string> names;
  names.reserve(epoch->routing->relations.size());
  for (const auto& [name, rel] : epoch->routing->relations) {
    names.push_back(name);
  }
  return names;
}

BreakerState Cluster::NodeBreakerState(uint32_t node) const {
  GRIDDECL_CHECK(node < node_breakers_.size());
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return node_breakers_[node].state();
}

bool Cluster::NodeAlive(uint32_t node) const {
  return NodeAliveAt(node, virtual_now_ms_.load());
}

bool Cluster::NodeAliveAt(uint32_t node, double virtual_now) const {
  if (node >= num_nodes()) return false;
  if (nodes_[node]->killed.load() || nodes_[node]->removed.load()) {
    return false;
  }
  for (const NodeFaultWindow& w : effective_windows_) {
    if (w.node == node && virtual_now >= w.from_ms &&
        virtual_now < w.until_ms) {
      return false;
    }
  }
  return true;
}

bool Cluster::NodeWouldRefuse(uint32_t node) const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return node_breakers_[node].WouldRefuse(SteadyNowMs());
}

bool Cluster::NodeAdmit(uint32_t node) {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return node_breakers_[node].AllowRequest(SteadyNowMs());
}

void Cluster::RecordNodeOutcome(uint32_t node, bool success) {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  if (success) {
    node_breakers_[node].RecordSuccess(SteadyNowMs());
  } else {
    node_breakers_[node].RecordFailure(SteadyNowMs());
  }
}

void Cluster::ObserveNodeLatency(uint32_t node, double ms) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  node_query_ms_[node].Observe(ms);
}

double Cluster::HedgeDelayMs(uint32_t node, uint64_t seq) const {
  if (!options_.hedging) return kInf;
  double base = options_.hedge_delay_ms;
  if (base < 0.0) {
    double p95 = 0.0;
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      const obs::Histogram& h = node_query_ms_[node];
      if (h.count() >= 8) p95 = h.Percentile(95);
    }
    base = std::max(options_.hedge_min_ms, p95 * options_.hedge_factor);
  }
  // Up to 25% seeded jitter decorrelates hedges across concurrent queries.
  return base * (1.0 + 0.25 * HashUnit(options_.seed, node, seq));
}

double Cluster::SteadyNowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void Cluster::AdvanceTimeMs(double now_ms) {
  virtual_now_ms_.store(now_ms);
  const uint32_t active = num_nodes();
  for (uint32_t n = 0; n < active; ++n) {
    nodes_[n]->faulty->SetNowMs(now_ms);
  }
  // Drive the failure detector over every heartbeat tick in the advanced
  // span. The probe answers iff the node was reachable at that virtual
  // instant — a pure function of the kill/window schedule, so detector
  // verdicts are deterministic and replayable.
  std::lock_guard<std::mutex> lock(hb_mu_);
  heartbeat_->AdvanceTo(now_ms, [this](uint32_t n, double t) {
    if (n >= num_nodes()) return false;
    const Node& nd = *nodes_[n];
    if (nd.killed.load() || nd.removed.load()) return false;
    for (const NodeFaultWindow& w : effective_windows_) {
      if (w.node == n && t >= w.from_ms && t < w.until_ms) return false;
    }
    return true;
  });
}

std::vector<uint32_t> Cluster::DeadNodesForRepair() const {
  std::vector<uint32_t> dead;
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    dead = heartbeat_->DeadNodes();
  }
  const uint32_t active = num_nodes();
  for (uint32_t n = 0; n < active; ++n) {
    if (nodes_[n]->removed.load() &&
        std::find(dead.begin(), dead.end(), n) == dead.end()) {
      dead.push_back(n);
    }
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::remove_if(dead.begin(), dead.end(),
                            [this](uint32_t n) { return n >= num_nodes(); }),
             dead.end());
  return dead;
}

double Cluster::NodeDeadSinceMs(uint32_t node) const {
  std::lock_guard<std::mutex> lock(hb_mu_);
  return heartbeat_->DeadSinceMs(node);
}

NodeHealth Cluster::NodeHealthOf(uint32_t node) const {
  if (node >= num_nodes()) return NodeHealth::kRemoved;
  if (nodes_[node]->removed.load()) return NodeHealth::kRemoved;
  std::lock_guard<std::mutex> lock(hb_mu_);
  return heartbeat_->HealthOf(node);
}

HeartbeatDetector::Counters Cluster::HeartbeatCounters() const {
  std::lock_guard<std::mutex> lock(hb_mu_);
  return heartbeat_->counters();
}

PlacementSpec Cluster::placement_spec() const {
  std::lock_guard<std::mutex> lock(spec_mu_);
  return placement_spec_;
}

void Cluster::SetPlacementTable(std::vector<std::vector<uint32_t>> table) {
  std::lock_guard<std::mutex> lock(spec_mu_);
  placement_spec_.table = std::move(table);
}

bool Cluster::AdmitExtraSub(bool is_hedge) {
  if (options_.hedge_budget_fraction <= 0.0) return true;
  const uint64_t extra = extra_subs_.fetch_add(1) + 1;
  const double cap = options_.hedge_budget_fraction *
                     static_cast<double>(primary_subs_.load());
  if (static_cast<double>(extra) > cap) {
    extra_subs_.fetch_sub(1);
    if (is_hedge) {
      hedge_budget_denied_.fetch_add(1);
    } else {
      retry_budget_denied_.fetch_add(1);
    }
    return false;
  }
  return true;
}

Status Cluster::KillNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  nodes_[node]->killed.store(true);
  return Status::Ok();
}

Status Cluster::ReviveNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  Node& nd = *nodes_[node];
  if (nd.removed.load()) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " was decommissioned");
  }
  auto epoch = CurrentEpoch();

  // Catch-up fence: while the node was down a repair may have committed a
  // newer generation staged only to the live nodes, so this node's env
  // can lack CURRENT entirely. Copy the committed state from a live peer
  // before reloading the service — never readmit a stale route.
  auto current = ReadCurrentManifest(nd.env);
  if (!current.ok() || current.value().generation != epoch->generation) {
    const int peer = CommittedPeer(node);
    if (peer < 0) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++revive_fenced_;
      return Status::Unavailable(
          "no live peer at the committed generation to catch node " +
          std::to_string(node) + " up; revival refused");
    }
    GRIDDECL_RETURN_IF_ERROR(CopyFiles(nodes_[peer]->env, &nd.env));
    nd.service.reset();  // force a reload below — the catalog moved
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++revive_catchups_;
  }

  if (nd.service == nullptr || nd.service->generation() != epoch->generation) {
    // The cluster committed a newer generation while the node was down:
    // reload the node's service at CURRENT before readmitting it.
    auto service = StartService(node, 0);
    if (!service.ok()) return service.status();
    if (service.value()->generation() != epoch->generation) {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++revive_fenced_;
      return Status::Internal(
          "node " + std::to_string(node) +
          " reloaded at generation " +
          std::to_string(service.value()->generation()) +
          " but the cluster serves " + std::to_string(epoch->generation) +
          "; revival refused");
    }
    nd.service = std::move(service.value());
    auto fresh = std::make_shared<Epoch>(*epoch);
    if (node < fresh->services.size()) {
      fresh->services[node] = nd.service;
    }
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = std::move(fresh);
  }
  nd.killed.store(false);
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    heartbeat_->Reset(node);
  }
  return Status::Ok();
}

Status Cluster::KillZone(uint32_t zone) {
  const PlacementSpec spec = placement_spec();
  if (zone >= spec.topology.num_zones()) {
    return Status::InvalidArgument("no zone " + std::to_string(zone));
  }
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (spec.topology.zone_of(n) == zone) {
      GRIDDECL_RETURN_IF_ERROR(KillNode(n));
    }
  }
  return Status::Ok();
}

Status Cluster::ReviveZone(uint32_t zone) {
  const PlacementSpec spec = placement_spec();
  if (zone >= spec.topology.num_zones()) {
    return Status::InvalidArgument("no zone " + std::to_string(zone));
  }
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (spec.topology.zone_of(n) == zone) {
      GRIDDECL_RETURN_IF_ERROR(ReviveNode(n));
    }
  }
  return Status::Ok();
}

Result<uint32_t> Cluster::AddNode(uint32_t rack, uint32_t zone) {
  std::lock_guard<std::mutex> lock(spec_mu_);
  const uint32_t id = active_nodes_.load();
  if (id >= nodes_.size()) {
    return Status::FailedPrecondition(
        "cluster is at max_nodes (" + std::to_string(nodes_.size()) +
        "); create with a larger ClusterOptions::max_nodes to grow");
  }
  Topology topo = placement_spec_.topology;
  if (rack > topo.num_racks()) {
    return Status::InvalidArgument(
        "rack " + std::to_string(rack) + " out of range (have " +
        std::to_string(topo.num_racks()) + " racks; == appends)");
  }
  if (rack == topo.num_racks()) {
    if (zone > topo.num_zones()) {
      return Status::InvalidArgument(
          "zone " + std::to_string(zone) + " out of range (have " +
          std::to_string(topo.num_zones()) + " zones; == opens a new one)");
    }
    topo.rack_zone.push_back(zone);
  } else if (zone != topo.rack_zone[rack]) {
    return Status::InvalidArgument(
        "rack " + std::to_string(rack) + " is in zone " +
        std::to_string(topo.rack_zone[rack]) + ", not " +
        std::to_string(zone));
  }
  topo.node_rack.push_back(rack);
  GRIDDECL_RETURN_IF_ERROR(topo.Validate());

  // Seed the new node's env from a live peer at the committed generation.
  auto epoch = CurrentEpoch();
  const int peer = CommittedPeer(id);
  if (peer < 0) {
    return Status::Unavailable(
        "no live peer at the committed generation to seed the new node");
  }
  Node& nd = *nodes_[id];
  GRIDDECL_RETURN_IF_ERROR(MaterializeNode(id, nodes_[peer]->env));

  // Publish: topology first, then the node (release on active_nodes_ so
  // any reader that sees the new count sees a fully built slot). Existing
  // placement is untouched — the new node takes traffic only after the
  // next Repair / Migrate re-places.
  placement_spec_.topology = std::move(topo);
  {
    auto fresh = std::make_shared<Epoch>(*epoch);
    fresh->services.push_back(nd.service);
    std::lock_guard<std::mutex> elock(epoch_mu_);
    epoch_ = std::move(fresh);
  }
  nd.killed.store(false);
  nd.removed.store(false);
  active_nodes_.store(id + 1);
  {
    std::lock_guard<std::mutex> hlock(hb_mu_);
    heartbeat_->Track(id);
  }
  {
    std::lock_guard<std::mutex> mlock(metrics_mu_);
    ++nodes_added_;
  }
  return id;
}

Status Cluster::RemoveNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no node " + std::to_string(node));
  }
  Node& nd = *nodes_[node];
  if (nd.removed.exchange(true)) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " already removed");
  }
  nd.killed.store(true);
  removed_count_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    heartbeat_->MarkRemoved(node);
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++nodes_removed_;
  }
  return Status::Ok();
}

ClusterQueryResult Cluster::Execute(const serve::QueryRequest& request) {
  const double t0 = SteadyNowMs();
  auto epoch = CurrentEpoch();
  ClusterQueryResult result =
      ExecuteOnEpoch(*epoch, request, /*allow_hedge=*/options_.hedging);

  // Live double-read while a migration's staging epoch is installed: run
  // every complete query against the new layout too and compare bytes. A
  // mismatch is divergence — flagged here, acted on by the transition engine.
  auto staging = StagingEpoch();
  if (staging != nullptr && result.status.ok() && result.complete) {
    ClusterQueryResult shadow =
        ExecuteOnEpoch(*staging, request, /*allow_hedge=*/false);
    bool mismatch = false;
    if (shadow.status.ok() && shadow.complete &&
        shadow.matches != result.matches) {
      mismatch = true;
      divergence_.store(true);
    }
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++verify_reads_;
    if (mismatch) ++verify_mismatches_;
  }

  result.total_ms = SteadyNowMs() - t0;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++queries_;
    if (!result.status.ok()) {
      ++failed_;
    } else if (result.complete) {
      ++complete_;
    } else {
      ++partial_;
    }
    sub_queries_ += result.sub_queries;
    hedges_fired_ += result.hedges_fired;
    hedge_wins_ += result.hedge_wins;
    hedges_cancelled_ += result.hedges_cancelled;
    rerouted_subqueries_ += result.rerouted_subqueries;
    unavailable_buckets_ += result.unavailable_buckets;
    query_ms_.Observe(result.total_ms);
  }
  return result;
}

ClusterQueryResult Cluster::ExecuteOnEpoch(const Epoch& epoch,
                                           const serve::QueryRequest& request,
                                           bool allow_hedge) {
  ClusterQueryResult result;
  result.generation = epoch.generation;
  const double vnow = virtual_now_ms_.load();

  // Quorum gate: with a majority (per quorum_fraction) of nodes down, a
  // "partial" result would be mostly holes — refuse loudly instead.
  // Decommissioned nodes leave the denominator: a shrunk cluster is not
  // permanently degraded.
  const uint32_t active = num_nodes();
  const uint32_t members = active - std::min(active, removed_count_.load());
  uint32_t alive = 0;
  for (uint32_t n = 0; n < active; ++n) {
    if (NodeAliveAt(n, vnow)) ++alive;
  }
  const uint32_t needed =
      static_cast<uint32_t>(std::floor(members * options_.quorum_fraction)) +
      1;
  if (alive < needed) {
    result.status = Status::Unavailable(
        "quorum lost: " + std::to_string(alive) + " of " +
        std::to_string(members) + " nodes alive, need " +
        std::to_string(needed));
    result.complete = false;
    result.availability = 0.0;
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++quorum_rejections_;
    return result;
  }

  auto it = epoch.routing->relations.find(request.relation);
  if (it == epoch.routing->relations.end()) {
    result.status = Status::NotFound("no relation " + request.relation);
    result.complete = false;
    return result;
  }
  const EpochRelation& rel = it->second;

  auto rq = rel.df->file().ResolveRange(request.lo, request.hi);
  if (!rq.ok()) {
    result.status = rq.status();
    result.complete = false;
    return result;
  }
  result.buckets_touched = rq.value().NumBuckets();

  std::vector<uint64_t> counts;
  rel.disk_map.CountsForRect(rq.value().rect(), counts);
  const uint32_t num_disks = epoch.num_disks;

  // Plan: one route per (node, copy). A disk whose owner is dead or
  // breaker-refused reroutes to the least-loaded alive replica-holding
  // node per the epoch's placement (ties to the lowest copy index, which
  // is the deterministic first-alive choice whenever loads are equal —
  // always the case single-threaded or at copies=2); plain and parity
  // relations lose those buckets — parity repairs a disk *within* a node,
  // not a whole node.
  std::map<std::pair<uint32_t, uint32_t>, Route> routes;
  for (uint32_t d = 0; d < num_disks; ++d) {
    if (counts[d] == 0) continue;
    const uint32_t owner = epoch.disk_node[d];
    uint32_t target_node = owner;
    uint32_t target_copy = 0;
    bool placed = NodeAliveAt(owner, vnow) && !NodeWouldRefuse(owner);
    if (!placed) {
      int64_t best_load = 0;
      for (uint32_t c = 1; c < rel.copies; ++c) {
        const uint32_t rn = epoch.placement.NodeOf(d, c);
        if (rn == owner || !NodeAliveAt(rn, vnow) || NodeWouldRefuse(rn)) {
          continue;
        }
        const int64_t load = node_inflight_[rn].load();
        if (!placed || load < best_load) {
          target_node = rn;
          target_copy = c;
          best_load = load;
          placed = true;
        }
      }
    }
    if (!placed) {
      result.unavailable_buckets += counts[d];
      result.winners.push_back('u');
      continue;
    }
    Route& r = routes[{target_node, target_copy}];
    r.node = target_node;
    r.copy = target_copy;
    r.disks.push_back(d);
    r.buckets += counts[d];
    r.rerouted = r.rerouted || target_copy != 0;
  }

  // Scatter everything up front so nodes work in parallel; routes whose
  // breaker admission or submit fails fall to the failover path below.
  struct InFlight {
    const Route* route = nullptr;
    std::future<serve::QueryResult> future;
    bool submitted = false;
  };
  auto make_sub = [&](const Route& route,
                      uint32_t copy) -> serve::QueryRequest {
    serve::QueryRequest sub;
    sub.relation = request.relation;
    sub.lo = request.lo;
    sub.hi = request.hi;
    sub.deadline_ms = request.deadline_ms;
    sub.disks = route.disks;
    sub.serve_copy = copy;
    sub.expected_generation = epoch.generation;
    return sub;
  };
  // In-flight load accounting: every submitted sub-query charges its
  // bucket count to the serving node until its future is consumed (or the
  // route finishes, for hedges dropped unread) — the signal the planner's
  // least-loaded replica choice balances on.
  std::vector<InFlight> flights;
  flights.reserve(routes.size());
  for (const auto& [key, route] : routes) {
    InFlight fl;
    fl.route = &route;
    // A repair epoch carries null services for the nodes it planned
    // around — planning already avoids them, but guard the submit.
    if (epoch.services[route.node] != nullptr && NodeAdmit(route.node)) {
      auto submitted =
          epoch.services[route.node]->Submit(make_sub(route, route.copy));
      if (submitted.ok()) {
        fl.future = std::move(submitted.value());
        fl.submitted = true;
        ++result.sub_queries;
        primary_subs_.fetch_add(1);
        node_inflight_[route.node].fetch_add(
            static_cast<int64_t>(route.buckets));
      }
    }
    if (route.rerouted) ++result.rerouted_subqueries;
    flights.push_back(std::move(fl));
  }

  // Gather in deterministic route order.
  const uint64_t seq = query_seq_.fetch_add(1);
  uint32_t retries_used = 0;
  for (InFlight& fl : flights) {
    const Route& route = *fl.route;
    auto resubmit = [&](uint32_t node, uint32_t copy)
        -> Result<std::future<serve::QueryResult>> {
      if (epoch.services[node] == nullptr) {
        return Status::Unavailable("no service on node");
      }
      if (!NodeAdmit(node)) {
        return Status::Unavailable("node breaker open");
      }
      auto f = epoch.services[node]->Submit(make_sub(route, copy));
      if (f.ok()) ++result.sub_queries;
      return f;
    };
    // Sub-queries cover disjoint primary-disk sets and each returns its
    // matches sorted, so merging at every route boundary keeps the
    // gathered answer in global record-id order.
    auto take = [&](const serve::QueryResult& r) {
      const auto boundary = static_cast<std::ptrdiff_t>(result.matches.size());
      result.matches.insert(result.matches.end(), r.matches.begin(),
                            r.matches.end());
      std::inplace_merge(result.matches.begin(),
                         result.matches.begin() + boundary,
                         result.matches.end());
    };
    // The deterministic first-replica target: the node holding the next
    // alive copy of the route's first disk. Hedge and first failover both
    // go here, so "served by the first replica" has one winner letter
    // ('h') whether the attempt launched before or after the primary
    // failed — that keeps winners schedule-deterministic under
    // kPrimaryPreferred.
    uint32_t alt_node = route.node;
    uint32_t alt_copy = 0;
    if (rel.copies > 1 && !route.disks.empty()) {
      const uint32_t d0 = route.disks.front();
      for (uint32_t c = 1; c < rel.copies; ++c) {
        const uint32_t rn = epoch.placement.NodeOf(d0, c);
        if (rn != route.node && NodeAliveAt(rn, vnow) &&
            !NodeWouldRefuse(rn)) {
          alt_node = rn;
          alt_copy = c;
          break;
        }
      }
    }
    const bool have_alt = alt_copy != 0;

    bool route_served = false;
    bool primary_failed_observed = false;
    std::future<serve::QueryResult> hedge;
    bool hedge_fired = false;
    bool hedge_failed_observed = false;

    if (fl.submitted) {
      const double delay = allow_hedge && route.copy == 0 && have_alt
                               ? HedgeDelayMs(route.node, seq)
                               : kInf;
      if (std::isfinite(delay)) {
        const auto wait = std::chrono::duration<double, std::milli>(delay);
        if (fl.future.wait_for(wait) != std::future_status::ready &&
            AdmitExtraSub(/*is_hedge=*/true)) {
          auto h = resubmit(alt_node, alt_copy);
          if (h.ok()) {
            hedge = std::move(h.value());
            hedge_fired = true;
            ++result.hedges_fired;
            node_inflight_[alt_node].fetch_add(
                static_cast<int64_t>(route.buckets));
          }
        }
      }
      if (options_.hedge_policy == HedgePolicy::kFirstSuccess && hedge_fired) {
        // Race primary vs hedge; the first success wins and the loser's
        // future is dropped unread (cooperative cancel: never merged,
        // never fed to the breakers).
        bool primary_done = false;
        bool hedge_done = false;
        serve::QueryResult pr;
        serve::QueryResult hr;
        const auto slice = std::chrono::microseconds(50);
        while (!route_served && !(primary_done && hedge_done)) {
          if (!primary_done &&
              fl.future.wait_for(slice) == std::future_status::ready) {
            pr = fl.future.get();
            primary_done = true;
            RecordNodeOutcome(route.node, pr.status.ok());
            ObserveNodeLatency(route.node, pr.total_ms);
            if (pr.status.ok()) {
              take(pr);
              result.winners.push_back('p');
              if (!hedge_done) ++result.hedges_cancelled;
              route_served = true;
              break;
            }
            primary_failed_observed = true;
          }
          if (!hedge_done && hedge.wait_for(std::chrono::seconds(0)) ==
                                 std::future_status::ready) {
            hedge_done = true;
            hr = hedge.get();
            RecordNodeOutcome(alt_node, hr.status.ok());
            ObserveNodeLatency(alt_node, hr.total_ms);
            if (hr.status.ok()) {
              take(hr);
              ++result.hedge_wins;
              result.winners.push_back('h');
              route_served = true;
              break;
            }
            hedge_failed_observed = true;
          }
          if (primary_done && !hedge_done) {
            // Primary failed and only the hedge remains: block on it.
            hr = hedge.get();
            hedge_done = true;
            RecordNodeOutcome(alt_node, hr.status.ok());
            ObserveNodeLatency(alt_node, hr.total_ms);
            if (hr.status.ok()) {
              take(hr);
              ++result.hedge_wins;
              result.winners.push_back('h');
              route_served = true;
            } else {
              hedge_failed_observed = true;
            }
          }
        }
      } else {
        // kPrimaryPreferred (or no hedge in flight): the primary's result
        // is authoritative whenever it succeeds, so winner selection is a
        // pure function of the fault schedule.
        serve::QueryResult pr = fl.future.get();
        RecordNodeOutcome(route.node, pr.status.ok());
        ObserveNodeLatency(route.node, pr.total_ms);
        if (pr.status.ok()) {
          if (hedge_fired) ++result.hedges_cancelled;
          take(pr);
          result.winners.push_back('p');
          route_served = true;
        } else {
          primary_failed_observed = true;
          if (hedge_fired) {
            serve::QueryResult hr = hedge.get();
            RecordNodeOutcome(alt_node, hr.status.ok());
            ObserveNodeLatency(alt_node, hr.total_ms);
            if (hr.status.ok()) {
              take(hr);
              ++result.hedge_wins;
              result.winners.push_back('h');
              route_served = true;
            } else {
              hedge_failed_observed = true;
            }
          }
        }
      }
    }
    (void)primary_failed_observed;
    // The route's in-flight charges are settled here whether its futures
    // were consumed or dropped (a cancelled hedge's work is nearly done
    // by the time its future is discarded).
    if (fl.submitted) {
      node_inflight_[route.node].fetch_sub(
          static_cast<int64_t>(route.buckets));
    }
    if (hedge_fired) {
      node_inflight_[alt_node].fetch_sub(static_cast<int64_t>(route.buckets));
    }
    if (route_served) continue;

    // Failover: the primary (and any hedge) failed or was never
    // submitted. Try the deterministic first replica unless it already
    // failed as the hedge, then the remaining copies in order.
    for (uint32_t c = 1; c < rel.copies && !route_served; ++c) {
      if (route.disks.empty()) break;
      if (hedge_failed_observed && c == alt_copy) continue;
      const uint32_t rn = epoch.placement.NodeOf(route.disks.front(), c);
      if (rn == route.node || !NodeAliveAt(rn, vnow)) continue;
      // Retry budgets: a per-query cap on failover resubmits, then the
      // cluster-wide extra-sub-query budget. Both default off.
      if (options_.retry_budget_per_query > 0 &&
          retries_used >= options_.retry_budget_per_query) {
        retry_budget_denied_.fetch_add(1);
        break;
      }
      if (!AdmitExtraSub(/*is_hedge=*/false)) break;
      ++retries_used;
      auto f = resubmit(rn, c);
      if (!f.ok()) continue;
      node_inflight_[rn].fetch_add(static_cast<int64_t>(route.buckets));
      serve::QueryResult fr = f.value().get();
      node_inflight_[rn].fetch_sub(static_cast<int64_t>(route.buckets));
      RecordNodeOutcome(rn, fr.status.ok());
      ObserveNodeLatency(rn, fr.total_ms);
      if (fr.status.ok()) {
        take(fr);
        ++result.rerouted_subqueries;
        result.winners.push_back(c == alt_copy ? 'h' : 'r');
        route_served = true;
      }
    }
    if (!route_served) {
      result.unavailable_buckets += route.buckets;
      result.winners.push_back('u');
    }
  }

  if (result.buckets_touched > 0) {
    result.availability =
        1.0 - static_cast<double>(result.unavailable_buckets) /
                  static_cast<double>(result.buckets_touched);
  }
  result.complete = result.unavailable_buckets == 0;
  if (!result.complete &&
      result.unavailable_buckets == result.buckets_touched &&
      result.buckets_touched > 0) {
    result.status = Status::Unavailable("no live route to any touched bucket");
    result.matches.clear();
    result.availability = 0.0;
  } else {
    result.status = Status::Ok();
  }
  return result;
}

void Cluster::SnapshotMetrics(obs::MetricsRegistry* out) const {
  if (out == nullptr) return;
  std::lock_guard<std::mutex> lock(metrics_mu_);
  const auto set = [out](const char* name, uint64_t v) {
    obs::Counter* c = out->GetCounter(name);
    c->Reset();
    c->Inc(v);
  };
  set("cluster.queries", queries_);
  set("cluster.complete", complete_);
  set("cluster.partial", partial_);
  set("cluster.failed", failed_);
  set("cluster.sub_queries", sub_queries_);
  set("cluster.hedges_fired", hedges_fired_);
  set("cluster.hedge_wins", hedge_wins_);
  set("cluster.hedges_cancelled", hedges_cancelled_);
  set("cluster.rerouted_subqueries", rerouted_subqueries_);
  set("cluster.unavailable_buckets", unavailable_buckets_);
  set("cluster.quorum_rejections", quorum_rejections_);
  set("cluster.verify_reads", verify_reads_);
  set("cluster.verify_mismatches", verify_mismatches_);
  set("cluster.migrations_committed", migrations_committed_);
  set("cluster.migrations_aborted", migrations_aborted_);
  set("cluster.migration_buckets_copied", migration_buckets_copied_);
  set("cluster.repairs_committed", repairs_committed_);
  set("cluster.repairs_aborted", repairs_aborted_);
  set("cluster.repair_replicas_rebuilt", repair_replicas_rebuilt_);
  set("cluster.repair_bytes_copied", repair_bytes_copied_);
  set("cluster.revive_catchups", revive_catchups_);
  set("cluster.revive_fenced", revive_fenced_);
  set("cluster.nodes_added", nodes_added_);
  set("cluster.nodes_removed", nodes_removed_);
  set("cluster.hedge_budget_denied", hedge_budget_denied_.load());
  set("cluster.retry_budget_denied", retry_budget_denied_.load());
  {
    HeartbeatDetector::Counters hb;
    {
      std::lock_guard<std::mutex> hlock(hb_mu_);
      hb = heartbeat_->counters();
    }
    set("cluster.heartbeat.beats", hb.beats);
    set("cluster.heartbeat.missed", hb.missed);
    set("cluster.heartbeat.suspected", hb.suspected);
    set("cluster.heartbeat.died", hb.died);
    set("cluster.heartbeat.recovered", hb.recovered);
  }
  obs::Histogram* h = out->GetHistogram("cluster.query_ms", query_ms_.bounds());
  h->Reset();
  h->Merge(query_ms_);

  BreakerCounters totals;
  {
    std::lock_guard<std::mutex> block(breaker_mu_);
    for (const auto& b : node_breakers_) {
      totals.opened += b.counters().opened;
      totals.half_opened += b.counters().half_opened;
      totals.closed += b.counters().closed;
      totals.reopened += b.counters().reopened;
    }
  }
  set("cluster.node_breaker.opened", totals.opened);
  set("cluster.node_breaker.half_opened", totals.half_opened);
  set("cluster.node_breaker.closed", totals.closed);
  set("cluster.node_breaker.reopened", totals.reopened);
}

}  // namespace griddecl::cluster
