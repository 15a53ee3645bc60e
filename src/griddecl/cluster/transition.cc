#include "griddecl/cluster/transition.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "griddecl/cluster/cluster.h"
#include "griddecl/methods/registry.h"

namespace griddecl::cluster {

Status TransitionOptions::Validate() const {
  if (copy_bytes_per_sec < 0.0 || copy_device_bytes_per_sec < 0.0 ||
      copy_contention_ms < 0.0) {
    return Status::InvalidArgument(
        "copy pacing rates and contention must be >= 0");
  }
  return Status::Ok();
}

const char* Cluster::TransitionAbortReason(const TransitionPlan& plan) const {
  if (abort_migration_.load()) return "externally aborted";
  if (divergence_.load()) return "live double-read divergence";
  for (uint32_t n : plan.targets) {
    if (!NodeAlive(n)) return plan.node_lost_reason;
  }
  return nullptr;
}

Result<CatalogManifest> Cluster::NextManifest(uint32_t source,
                                              uint64_t generation) const {
  const StorageEnv& env = nodes_[source]->env;
  auto manifest = ReadManifest(env, generation);
  if (!manifest.ok()) return manifest.status();
  auto next = NextManifestGeneration(env);
  if (!next.ok()) return next.status();
  manifest.value().generation = next.value();
  return manifest;
}

TransitionReport Cluster::RunTransition(const TransitionOptions& options,
                                        const TransitionPlan& plan) {
  TransitionReport report;
  report.old_generation = plan.old_epoch->generation;
  const uint64_t generation = plan.staged.generation;
  const auto phase = [&options](const char* p) {
    if (options.on_phase) options.on_phase(p);
  };
  // An unpaced copy saturates the shared device: every read on every
  // target pays the contention penalty until the copy phase ends. A paced
  // copy fits in spare bandwidth and injects nothing.
  const double contention_ms =
      options.copy_bytes_per_sec <= 0.0 ? options.copy_contention_ms : 0.0;
  const auto contend = [&](double ms) {
    if (contention_ms <= 0.0) return;
    for (uint32_t n : plan.targets) nodes_[n]->faulty->SetExtraLatencyMs(ms);
  };
  // The clean-abort path. Best effort on every node, dead ones included
  // (the simulated env stays writable; a real node re-runs the drop on
  // recovery, which recovery's wreckage scan makes safe anyway).
  const auto abort_with = [&](std::string reason) {
    contend(0.0);
    SetStagingEpoch(nullptr);
    for (uint32_t n = 0; n < num_nodes(); ++n) {
      (void)DropStagedManifest(&nodes_[n]->env, generation);
    }
    report.committed = false;
    report.abort_reason = std::move(reason);
    return report;
  };
  const auto abortable_sleep = [&](double ms) -> const char* {
    for (double left = ms; left > 0.0; left -= 5.0) {
      if (const char* why = TransitionAbortReason(plan)) return why;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(std::min(left, 5.0)));
    }
    return TransitionAbortReason(plan);
  };

  if (const char* why = TransitionAbortReason(plan)) return abort_with(why);
  report.new_generation = generation;

  // --- Phase 1: copy -----------------------------------------------------
  phase("copy");
  // The bucket banks up to 50 ms of budget so pacing throttles the
  // sustained rate, not every single small file.
  TokenBucket bucket(options.copy_bytes_per_sec,
                     options.copy_bytes_per_sec * 0.05);
  contend(contention_ms);
  const StorageEnv& src = nodes_[plan.targets.front()]->env;
  CatalogManifest old_names = plan.staged;
  old_names.generation = report.old_generation;
  for (size_t i = 0; i < plan.staged.relations.size(); ++i) {
    const ManifestRelation& mr = plan.staged.relations[i];
    std::vector<std::pair<std::string, std::string>> files;
    files.emplace_back(old_names.DataFileName(i),
                       plan.staged.DataFileName(i));
    if (mr.redundancy.policy == RelationRedundancy::Policy::kMirror) {
      for (uint32_t c = 1; c < mr.redundancy.copies; ++c) {
        files.emplace_back(old_names.MirrorFileName(i, c),
                           plan.staged.MirrorFileName(i, c));
      }
    }
    if (mr.parity_size > 0) {
      files.emplace_back(old_names.ParityFileName(i),
                         plan.staged.ParityFileName(i));
    }
    for (const auto& [from, to] : files) {
      if (const char* why = TransitionAbortReason(plan)) return abort_with(why);
      auto bytes = src.ReadFile(from);
      if (!bytes.ok()) {
        return abort_with("copy failed: " + bytes.status().ToString());
      }
      const double charge =
          static_cast<double>(bytes.value().size()) * plan.charge_fraction;
      // Pace BEFORE the transfer: the budget gates when bytes enter the
      // device, so a paced copy never bursts ahead of its rate.
      const double wait = bucket.ConsumeDelayMs(charge, SteadyNowMs());
      if (wait > 0.0) {
        report.pacing_wait_ms += wait;
        if (const char* why = abortable_sleep(wait)) return abort_with(why);
      }
      // Simulated device transfer time for the charged bytes.
      if (options.copy_device_bytes_per_sec > 0.0) {
        if (const char* why = abortable_sleep(
                charge * 1000.0 / options.copy_device_bytes_per_sec)) {
          return abort_with(why);
        }
      }
      for (uint32_t n : plan.targets) {
        Status w = nodes_[n]->env.WriteFile(to, bytes.value());
        if (!w.ok()) return abort_with("copy failed: " + w.ToString());
      }
      ++report.files_copied;
      report.bytes_copied += static_cast<uint64_t>(charge);
    }
    report.buckets_copied +=
        plan.old_epoch->routing->relations.at(mr.name).df->file().grid()
            .num_buckets();
  }
  const std::string manifest_bytes = SerializeManifest(plan.staged);
  for (uint32_t n : plan.targets) {
    Status w = nodes_[n]->env.WriteFile(ManifestFileName(generation),
                                        manifest_bytes);
    if (!w.ok()) return abort_with("staging manifest: " + w.ToString());
  }
  // Copy traffic is done: lift the contention penalty before verify.
  contend(0.0);
  phase("staged");
  if (const char* why = TransitionAbortReason(plan)) return abort_with(why);

  // --- Phase 2: verify ---------------------------------------------------
  phase("verify");
  // Non-target nodes keep a null service in the staging epoch.
  std::vector<std::shared_ptr<serve::QueryService>> services(num_nodes());
  for (uint32_t n : plan.targets) {
    auto service = StartService(n, generation);
    if (!service.ok()) {
      return abort_with("staging service on node " + std::to_string(n) + ": " +
                   service.status().ToString());
    }
    services[n] = std::move(service.value());
  }
  auto staging = BuildEpoch(generation, std::move(services), src);
  if (!staging.ok()) {
    return abort_with("staging epoch: " + staging.status().ToString());
  }
  // From here on, every complete live query is double-read against the
  // staging epoch (Execute) — traffic itself verifies the copy.
  SetStagingEpoch(staging.value());

  std::vector<serve::QueryRequest> sample = options.verify_requests;
  if (sample.empty()) {
    // Default sample per relation: the full box plus each attribute's
    // lower half (exercises multi-disk routing in every dimension).
    for (const auto& [name, rel] : plan.old_epoch->routing->relations) {
      const Schema& schema = rel.df->file().schema();
      serve::QueryRequest full;
      full.relation = name;
      for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
        full.lo.push_back(schema.attribute(a).lo);
        full.hi.push_back(schema.attribute(a).hi);
      }
      sample.push_back(full);
      for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
        serve::QueryRequest half = full;
        half.hi[a] = (schema.attribute(a).lo + schema.attribute(a).hi) / 2.0;
        sample.push_back(std::move(half));
      }
    }
  }
  for (const serve::QueryRequest& vq : sample) {
    if (const char* why = TransitionAbortReason(plan)) return abort_with(why);
    const ClusterQueryResult old_r =
        ExecuteOnEpoch(*plan.old_epoch, vq, /*allow_hedge=*/false);
    const ClusterQueryResult new_r =
        ExecuteOnEpoch(*staging.value(), vq, /*allow_hedge=*/false);
    ++report.verify_queries;
    const bool old_complete = old_r.status.ok() && old_r.complete;
    if (!old_complete && !plan.old_may_be_partial) {
      return abort_with("verify query failed on old layout: " +
                   old_r.status.ToString());
    }
    // The staged layout must serve everything from its targets alone.
    if (!new_r.status.ok() || !new_r.complete) {
      return abort_with("verify query failed on staged layout: " +
                   new_r.status.ToString());
    }
    if (old_complete && old_r.matches != new_r.matches) {
      ++report.verify_mismatches;
      return abort_with("divergence: old and staged layouts disagree on '" +
                   vq.relation + "'");
    }
  }

  // --- Phase 3: commit ---------------------------------------------------
  phase("commit");
  if (const char* why = TransitionAbortReason(plan)) return abort_with(why);
  for (size_t i = 0; i < plan.targets.size(); ++i) {
    const uint32_t n = plan.targets[i];
    Status s = CommitStagedManifest(&nodes_[n]->env, generation);
    if (!s.ok()) {
      // Fence the cutover back out: targets that already flipped return
      // to the old generation, then the staged files are dropped.
      for (size_t j = 0; j < i; ++j) {
        (void)RollbackToGeneration(&nodes_[plan.targets[j]]->env,
                                   report.old_generation);
      }
      return abort_with("commit failed on node " + std::to_string(n) + ": " +
                   s.ToString());
    }
  }
  // The atomic cutover point for routing: new services, new disk map, new
  // generation in one epoch swap. In-flight queries finish on the old
  // epoch; their sub-queries still carry the old generation fence and the
  // old services keep serving them until the last shared_ptr drops. The
  // cluster's spec follows the committed generation's table: a repair's
  // explicit one, or none after a migration re-places by policy.
  AdoptEpoch(staging.value());
  SetPlacementTable(staging.value()->placement.spec().table);
  for (uint32_t n : plan.targets) {
    GarbageCollectManifests(&nodes_[n]->env, generation);
  }
  phase("committed");
  report.committed = true;
  return report;
}

Status Cluster::BeginTransition() {
  bool expected = false;
  if (!migrating_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition(
        "a migration or repair is already running");
  }
  abort_migration_.store(false);
  divergence_.store(false);
  return Status::Ok();
}

Result<MigrationReport> Cluster::Migrate(const MigrationOptions& options) {
  GRIDDECL_RETURN_IF_ERROR(BeginTransition());
  auto report = RunMigration(options);
  migrating_.store(false);
  if (report.ok()) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    if (report.value().committed) {
      ++migrations_committed_;
    } else {
      ++migrations_aborted_;
    }
    migration_buckets_copied_ += report.value().buckets_copied;
  }
  return report;
}

Result<MigrationReport> Cluster::RunMigration(
    const MigrationOptions& options) {
  GRIDDECL_RETURN_IF_ERROR(options.Validate());
  TransitionPlan plan;
  plan.old_epoch = CurrentEpoch();
  // Hard validation: a target the new layout cannot express is a caller
  // error, not an abort.
  if (options.new_num_disks == 0) {
    return Status::InvalidArgument("new_num_disks must be >= 1");
  }
  if (num_nodes() > options.new_num_disks) {
    return Status::InvalidArgument(
        "new_num_disks " + std::to_string(options.new_num_disks) +
        " < cluster nodes " + std::to_string(num_nodes()));
  }
  for (const auto& [name, rel] : plan.old_epoch->routing->relations) {
    auto method = CreateMethod(options.new_method, rel.df->file().grid(),
                               options.new_num_disks);
    if (!method.ok()) {
      return Status::InvalidArgument(
          "method '" + options.new_method + "' invalid for relation '" + name +
          "': " + method.status().ToString());
    }
    if (rel.redundancy.policy == RelationRedundancy::Policy::kMirror &&
        rel.redundancy.copies > options.new_num_disks) {
      return Status::InvalidArgument(
          "relation '" + name + "' has " +
          std::to_string(rel.redundancy.copies) + " mirror copies but only " +
          std::to_string(options.new_num_disks) + " target disks");
    }
  }

  // Every member node takes the new layout; decommissioned nodes are
  // expected to be dark.
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (!nodes_[n]->removed.load()) plan.targets.push_back(n);
  }
  if (plan.targets.empty()) {
    return Status::FailedPrecondition("every node was decommissioned");
  }
  plan.node_lost_reason = "node lost";
  auto staged = NextManifest(plan.targets.front(), plan.old_epoch->generation);
  if (!staged.ok()) return staged.status();
  // Same relations, sizes, and CRCs (the files are byte-identical copies);
  // only generation, disk count, and method move.
  plan.staged = std::move(staged).value();
  plan.staged.num_disks = options.new_num_disks;
  for (ManifestRelation& mr : plan.staged.relations) {
    mr.method = options.new_method;
  }
  if (plan.staged.placement.has_value()) {
    // A repair's explicit table is keyed to the old disk count and layout;
    // the migrated generation re-places by policy.
    plan.staged.placement->table.clear();
    plan.staged.placement->table_copies = 0;
    plan.staged.placement->table_disks = 0;
  }
  return RunTransition(options, plan);
}

Result<RepairReport> Cluster::Repair(const RepairOptions& options) {
  GRIDDECL_RETURN_IF_ERROR(BeginTransition());
  auto report = RunRepair(options);
  migrating_.store(false);
  if (report.ok()) {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    if (report.value().committed) {
      ++repairs_committed_;
      repair_replicas_rebuilt_ += report.value().replicas_retargeted;
      repair_bytes_copied_ += report.value().bytes_copied;
    } else if (!report.value().already_healthy) {
      ++repairs_aborted_;
    }
  }
  return report;
}

Result<RepairReport> Cluster::RunRepair(const RepairOptions& options) {
  GRIDDECL_RETURN_IF_ERROR(options.Validate());
  const double wall_t0 = SteadyNowMs();
  RepairReport report;
  TransitionPlan plan;
  plan.old_epoch = CurrentEpoch();
  report.old_generation = plan.old_epoch->generation;

  if (options.on_phase) options.on_phase("plan");
  report.dead_nodes = DeadNodesForRepair();
  // The nodes the repair runs ON: alive now and not being repaired
  // around. Losing one of these mid-repair aborts.
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (NodeAlive(n) && std::find(report.dead_nodes.begin(),
                                  report.dead_nodes.end(),
                                  n) == report.dead_nodes.end()) {
      plan.targets.push_back(n);
    }
  }
  if (plan.targets.empty()) {
    report.abort_reason = "no live node to repair from";
    return report;
  }
  const PlacementSpec spec = placement_spec();
  const std::vector<std::vector<uint32_t>>& table =
      plan.old_epoch->placement.Table();
  auto repair =
      PlanRepair(RepairPlanInput{table, spec.topology, report.dead_nodes,
                                 spec.seed});
  if (!repair.ok()) return repair.status();
  if (!repair.value().unrecoverable_disks.empty()) {
    report.abort_reason =
        std::to_string(repair.value().unrecoverable_disks.size()) +
        " disk(s) lost every replica: unrecoverable";
    return report;
  }
  if (repair.value().actions.empty()) {
    report.already_healthy = true;
    return report;
  }
  report.replicas_retargeted = repair.value().actions.size();
  // Redundancy-restored-by anchor: the earliest detector death among the
  // nodes being repaired around.
  double earliest_dead = std::numeric_limits<double>::infinity();
  for (uint32_t n : report.dead_nodes) {
    const double since = NodeDeadSinceMs(n);
    if (since > 0.0) earliest_dead = std::min(earliest_dead, since);
  }

  // The staged manifest keeps relations, disks, and methods; only the
  // generation and the placement record (now carrying the repaired table,
  // the ground truth every later epoch build obeys) move.
  auto staged = NextManifest(plan.targets.front(), report.old_generation);
  if (!staged.ok()) return staged.status();
  plan.staged = std::move(staged).value();
  PlacementSpec repaired = spec;
  repaired.table = std::move(repair.value().new_table);
  plan.staged.placement = ToManifestPlacement(repaired);
  // Only the rebuilt share of each file actually moves: the pacing charge
  // (and the reported bytes) scale by retargeted replicas / all replicas.
  plan.charge_fraction =
      static_cast<double>(report.replicas_retargeted) /
      (static_cast<double>(table.size()) *
       static_cast<double>(table[0].size()));
  plan.node_lost_reason = "repair-source node lost";
  // The degraded old layout may be partial (that is why we repair).
  plan.old_may_be_partial = true;
  static_cast<TransitionReport&>(report) = RunTransition(options, plan);
  if (report.committed) {
    if (std::isfinite(earliest_dead)) {
      report.mttr_virtual_ms = std::max(0.0, VirtualNowMs() - earliest_dead);
    }
    report.mttr_wall_ms = SteadyNowMs() - wall_t0;
  }
  return report;
}

}  // namespace griddecl::cluster
