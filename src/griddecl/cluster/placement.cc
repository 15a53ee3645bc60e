#include "griddecl/cluster/placement.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "griddecl/common/random.h"

namespace griddecl::cluster {

namespace {

/// Seeded deterministic tie-break for copy `copy` of disk `disk` on `node`.
uint64_t TieBreak(uint64_t seed, uint32_t disk, uint32_t copy, uint32_t node) {
  return Mix64(seed ^ (static_cast<uint64_t>(disk) << 32) ^
               (static_cast<uint64_t>(copy) << 20) ^ node);
}

/// The zone_aware ranking: the node for copy `copy` of disk `disk` that
/// maximizes (new zone, new rack, new node, lightest load, TieBreak)
/// against `holders`, the nodes holding the disk's other copies; the
/// lowest id wins exact ties. Nodes marked in `dead` are skipped (an
/// empty mask skips none).
uint32_t ZoneAwarePick(const Topology& topology,
                       const std::vector<uint32_t>& holders,
                       const std::vector<uint64_t>& load,
                       const std::vector<bool>& dead, uint64_t seed,
                       uint32_t disk, uint32_t copy) {
  std::set<uint32_t> nodes, racks, zones;
  for (uint32_t h : holders) {
    nodes.insert(h);
    racks.insert(topology.rack_of(h));
    zones.insert(topology.zone_of(h));
  }
  const auto score = [&](uint32_t n) {
    return std::make_tuple(zones.count(topology.zone_of(n)) == 0,
                           racks.count(topology.rack_of(n)) == 0,
                           nodes.count(n) == 0, ~load[n],
                           TieBreak(seed, disk, copy, n));
  };
  uint32_t best = 0;
  bool have_best = false;
  for (uint32_t n = 0; n < topology.num_nodes(); ++n) {
    if (!dead.empty() && dead[n]) continue;
    if (!have_best || score(n) > score(best)) {
      best = n;
      have_best = true;
    }
  }
  return best;
}

}  // namespace

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kChained:
      return "chained";
    case PlacementPolicy::kSpread:
      return "spread";
    case PlacementPolicy::kZoneAware:
      return "zone_aware";
  }
  return "unknown";
}

Result<PlacementPolicy> ParsePlacementPolicy(const std::string& name) {
  if (name == "chained") return PlacementPolicy::kChained;
  if (name == "spread") return PlacementPolicy::kSpread;
  if (name == "zone_aware") return PlacementPolicy::kZoneAware;
  return Status::InvalidArgument("bad placement policy '" + name +
                                 "' (chained|spread|zone_aware)");
}

uint32_t Topology::num_zones() const {
  uint32_t highest = 0;
  for (uint32_t zone : rack_zone) highest = std::max(highest, zone);
  return rack_zone.empty() ? 0 : highest + 1;
}

Status Topology::Validate() const {
  if (node_rack.empty()) {
    return Status::InvalidArgument("topology has no nodes");
  }
  if (rack_zone.empty()) {
    return Status::InvalidArgument("topology has no racks");
  }
  if (rack_zone.size() > node_rack.size()) {
    return Status::InvalidArgument("topology has more racks than nodes");
  }
  for (uint32_t rack : node_rack) {
    if (rack >= num_racks()) {
      return Status::InvalidArgument("topology rack id out of range");
    }
  }
  for (uint32_t zone : rack_zone) {
    if (zone >= num_racks()) {
      return Status::InvalidArgument("topology zone id out of range");
    }
  }
  return Status::Ok();
}

Topology Topology::Flat(uint32_t num_nodes) {
  Topology t;
  t.node_rack.resize(num_nodes);
  t.rack_zone.resize(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    t.node_rack[n] = n;
    t.rack_zone[n] = n;
  }
  return t;
}

Result<Topology> Topology::Grid(uint32_t num_nodes, uint32_t num_racks,
                                uint32_t num_zones) {
  if (num_zones < 1 || num_racks < num_zones || num_nodes < num_racks) {
    return Status::InvalidArgument(
        "topology needs nodes >= racks >= zones >= 1");
  }
  Topology t;
  t.node_rack.resize(num_nodes);
  t.rack_zone.resize(num_racks);
  // Contiguous slices, mirroring the cluster's disk->node ownership map:
  // node n sits in rack n*R/N, rack r in zone r*Z/R.
  for (uint32_t n = 0; n < num_nodes; ++n) {
    t.node_rack[n] = static_cast<uint32_t>(
        static_cast<uint64_t>(n) * num_racks / num_nodes);
  }
  for (uint32_t r = 0; r < num_racks; ++r) {
    t.rack_zone[r] = static_cast<uint32_t>(
        static_cast<uint64_t>(r) * num_zones / num_racks);
  }
  return t;
}

Result<Topology> ParseTopology(const std::string& text) {
  std::vector<uint32_t> parts;
  std::string token;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == 'x') {
      if (token.empty()) {
        return Status::InvalidArgument("bad topology '" + text +
                                       "' (want N, NxR, or NxRxZ)");
      }
      uint64_t value = 0;
      for (char c : token) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("bad topology '" + text +
                                         "' (want N, NxR, or NxRxZ)");
        }
        value = value * 10 + static_cast<uint64_t>(c - '0');
        if (value > (1u << 20)) {
          return Status::InvalidArgument("topology dimension too large");
        }
      }
      parts.push_back(static_cast<uint32_t>(value));
      token.clear();
    } else {
      token += text[i];
    }
  }
  if (parts.empty() || parts.size() > 3) {
    return Status::InvalidArgument("bad topology '" + text +
                                   "' (want N, NxR, or NxRxZ)");
  }
  const uint32_t nodes = parts[0];
  const uint32_t racks = parts.size() >= 2 ? parts[1] : nodes;
  const uint32_t zones = parts.size() >= 3 ? parts[2] : racks;
  return Topology::Grid(nodes, racks, zones);
}

ManifestPlacement ToManifestPlacement(const PlacementSpec& spec) {
  ManifestPlacement record;
  record.policy = static_cast<uint32_t>(spec.policy);
  record.seed = spec.seed;
  record.node_rack = spec.topology.node_rack;
  record.rack_zone = spec.topology.rack_zone;
  if (!spec.table.empty()) {
    record.table_copies = static_cast<uint32_t>(spec.table.size());
    record.table_disks = static_cast<uint32_t>(spec.table[0].size());
    record.table.reserve(static_cast<size_t>(record.table_copies) *
                         record.table_disks);
    for (const std::vector<uint32_t>& row : spec.table) {
      record.table.insert(record.table.end(), row.begin(), row.end());
    }
  }
  return record;
}

Result<PlacementSpec> FromManifestPlacement(const ManifestPlacement& record) {
  if (record.policy > static_cast<uint32_t>(PlacementPolicy::kZoneAware)) {
    return Status::InvalidArgument("unknown placement policy " +
                                   std::to_string(record.policy));
  }
  PlacementSpec spec;
  spec.policy = static_cast<PlacementPolicy>(record.policy);
  spec.seed = record.seed;
  spec.topology.node_rack = record.node_rack;
  spec.topology.rack_zone = record.rack_zone;
  const Status valid = spec.topology.Validate();
  if (!valid.ok()) return valid;
  if (!record.table.empty()) {
    if (record.table_copies < 1 || record.table_disks < 1 ||
        record.table.size() != static_cast<size_t>(record.table_copies) *
                                   record.table_disks) {
      return Status::InvalidArgument("placement table dims inconsistent");
    }
    spec.table.assign(record.table_copies,
                      std::vector<uint32_t>(record.table_disks, 0));
    for (uint32_t c = 0; c < record.table_copies; ++c) {
      for (uint32_t d = 0; d < record.table_disks; ++d) {
        const uint32_t node =
            record.table[static_cast<size_t>(c) * record.table_disks + d];
        if (node >= spec.topology.num_nodes()) {
          return Status::InvalidArgument(
              "placement table entry names an unknown node");
        }
        spec.table[c][d] = node;
      }
    }
  }
  return spec;
}

Result<PlacementMap> PlacementMap::Build(
    const PlacementSpec& spec, const std::vector<uint32_t>& disk_node,
    uint32_t max_copies) {
  const Status valid = spec.topology.Validate();
  if (!valid.ok()) return valid;
  if (disk_node.empty()) {
    return Status::InvalidArgument("placement needs at least one disk");
  }
  if (max_copies < 1) {
    return Status::InvalidArgument("placement needs max_copies >= 1");
  }
  const uint32_t num_nodes = spec.topology.num_nodes();
  const uint32_t num_disks = static_cast<uint32_t>(disk_node.size());
  for (uint32_t node : disk_node) {
    if (node >= num_nodes) {
      return Status::InvalidArgument(
          "disk owner outside the placement topology");
    }
  }

  PlacementMap map;
  map.spec_ = spec;

  if (!spec.table.empty()) {
    // Explicit table (post-repair ground truth): use it verbatim.
    if (spec.table.size() < max_copies) {
      return Status::InvalidArgument(
          "placement table has fewer rows than mirror copies");
    }
    for (const std::vector<uint32_t>& row : spec.table) {
      if (row.size() != disk_node.size()) {
        return Status::InvalidArgument(
            "placement table row width != number of disks");
      }
      for (uint32_t node : row) {
        if (node >= num_nodes) {
          return Status::InvalidArgument(
              "placement table entry outside the topology");
        }
      }
    }
    if (spec.table[0] != disk_node) {
      return Status::InvalidArgument(
          "placement table row 0 disagrees with the disk ownership map");
    }
    map.node_of_ = spec.table;
    return map;
  }

  map.node_of_.assign(max_copies, std::vector<uint32_t>(num_disks, 0));
  map.node_of_[0] = disk_node;  // Copy 0 is always the owner.

  switch (spec.policy) {
    case PlacementPolicy::kChained:
      // Copy c of disk d lives on disk (d+c) mod M — on whatever node
      // happens to own that disk (the self-colocation trap with several
      // disks per node).
      for (uint32_t c = 1; c < max_copies; ++c) {
        for (uint32_t d = 0; d < num_disks; ++d) {
          map.node_of_[c][d] = disk_node[(d + c) % num_disks];
        }
      }
      break;
    case PlacementPolicy::kSpread:
      // Round-robin over nodes: copies always land on distinct nodes
      // (as long as copies <= N), blind to racks and zones.
      for (uint32_t c = 1; c < max_copies; ++c) {
        for (uint32_t d = 0; d < num_disks; ++d) {
          map.node_of_[c][d] = (disk_node[d] + c) % num_nodes;
        }
      }
      break;
    case PlacementPolicy::kZoneAware: {
      // Greedy per (disk, copy) under the zone_aware ranking. Load starts
      // at each node's primary-disk count so replicas also level out.
      std::vector<uint64_t> load(num_nodes, 0);
      for (uint32_t node : disk_node) ++load[node];
      for (uint32_t c = 1; c < max_copies; ++c) {
        for (uint32_t d = 0; d < num_disks; ++d) {
          std::vector<uint32_t> holders;
          for (uint32_t prev = 0; prev < c; ++prev) {
            holders.push_back(map.node_of_[prev][d]);
          }
          const uint32_t best = ZoneAwarePick(spec.topology, holders, load,
                                              {}, spec.seed, d, c);
          map.node_of_[c][d] = best;
          ++load[best];
        }
      }
      break;
    }
  }
  return map;
}

std::vector<uint32_t> PlacementMap::SelfColocatedDisks(uint32_t copies) const {
  std::vector<uint32_t> colocated;
  const uint32_t effective = std::min<uint32_t>(copies, max_copies());
  if (effective < 2) return colocated;
  for (uint32_t d = 0; d < num_disks(); ++d) {
    if (DistinctNodes(d, effective) < effective) colocated.push_back(d);
  }
  return colocated;
}

uint32_t PlacementMap::DistinctZones(uint32_t disk, uint32_t copies) const {
  std::set<uint32_t> zones;
  const uint32_t effective = std::min<uint32_t>(copies, max_copies());
  for (uint32_t c = 0; c < effective; ++c) {
    zones.insert(spec_.topology.zone_of(node_of_[c][disk]));
  }
  return static_cast<uint32_t>(zones.size());
}

uint32_t PlacementMap::DistinctNodes(uint32_t disk, uint32_t copies) const {
  std::set<uint32_t> nodes;
  const uint32_t effective = std::min<uint32_t>(copies, max_copies());
  for (uint32_t c = 0; c < effective; ++c) {
    nodes.insert(node_of_[c][disk]);
  }
  return static_cast<uint32_t>(nodes.size());
}

Result<RepairPlan> PlanRepair(const RepairPlanInput& input) {
  GRIDDECL_RETURN_IF_ERROR(input.topology.Validate());
  if (input.table.empty() || input.table[0].empty()) {
    return Status::InvalidArgument("repair plan needs a placement table");
  }
  const Topology& topology = input.topology;
  const uint32_t num_nodes = topology.num_nodes();
  const uint32_t copies = static_cast<uint32_t>(input.table.size());
  const uint32_t num_disks = static_cast<uint32_t>(input.table[0].size());
  for (const std::vector<uint32_t>& row : input.table) {
    if (row.size() != num_disks) {
      return Status::InvalidArgument("repair plan table is ragged");
    }
    for (uint32_t node : row) {
      if (node >= num_nodes) {
        return Status::InvalidArgument(
            "repair plan table names an unknown node");
      }
    }
  }
  std::vector<bool> dead(num_nodes, false);
  for (uint32_t n : input.dead_nodes) {
    if (n >= num_nodes) {
      return Status::InvalidArgument("dead node id out of range");
    }
    dead[n] = true;
  }
  std::set<uint32_t> live_zones;
  for (uint32_t n = 0; n < num_nodes; ++n) {
    if (!dead[n]) live_zones.insert(topology.zone_of(n));
  }
  if (live_zones.empty()) {
    return Status::InvalidArgument("repair plan has no live nodes");
  }

  RepairPlan plan;
  plan.new_table = input.table;
  // Replica load per live node — the balancing signal for re-targets
  // (dead entries are about to move anyway).
  std::vector<uint64_t> load(num_nodes, 0);
  for (const std::vector<uint32_t>& row : input.table) {
    for (uint32_t node : row) {
      if (!dead[node]) ++load[node];
    }
  }

  // Pass 1: evacuate dead assignments, each ranked against the other
  // live-assigned copies of its disk in the evolving new table.
  std::vector<bool> unrecoverable(num_disks, false);
  for (uint32_t d = 0; d < num_disks; ++d) {
    bool any_live = false;
    for (uint32_t c = 0; c < copies; ++c) {
      if (!dead[input.table[c][d]]) any_live = true;
    }
    if (!any_live) {
      unrecoverable[d] = true;
      plan.unrecoverable_disks.push_back(d);
      continue;
    }
    for (uint32_t c = 0; c < copies; ++c) {
      const uint32_t from = plan.new_table[c][d];
      if (!dead[from]) continue;
      std::vector<uint32_t> holders;
      for (uint32_t c2 = 0; c2 < copies; ++c2) {
        const uint32_t node = plan.new_table[c2][d];
        if (c2 != c && !dead[node]) holders.push_back(node);
      }
      const uint32_t to =
          ZoneAwarePick(topology, holders, load, dead, input.seed, d, c);
      plan.new_table[c][d] = to;
      ++load[to];
      plan.actions.push_back(RepairAction{d, c, from, to});
    }
  }

  // Pass 2: placement violations. Move the first copy that duplicates an
  // earlier copy's zone to the lightest live node of an uncovered zone.
  const uint32_t target_zones =
      std::min<uint32_t>(copies, static_cast<uint32_t>(live_zones.size()));
  for (uint32_t d = 0; d < num_disks; ++d) {
    if (unrecoverable[d]) continue;
    for (uint32_t c = 1; c < copies; ++c) {
      std::set<uint32_t> zones;
      for (uint32_t c2 = 0; c2 < copies; ++c2) {
        zones.insert(topology.zone_of(plan.new_table[c2][d]));
      }
      if (zones.size() >= target_zones) break;
      const uint32_t zc = topology.zone_of(plan.new_table[c][d]);
      bool duplicate = false;
      for (uint32_t c2 = 0; c2 < c; ++c2) {
        if (topology.zone_of(plan.new_table[c2][d]) == zc) duplicate = true;
      }
      if (!duplicate) continue;
      uint32_t best = 0;
      bool have_best = false;
      for (uint32_t n = 0; n < num_nodes; ++n) {
        if (dead[n] || zones.count(topology.zone_of(n)) != 0) continue;
        if (!have_best ||
            std::make_tuple(~load[n], TieBreak(input.seed, d, c, n)) >
                std::make_tuple(~load[best],
                                TieBreak(input.seed, d, c, best))) {
          best = n;
          have_best = true;
        }
      }
      if (!have_best) continue;
      const uint32_t from = plan.new_table[c][d];
      if (load[from] > 0) --load[from];
      plan.new_table[c][d] = best;
      ++load[best];
      plan.actions.push_back(RepairAction{d, c, from, best});
    }
  }
  return plan;
}

}  // namespace griddecl::cluster
