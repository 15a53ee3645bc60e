#ifndef GRIDDECL_CLUSTER_TRANSITION_H_
#define GRIDDECL_CLUSTER_TRANSITION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/serve/service.h"

/// \file
/// The staged-generation transition engine shared by live migration and
/// self-healing repair.
///
/// Re-declustering to another method changes only the bucket -> disk
/// mapping (the method and M recorded in the manifest); re-replication
/// changes only which node holds each copy (the placement record). Neither
/// touches record order, the grid, or the page layout, so both are the
/// same act: stage a new catalog generation whose files are byte-for-byte
/// copies of the old ones under generation-G' names, verify it, and cut
/// over behind the generation fence. `Cluster::Migrate` and
/// `Cluster::Repair` are planners that work out the staged manifest, the
/// target nodes, the pacing charge and the verify rule; one engine runs
/// the phases (`TransitionOptions::on_phase` fires at each boundary):
///
///   1. **copy** — read every relation file from the first target node
///      and write it to every target node under its G' name
///      (G' = NextManifestGeneration, never reused), paced by a token
///      bucket, then write `MANIFEST-G'` to the targets. Nothing flips:
///      the staged generation looks exactly like the wreckage of a
///      crashed save, which recovery already skips.
///   2. **verify** — bring up one staging `QueryService` per target pinned
///      to G', install a staging epoch so live traffic double-reads
///      old-vs-new on every complete query, and run a verification sample
///      (caller-provided, or the full box plus each attribute's lower half
///      per relation) through both epochs, comparing match sets.
///   3. **commit** — `CommitStagedManifest` flips CURRENT on every target;
///      a mid-commit failure rolls the already-flipped targets back. The
///      cluster adopts the staging epoch atomically and old generations
///      are garbage-collected.
///
/// Any abort — an external `AbortMigration`, a live double-read
/// divergence, a target node lost, a failed verify query, a failed write
/// — clears the staging epoch, drops the staged generation on every node,
/// and reports `committed = false` with the reason. The old generation is
/// never touched before the commit point, so an aborted transition leaves
/// the cluster serving exactly what it served before.
///
/// Non-target nodes (decommissioned ones for a migration, the dead nodes a
/// repair plans around) receive nothing; that is the staleness window
/// `Cluster::ReviveNode`'s catch-up fence closes.

namespace griddecl::cluster {

/// Clock-agnostic token bucket: tokens accrue at `rate_per_sec` up to a
/// `burst` bank (the bucket starts empty, so the first consume already
/// pays for itself); consumption may run the balance negative (debt), and
/// the returned delay is how long the consumer must stall for the balance
/// to recover to zero. The caller supplies timestamps, so the same bucket
/// paces wall-clock transitions and virtual-clock tests identically.
class TokenBucket {
 public:
  /// `rate_per_sec` <= 0 disables pacing (every consume returns 0).
  TokenBucket(double rate_per_sec, double burst)
      : rate_(rate_per_sec), burst_(burst < 0.0 ? 0.0 : burst) {}

  /// Consumes `amount` tokens at time `now_ms` (monotone by convention)
  /// and returns the milliseconds to wait before proceeding — 0 whenever
  /// the bucket held enough.
  double ConsumeDelayMs(double amount, double now_ms) {
    if (rate_ <= 0.0) return 0.0;
    if (!initialized_) {
      last_ms_ = now_ms;
      initialized_ = true;
    }
    tokens_ += (now_ms - last_ms_) * rate_ / 1000.0;
    if (tokens_ > burst_) tokens_ = burst_;
    last_ms_ = now_ms;
    tokens_ -= amount;
    if (tokens_ >= 0.0) return 0.0;
    return -tokens_ * 1000.0 / rate_;
  }

 private:
  double rate_;
  double burst_;
  double tokens_ = 0.0;
  double last_ms_ = 0.0;
  bool initialized_ = false;
};

/// Copy-phase pacing and verification knobs every transition shares
/// (`MigrationOptions` extends it; `RepairOptions` is an alias).
struct TransitionOptions {
  /// Copy-phase pacing budget in bytes/sec (token bucket against the wall
  /// clock, 50 ms burst bank): the copying thread sleeps whenever the
  /// charged bytes run ahead of the budget, so bulk copy traffic fits
  /// inside spare bandwidth instead of saturating the device concurrent
  /// queries share. 0 = unpaced. A repair charges only the rebuilt share
  /// of each file (retargeted replicas / all replicas).
  double copy_bytes_per_sec = 0.0;
  /// Simulated copy-device throughput in bytes/sec: each copied file
  /// charges its (charged) size / rate of wall-clock transfer time, so the
  /// copy phase has real duration for concurrent traffic to overlap.
  /// 0 = instantaneous.
  double copy_device_bytes_per_sec = 0.0;
  /// Extra per-read latency (ms) injected on every target node for the
  /// duration of an *unpaced* copy phase — the contention an unthrottled
  /// bulk copy inflicts on concurrent queries at the shared device. A
  /// paced copy fits in spare bandwidth and injects nothing. 0 disables
  /// the contention model.
  double copy_contention_ms = 0.0;
  /// Double-read sample run old-vs-staged before cutover. Empty = the
  /// default sample (full-range plus half-range queries per relation).
  std::vector<serve::QueryRequest> verify_requests;
  /// Test hook: called at phase boundaries ("copy", "staged", "verify",
  /// "commit", "committed"; a repair fires "plan" first) on the calling
  /// thread. Kills injected here exercise the abort paths
  /// deterministically.
  std::function<void(const std::string&)> on_phase;

  /// kInvalidArgument when a rate or the contention is negative.
  Status Validate() const;
};

/// What one transition did (`MigrationReport` is an alias; `RepairReport`
/// extends it).
struct TransitionReport {
  bool committed = false;
  /// Set when `committed` is false: why the transition aborted. An aborted
  /// transition leaves the old generation fully intact and serving.
  std::string abort_reason;
  uint64_t old_generation = 0;
  uint64_t new_generation = 0;
  /// Buckets of the relations whose files were staged.
  uint64_t buckets_copied = 0;
  uint64_t files_copied = 0;
  /// Charged payload bytes moved by the copy phase (each file counted
  /// once, not per node — one read fanned out to N writes).
  uint64_t bytes_copied = 0;
  /// Total wall-clock milliseconds the copy phase slept to stay under
  /// `copy_bytes_per_sec`. 0 when unpaced.
  double pacing_wait_ms = 0.0;
  uint64_t verify_queries = 0;
  uint64_t verify_mismatches = 0;
};

}  // namespace griddecl::cluster

#endif  // GRIDDECL_CLUSTER_TRANSITION_H_
