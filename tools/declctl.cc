/// declctl: command-line front end for the griddecl library.
///
/// Subcommands:
///
///   declctl methods
///       List the registered declustering methods and their restrictions.
///
///   declctl eval --grid 64x64 --disks 16 --method hcam --shape 4x4
///                [--placements 4096] [--seed 42]
///       Mean response time of one method on all/sampled placements of a
///       query shape.
///
///   declctl compare --grid 64x64 --disks 16 --shape 4x4
///                [--methods dm,fx-auto,ecc,hcam] [--placements N]
///       Side-by-side comparison table.
///
///   declctl sweep-size --grid 64x64 --disks 16 --areas 1,4,16,64,256
///       The paper's Experiment 1 at arbitrary parameters.
///
///   declctl gen-trace --grid 64x64 --shape 3x3 --count 200 [--seed 7]
///       Emit a workload trace (stdout) for later use.
///
///   declctl advise --trace FILE --disks 16 [--no-optimize]
///       Score methods against a recorded trace and recommend one.
///
///   declctl show --grid 16x16 --disks 8 --method hcam
///       Render a 2-d allocation as a character grid (one base-36 digit
///       per bucket).
///
///   declctl export --grid 32x32 --disks 8 --method ecc
///       Print the full allocation in the serializable table format.
///
///   declctl optimize --trace FILE --disks 16 [--seed-method hcam]
///                [--passes 8]
///       Hill-climb an allocation for a recorded trace; prints the
///       optimized allocation in the serializable table format.
///
///   declctl throughput --trace FILE --disks 16 --method hcam [--mpl 4]
///       Closed-system multiuser throughput simulation of a trace.
///
///   declctl search --disks 6 --rows 8 --cols 8 [--max-nodes N]
///       Exhaustive strict-optimality search (the paper's theorem).
///
///   declctl degrade --grid 32x32 --disks 8 --shape 4x4 [--queries 200]
///                [--max-failed 2] [--replication 2,3] [--methods a,b,...]
///                [--seed 42] [--mpl 4] [--json FILE]
///                [--failure-domain node|rack|zone --topology NxRxZ]
///                [--policies chained,spread,zone_aware]
///                [--placement-seed S] [--repair]
///                [--repair-detect-ms MS] [--repair-ms-per-replica MS]
///       Availability sweep: mean response and availability vs. failed
///       disks per method and degraded-read strategy (plain, replica
///       re-routing, ECC reconstruction). `--json -` prints the JSON
///       report to stdout instead of the table. With `--failure-domain`
///       the sweep kills whole nodes/racks/zones of `--topology` instead
///       of single disks and evaluates the cluster placement policies
///       (chained, spread, zone_aware) as the replica strategies — the
///       A16 correlated-failure experiment. `--repair` adds
///       `<policy>-rR+repair` strategies where every earlier kill has
///       been healed by the repair planner before the next domain dies,
///       with a modelled redundancy-restored-by time per point — the
///       A17 self-healing experiment.
///
///   declctl mkcatalog --dir DIR --grid 8x8 --disks 4 [--methods dm,hcam]
///                [--records 256] [--seed 42] [--page-size 4096]
///                [--format 2|3] [--redundancy none|mirror|parity]
///                [--copies 2] [--group-pages 8] [--clustered]
///                [--placement chained|spread|zone_aware
///                 --topology N[xR[xZ]] [--placement-seed S]]
///       Build a catalog of synthetic relations (one per method, uniform
///       random records) and commit it to DIR as a checksummed manifest
///       generation, optionally with mirror or parity redundancy.
///       `--format` picks the page layout (3 = columnar with zone maps,
///       the default; 2 = the row-major v2 format). `--clustered`
///       inserts records bucket by bucket with per-bucket counts padded
///       to a page-capacity multiple, producing the bucket-clustered
///       layout `serve --fail-disk` requires.
///
///   declctl fsck --dir DIR [--dry-run]
///       Verify every page of every relation in the catalog at DIR
///       against its checksums; repair damage from mirror/parity
///       redundancy and heal damaged sidecars. `--dry-run` reports what
///       would be repaired without writing. Exit status: 0 when the
///       catalog is (now) intact, 1 when unrepairable damage remains.
///
///   declctl serve --dir DIR --script FILE [--threads 4] [--queue 64]
///                [--deadline MS] [--drain MS] [--seed S]
///                [--pool-pages N] [--transient-prob P] [--fault-seed S]
///                [--max-transient-attempts K] [--latency MS]
///                [--fail-disk D --fail-relation NAME]
///       Run the resilient query service (serve/service.h) over the
///       catalog at DIR and execute the range queries in FILE (format:
///       serve/script.h — `query <relation> <lo,..> <hi,..>
///       [deadline_ms]`). Optional fault injection wraps the catalog in a
///       FaultyEnv: `--transient-prob` injects seeded transient read
///       faults (exercising retries), `--fail-disk`/`--fail-relation`
///       permanently fails one virtual disk of one relation (exercising
///       breakers and degraded reads; requires a bucket-clustered
///       layout). `--pool-pages` sizes the scan-resistant buffer pool (0
///       disables caching). Prints one outcome line per query and a
///       summary; exit status 0 iff every query succeeded. With
///       `--metrics-json` the snapshot includes the pool's
///       `storage.pool.*` hit/miss/eviction counters.
///
///   declctl cluster --dir DIR --script FILE [--nodes 4] [--threads 4]
///                [--hedge-delay MS] [--no-hedge] [--first-success]
///                [--quorum F] [--seed S] [--latency n0,n1,...]
///                [--transient-prob P] [--fault-seed S]
///                [--max-nodes N] [--retry-budget N] [--hedge-budget F]
///                [--placement chained|spread|zone_aware
///                 --topology N[xR[xZ]] [--placement-seed S]]
///       Simulate an N-node scatter-gather cluster (cluster/cluster.h)
///       over the catalog at DIR: every node gets a private in-memory
///       copy of the catalog behind a FaultyEnv and a serve::QueryService;
///       the coordinator plans per-node sub-queries along virtual-disk
///       ownership, hedges stragglers to replica-holding nodes, routes
///       around dead or breaker-tripped nodes, and returns partial
///       results with an explicit availability fraction when buckets have
///       no live route. The script (cluster/script.h) extends the serve
///       format with `kill-node N`, `revive-node N`, `kill-zone Z`,
///       `revive-zone Z`, `advance-ms T`, `migrate <method> <disks>`
///       (live re-declustering with atomic cutover), `repair [B/s]`
///       (paced re-replication of replicas lost to heartbeat-dead or
///       decommissioned nodes), `add-node <rack> <zone>` (grow the
///       cluster; requires headroom from `--max-nodes`), and
///       `remove-node N` (decommission). `--latency` injects
///       per-node read latency in ms (the slow-node hedging demo).
///       `--placement`/`--topology` override the replica placement policy
///       recorded in the manifest (chained when absent); self-colocating
///       chained placements are reported as warnings. `--retry-budget`
///       caps per-query failover attempts; `--hedge-budget` caps
///       cluster-wide hedged extras as a fraction of primary sub-queries
///       (0 = unlimited for both). Exit status 0 iff every query returned
///       complete and every migrate or repair committed.
///
/// Commands that drive the evaluator, a simulator, or the storage stack
/// (eval, compare, throughput, degrade, mkcatalog, fsck) also accept
/// `--metrics-json=PATH` ("-" = stdout): the library's observability
/// counters and histograms (obs/metrics.h) are snapshotted to JSON after
/// the work finishes. Without the flag no registry exists and the
/// instrumentation is a no-op.
///
/// All output is plain text; exit status is non-zero on usage errors.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "griddecl/cluster/cluster.h"
#include "griddecl/cluster/script.h"
#include "griddecl/common/flags.h"
#include "griddecl/eval/advisor.h"
#include "griddecl/griddecl.h"
#include "griddecl/methods/table_method.h"
#include "griddecl/methods/workload_opt.h"
#include "griddecl/query/trace.h"
#include "griddecl/serve/script.h"
#include "griddecl/serve/service.h"
#include "griddecl/theory/kd_strict_optimality.h"

namespace griddecl {
namespace {

int Fail(const std::string& message) {
  std::cerr << "declctl: " << message << "\n";
  return 1;
}

/// `--metrics-json=PATH` support ("-" = stdout). Commands pass `registry()`
/// into library options — null when the flag is absent, which compiles the
/// library's instrumentation down to no-ops — and call `Flush()` once the
/// work is done to write the deterministic JSON snapshot.
struct MetricsSink {
  explicit MetricsSink(const Flags& flags)
      : path(flags.GetString("metrics-json", "")) {}

  obs::MetricsRegistry* registry() { return path.empty() ? nullptr : &reg; }

  /// Writes the snapshot; returns non-zero on I/O failure (usable as the
  /// command's exit status).
  int Flush() {
    if (path.empty()) return 0;
    obs::JsonOptions json;
    json.indent = "  ";
    if (path == "-") {
      std::cout << reg.ToJson(json) << "\n";
      return 0;
    }
    std::ofstream out(path);
    if (!out.good()) return Fail("cannot write '" + path + "'");
    out << reg.ToJson(json) << "\n";
    out.flush();
    if (!out.good()) return Fail("write to '" + path + "' failed");
    return 0;
  }

  std::string path;
  obs::MetricsRegistry reg;
};

int Usage() {
  std::cerr <<
      "usage: declctl <command> [flags]\n"
      "commands: methods | eval | compare | sweep-size | gen-trace |\n"
      "          advise | show | export | optimize | throughput | search |\n"
      "          degrade | mkcatalog | fsck | serve | cluster\n"
      "see the header of tools/declctl.cc for per-command flags\n";
  return 2;
}

Result<GridSpec> GridFromFlags(const Flags& flags) {
  return GridSpec::FromString(flags.GetString("grid", "64x64"));
}

Result<QueryShape> ShapeFromFlags(const Flags& flags, const GridSpec& grid) {
  const std::string shape_str = flags.GetString("shape", "4x4");
  Result<GridSpec> parsed = GridSpec::FromString(shape_str);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value().num_dims() != grid.num_dims()) {
    return Status::InvalidArgument("shape " + shape_str +
                                   " does not match grid " + grid.ToString());
  }
  QueryShape shape = parsed.value().dims();
  return shape;
}

int CmdMethods() {
  Table t({"Name", "Restrictions"});
  for (const std::string& name : AllMethodNames()) {
    t.AddRow({name, MethodRestrictionSummary(name)});
  }
  t.PrintText(std::cout);
  return 0;
}

int CmdEval(const Flags& flags) {
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  const auto disks = flags.GetInt("disks", 16);
  if (!disks.ok() || disks.value() < 1) return Fail("bad --disks");
  Result<std::unique_ptr<DeclusteringMethod>> method = CreateMethod(
      flags.GetString("method", "hcam"), grid.value(),
      static_cast<uint32_t>(disks.value()));
  if (!method.ok()) return Fail(method.status().ToString());
  Result<QueryShape> shape = ShapeFromFlags(flags, grid.value());
  if (!shape.ok()) return Fail(shape.status().ToString());
  const auto placements = flags.GetInt("placements", 4096);
  const auto seed = flags.GetInt("seed", 42);
  if (!placements.ok() || !seed.ok()) return Fail("bad numeric flag");

  QueryGenerator gen(grid.value());
  Rng rng(static_cast<uint64_t>(seed.value()));
  Result<Workload> workload =
      gen.Placements(shape.value(), static_cast<size_t>(placements.value()),
                     &rng, "cli");
  if (!workload.ok()) return Fail(workload.status().ToString());
  MetricsSink sink(flags);
  EvalOptions eval_options;
  eval_options.metrics = sink.registry();
  const WorkloadEval e = Evaluator(*method.value(), eval_options)
                             .EvaluateWorkload(workload.value());
  std::cout << "method " << method.value()->name() << " on grid "
            << grid.value().ToString() << ", M=" << disks.value() << "\n"
            << "queries evaluated: " << e.num_queries << "\n"
            << "mean response time: " << Table::Fmt(e.MeanResponse(), 4)
            << " (optimal " << Table::Fmt(e.MeanOptimal(), 4) << ")\n"
            << "mean RT/optimal:    " << Table::Fmt(e.MeanRatio(), 4) << "\n"
            << "optimal queries:    "
            << Table::Fmt(e.FractionOptimal() * 100, 1) << "%\n";
  return sink.Flush();
}

int CmdCompare(const Flags& flags) {
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  const auto disks = flags.GetInt("disks", 16);
  if (!disks.ok() || disks.value() < 1) return Fail("bad --disks");
  Result<QueryShape> shape = ShapeFromFlags(flags, grid.value());
  if (!shape.ok()) return Fail(shape.status().ToString());
  const auto placements = flags.GetInt("placements", 4096);
  const auto seed = flags.GetInt("seed", 42);
  if (!placements.ok() || !seed.ok()) return Fail("bad numeric flag");

  std::vector<std::string> names;
  {
    const std::string list =
        flags.GetString("methods", "dm,fx-auto,ecc,hcam");
    std::istringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ',')) names.push_back(token);
  }
  QueryGenerator gen(grid.value());
  Rng rng(static_cast<uint64_t>(seed.value()));
  Result<Workload> workload =
      gen.Placements(shape.value(), static_cast<size_t>(placements.value()),
                     &rng, "cli");
  if (!workload.ok()) return Fail(workload.status().ToString());

  MetricsSink sink(flags);
  EvalOptions eval_options;
  eval_options.metrics = sink.registry();
  Table t({"Method", "Mean RT", "RT/opt", "% optimal"});
  for (const std::string& name : names) {
    Result<std::unique_ptr<DeclusteringMethod>> method = CreateMethod(
        name, grid.value(), static_cast<uint32_t>(disks.value()));
    if (!method.ok()) {
      t.AddRow({name, "-", "-", "(" + method.status().ToString() + ")"});
      continue;
    }
    const WorkloadEval e = Evaluator(*method.value(), eval_options)
                               .EvaluateWorkload(workload.value());
    t.AddRow({method.value()->name(), Table::Fmt(e.MeanResponse(), 4),
              Table::Fmt(e.MeanRatio(), 4),
              Table::Fmt(e.FractionOptimal() * 100, 1)});
  }
  t.PrintText(std::cout);
  return sink.Flush();
}

int CmdSweepSize(const Flags& flags) {
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  const auto disks = flags.GetInt("disks", 16);
  if (!disks.ok() || disks.value() < 1) return Fail("bad --disks");
  const auto areas32 =
      flags.GetUint32List("areas", {1, 4, 16, 64, 256, 1024});
  if (!areas32.ok()) return Fail(areas32.status().ToString());
  std::vector<uint64_t> areas(areas32.value().begin(),
                              areas32.value().end());
  SweepOptions opts;
  const auto placements = flags.GetInt("placements", 4096);
  const auto seed = flags.GetInt("seed", 42);
  if (!placements.ok() || !seed.ok()) return Fail("bad numeric flag");
  opts.max_placements = static_cast<size_t>(placements.value());
  opts.seed = static_cast<uint64_t>(seed.value());
  Result<SweepResult> sweep = QuerySizeSweep(
      grid.value(), static_cast<uint32_t>(disks.value()), areas, opts);
  if (!sweep.ok()) return Fail(sweep.status().ToString());
  sweep.value().ResponseTable().PrintText(std::cout);
  std::cout << "\n";
  sweep.value().RatioTable().PrintText(std::cout);
  return 0;
}

int CmdGenTrace(const Flags& flags) {
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  Result<QueryShape> shape = ShapeFromFlags(flags, grid.value());
  if (!shape.ok()) return Fail(shape.status().ToString());
  const auto count = flags.GetInt("count", 200);
  const auto seed = flags.GetInt("seed", 7);
  if (!count.ok() || !seed.ok() || count.value() < 1) {
    return Fail("bad numeric flag");
  }
  QueryGenerator gen(grid.value());
  Rng rng(static_cast<uint64_t>(seed.value()));
  Result<Workload> workload = gen.SampledPlacements(
      shape.value(), static_cast<size_t>(count.value()), &rng, "generated");
  if (!workload.ok()) return Fail(workload.status().ToString());
  const Status st =
      SerializeWorkload(grid.value(), workload.value(), std::cout);
  if (!st.ok()) return Fail(st.ToString());
  return 0;
}

int CmdAdvise(const Flags& flags) {
  const std::string path = flags.GetString("trace", "");
  if (path.empty()) return Fail("--trace FILE is required");
  std::ifstream in(path);
  if (!in.good()) return Fail("cannot open trace file '" + path + "'");
  Result<WorkloadTrace> trace = DeserializeWorkload(in);
  if (!trace.ok()) return Fail(trace.status().ToString());
  const auto disks = flags.GetInt("disks", 16);
  if (!disks.ok() || disks.value() < 1) return Fail("bad --disks");
  const auto no_opt = flags.GetBool("no-optimize", false);
  if (!no_opt.ok()) return Fail(no_opt.status().ToString());

  AdvisorOptions opts;
  opts.include_optimized = !no_opt.value();
  Result<Advice> advice = AdviseDeclustering(
      trace.value().grid, static_cast<uint32_t>(disks.value()),
      trace.value().workload, opts);
  if (!advice.ok()) return Fail(advice.status().ToString());

  Table t({"Method", "Train RT", "Test RT", "Test RT/opt", "Test % optimal"});
  for (const MethodScore& s : advice.value().scores) {
    t.AddRow({s.name, Table::Fmt(s.train_mean_response, 4),
              Table::Fmt(s.test_mean_response, 4),
              Table::Fmt(s.test_mean_ratio, 4),
              Table::Fmt(s.test_fraction_optimal * 100, 1)});
  }
  t.PrintText(std::cout);
  std::cout << "\nrecommended: " << advice.value().recommended << "\n";
  return 0;
}

int CmdExport(const Flags& flags) {
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  const auto disks = flags.GetInt("disks", 16);
  if (!disks.ok() || disks.value() < 1) return Fail("bad --disks");
  Result<std::unique_ptr<DeclusteringMethod>> method = CreateMethod(
      flags.GetString("method", "hcam"), grid.value(),
      static_cast<uint32_t>(disks.value()));
  if (!method.ok()) return Fail(method.status().ToString());
  const Status st = SerializeAllocation(*method.value(), std::cout);
  if (!st.ok()) return Fail(st.ToString());
  return 0;
}

int CmdShow(const Flags& flags) {
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  if (grid.value().num_dims() != 2) {
    return Fail("show renders 2-d grids only");
  }
  const auto disks = flags.GetInt("disks", 16);
  if (!disks.ok() || disks.value() < 1) return Fail("bad --disks");
  Result<std::unique_ptr<DeclusteringMethod>> method = CreateMethod(
      flags.GetString("method", "hcam"), grid.value(),
      static_cast<uint32_t>(disks.value()));
  if (!method.ok()) return Fail(method.status().ToString());
  // Disk ids rendered base-36 so up to 36 disks stay one column wide.
  static const char kDigits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::cout << method.value()->name() << " on " << grid.value().ToString()
            << ", M=" << disks.value() << "\n";
  for (uint32_t i = 0; i < grid.value().dim(0); ++i) {
    for (uint32_t j = 0; j < grid.value().dim(1); ++j) {
      const uint32_t d = method.value()->DiskOf({i, j});
      std::cout << (d < 36 ? kDigits[d] : '?') << ' ';
    }
    std::cout << "\n";
  }
  return 0;
}

int CmdOptimize(const Flags& flags) {
  const std::string path = flags.GetString("trace", "");
  if (path.empty()) return Fail("--trace FILE is required");
  std::ifstream in(path);
  if (!in.good()) return Fail("cannot open trace file '" + path + "'");
  Result<WorkloadTrace> trace = DeserializeWorkload(in);
  if (!trace.ok()) return Fail(trace.status().ToString());
  const auto disks = flags.GetInt("disks", 16);
  const auto passes = flags.GetInt("passes", 8);
  if (!disks.ok() || !passes.ok() || disks.value() < 1 || passes.value() < 1) {
    return Fail("bad numeric flag");
  }
  Result<std::unique_ptr<DeclusteringMethod>> seed = CreateMethod(
      flags.GetString("seed-method", "hcam"), trace.value().grid,
      static_cast<uint32_t>(disks.value()));
  if (!seed.ok()) return Fail(seed.status().ToString());

  WorkloadOptimizeOptions opts;
  opts.max_passes = static_cast<uint32_t>(passes.value());
  WorkloadOptimizeStats stats;
  Result<std::unique_ptr<DeclusteringMethod>> optimized =
      OptimizeForWorkload(*seed.value(), trace.value().workload, opts,
                          &stats);
  if (!optimized.ok()) return Fail(optimized.status().ToString());
  std::cerr << "optimize: cost " << stats.initial_cost << " -> "
            << stats.final_cost << " (" << stats.moves_applied
            << " moves, " << stats.passes << " passes)\n";
  const Status st = SerializeAllocation(*optimized.value(), std::cout);
  if (!st.ok()) return Fail(st.ToString());
  return 0;
}

int CmdThroughput(const Flags& flags) {
  const std::string path = flags.GetString("trace", "");
  if (path.empty()) return Fail("--trace FILE is required");
  std::ifstream in(path);
  if (!in.good()) return Fail("cannot open trace file '" + path + "'");
  Result<WorkloadTrace> trace = DeserializeWorkload(in);
  if (!trace.ok()) return Fail(trace.status().ToString());
  const auto disks = flags.GetInt("disks", 16);
  const auto mpl = flags.GetInt("mpl", 4);
  if (!disks.ok() || !mpl.ok() || disks.value() < 1 || mpl.value() < 1) {
    return Fail("bad numeric flag");
  }
  Result<std::unique_ptr<DeclusteringMethod>> method = CreateMethod(
      flags.GetString("method", "hcam"), trace.value().grid,
      static_cast<uint32_t>(disks.value()));
  if (!method.ok()) return Fail(method.status().ToString());
  MetricsSink sink(flags);
  ThroughputOptions opts;
  opts.concurrency = static_cast<uint32_t>(mpl.value());
  opts.metrics = sink.registry();
  Result<ThroughputResult> r =
      SimulateThroughput(*method.value(), trace.value().workload, opts);
  if (!r.ok()) return Fail(r.status().ToString());
  std::cout << "method " << method.value()->name() << ", MPL "
            << mpl.value() << ", " << r.value().num_queries << " queries\n"
            << "total:        " << Table::Fmt(r.value().total_ms, 1)
            << " ms\n"
            << "throughput:   " << Table::Fmt(r.value().ThroughputQps(), 2)
            << " queries/s\n"
            << "mean latency: " << Table::Fmt(r.value().mean_latency_ms, 2)
            << " ms (max " << Table::Fmt(r.value().max_latency_ms, 1)
            << ")\n"
            << "disk util:    "
            << Table::Fmt(r.value().MeanDiskUtilization(), 3) << "\n";
  return sink.Flush();
}

int CmdReproduce(const Flags& flags) {
  ReproductionOptions opts;
  const auto placements = flags.GetInt("placements", 1024);
  const auto seed = flags.GetInt("seed", 42);
  const auto theory = flags.GetBool("theory", true);
  if (!placements.ok() || !seed.ok() || !theory.ok() ||
      placements.value() < 1) {
    return Fail("bad flag");
  }
  opts.max_placements = static_cast<size_t>(placements.value());
  opts.seed = static_cast<uint64_t>(seed.value());
  opts.include_theory = theory.value();
  const Status st = RunPaperReproduction(std::cout, opts);
  if (!st.ok()) return Fail(st.ToString());
  return 0;
}

int CmdSearch(const Flags& flags) {
  const auto disks = flags.GetInt("disks", 6);
  const auto rows = flags.GetInt("rows", 8);
  const auto cols = flags.GetInt("cols", 8);
  const auto max_nodes = flags.GetInt("max-nodes", 20'000'000);
  if (!disks.ok() || !rows.ok() || !cols.ok() || !max_nodes.ok() ||
      disks.value() < 1 || rows.value() < 1 || cols.value() < 1) {
    return Fail("bad numeric flag");
  }
  StrictOptimalitySearchOptions opts;
  opts.max_nodes = static_cast<uint64_t>(max_nodes.value());
  Result<StrictOptimalitySearchResult> r = FindStrictlyOptimalAllocation(
      static_cast<uint32_t>(rows.value()), static_cast<uint32_t>(cols.value()),
      static_cast<uint32_t>(disks.value()), opts);
  if (!r.ok()) return Fail(r.status().ToString());
  switch (r.value().outcome) {
    case SearchOutcome::kFound:
      std::cout << "strictly optimal allocation found ("
                << r.value().nodes_explored << " nodes):\n";
      for (int64_t i = 0; i < rows.value(); ++i) {
        for (int64_t j = 0; j < cols.value(); ++j) {
          std::cout << r.value().allocation[static_cast<size_t>(
                           i * cols.value() + j)]
                    << " ";
        }
        std::cout << "\n";
      }
      return 0;
    case SearchOutcome::kInfeasible:
      std::cout << "no strictly optimal allocation exists for "
                << rows.value() << "x" << cols.value() << " on "
                << disks.value() << " disks (exhaustive, "
                << r.value().nodes_explored << " nodes)\n";
      return 0;
    case SearchOutcome::kBudgetExhausted:
      std::cout << "undecided: node budget exhausted\n";
      return 0;
  }
  return 0;
}

int CmdDegrade(const Flags& flags) {
  AvailabilitySweepOptions opts;
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  opts.grid_dims = grid.value().dims();
  const auto disks = flags.GetInt("disks", 8);
  const auto queries = flags.GetInt("queries", 200);
  const auto max_failed = flags.GetInt("max-failed", 2);
  const auto seed = flags.GetInt("seed", 42);
  const auto mpl = flags.GetInt("mpl", 4);
  const auto replication = flags.GetUint32List("replication", {2, 3});
  if (!disks.ok() || !queries.ok() || !max_failed.ok() || !seed.ok() ||
      !mpl.ok() || !replication.ok() || disks.value() < 1 ||
      queries.value() < 1 || max_failed.value() < 0 || mpl.value() < 1) {
    return Fail("bad numeric flag");
  }
  opts.num_disks = static_cast<uint32_t>(disks.value());
  Result<QueryShape> shape = ShapeFromFlags(flags, grid.value());
  if (!shape.ok()) return Fail(shape.status().ToString());
  opts.query_shape = shape.value();
  opts.num_queries = static_cast<uint32_t>(queries.value());
  opts.max_failed = static_cast<uint32_t>(max_failed.value());
  opts.replication = replication.value();
  opts.seed = static_cast<uint64_t>(seed.value());
  opts.sim.concurrency = static_cast<uint32_t>(mpl.value());
  {
    // Correlated-failure mode (A16): kill whole nodes/racks/zones of a
    // topology and evaluate the cluster placement policies.
    const std::string domain = flags.GetString("failure-domain", "");
    if (!domain.empty()) {
      Result<FailureDomain> parsed = ParseFailureDomain(domain);
      if (!parsed.ok()) return Fail(parsed.status().ToString());
      opts.failure_domain = parsed.value();
    }
    const std::string topology = flags.GetString("topology", "");
    if (opts.failure_domain != FailureDomain::kDisk && topology.empty()) {
      return Fail("--failure-domain needs --topology N[xR[xZ]]");
    }
    if (!topology.empty()) {
      Result<cluster::Topology> topo = cluster::ParseTopology(topology);
      if (!topo.ok()) return Fail(topo.status().ToString());
      opts.topology = std::move(topo).value();
    }
    const std::string policies = flags.GetString("policies", "");
    if (!policies.empty()) {
      std::stringstream ss(policies);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (name.empty()) continue;
        Result<cluster::PlacementPolicy> p =
            cluster::ParsePlacementPolicy(name);
        if (!p.ok()) return Fail(p.status().ToString());
        opts.placement_policies.push_back(p.value());
      }
    }
    const auto pseed = flags.GetInt("placement-seed", 1);
    if (!pseed.ok()) return Fail("bad --placement-seed");
    opts.placement_seed = static_cast<uint64_t>(pseed.value());
    // Repair-aware mode (A17): heal each kill before the next domain dies.
    const auto repair = flags.GetBool("repair", false);
    const auto detect = flags.GetDouble("repair-detect-ms", 40.0);
    const auto per_replica = flags.GetDouble("repair-ms-per-replica", 5.0);
    if (!repair.ok() || !detect.ok() || !per_replica.ok()) {
      return Fail("bad repair flag");
    }
    opts.repair = repair.value();
    opts.repair_detect_ms = detect.value();
    opts.repair_ms_per_replica = per_replica.value();
  }
  MetricsSink sink(flags);
  opts.sim.metrics = sink.registry();
  const std::string methods = flags.GetString("methods", "");
  if (!methods.empty()) {
    std::stringstream ss(methods);
    std::string name;
    while (std::getline(ss, name, ',')) {
      if (!name.empty()) opts.methods.push_back(name);
    }
  }

  Result<AvailabilitySweep> sweep = RunAvailabilitySweep(opts);
  if (!sweep.ok()) return Fail(sweep.status().ToString());

  const std::string json_path = flags.GetString("json", "");
  if (json_path == "-") {
    std::cout << sweep.value().ToJson();
    return sink.Flush();
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) return Fail("cannot write '" + json_path + "'");
    out << sweep.value().ToJson();
    out.flush();
    if (!out.good()) return Fail("write to '" + json_path + "' failed");
  }

  const bool correlated = opts.failure_domain != FailureDomain::kDisk;
  Table t(correlated
              ? std::vector<std::string>{"Method", "Strategy", "Domains",
                                         "Failed disks", "Mean lat (ms)",
                                         "Availability", "Degraded x",
                                         "Rerouted", "Reconstr reads"}
              : std::vector<std::string>{"Method", "Strategy", "Failed",
                                         "Mean lat (ms)", "Availability",
                                         "Degraded x", "Rerouted",
                                         "Reconstr reads"});
  for (const AvailabilityPoint& p : sweep.value().points) {
    std::vector<std::string> row{p.method, p.strategy};
    if (correlated) row.push_back(std::to_string(p.failed_domains));
    row.push_back(std::to_string(p.failed_disks));
    row.push_back(Table::Fmt(p.mean_latency_ms, 2));
    row.push_back(Table::Fmt(p.availability, 3));
    row.push_back(Table::Fmt(p.degraded_ratio, 2));
    row.push_back(std::to_string(p.rerouted_buckets));
    row.push_back(std::to_string(p.reconstruction_reads));
    t.AddRow(row);
  }
  t.PrintText(std::cout);
  return sink.Flush();
}

Result<RelationRedundancy> RedundancyFromFlags(const Flags& flags) {
  RelationRedundancy r;
  const std::string policy = flags.GetString("redundancy", "none");
  if (policy == "none") {
    r.policy = RelationRedundancy::Policy::kNone;
  } else if (policy == "mirror") {
    r.policy = RelationRedundancy::Policy::kMirror;
  } else if (policy == "parity") {
    r.policy = RelationRedundancy::Policy::kParity;
  } else {
    return Status::InvalidArgument("bad --redundancy '" + policy +
                                   "' (none|mirror|parity)");
  }
  const auto copies = flags.GetInt("copies", 2);
  const auto group_pages = flags.GetInt("group-pages", 8);
  if (!copies.ok() || !group_pages.ok() || copies.value() < 1 ||
      group_pages.value() < 1) {
    return Status::InvalidArgument("bad --copies / --group-pages");
  }
  r.copies = static_cast<uint32_t>(copies.value());
  r.group_pages = static_cast<uint32_t>(group_pages.value());
  return r;
}

/// `--placement chained|spread|zone_aware --topology N[xR[xZ]]
/// [--placement-seed S]` -> a PlacementSpec; nullopt when neither
/// placement flag is present.
Result<std::optional<cluster::PlacementSpec>> PlacementFromFlags(
    const Flags& flags) {
  const std::string policy = flags.GetString("placement", "");
  const std::string topology = flags.GetString("topology", "");
  const auto pseed = flags.GetInt("placement-seed", 0);
  if (!pseed.ok()) return pseed.status();
  if (policy.empty() && topology.empty()) {
    return std::optional<cluster::PlacementSpec>();
  }
  if (topology.empty()) {
    return Status::InvalidArgument(
        "--placement requires --topology N[xR[xZ]]");
  }
  cluster::PlacementSpec spec;
  if (!policy.empty()) {
    Result<cluster::PlacementPolicy> parsed =
        cluster::ParsePlacementPolicy(policy);
    GRIDDECL_RETURN_IF_ERROR(parsed.status());
    spec.policy = parsed.value();
  }
  Result<cluster::Topology> topo = cluster::ParseTopology(topology);
  GRIDDECL_RETURN_IF_ERROR(topo.status());
  spec.topology = std::move(topo).value();
  spec.seed = static_cast<uint64_t>(pseed.value());
  return std::optional<cluster::PlacementSpec>(std::move(spec));
}

std::string TopologyString(const cluster::Topology& t) {
  return std::to_string(t.num_nodes()) + "x" + std::to_string(t.num_racks()) +
         "x" + std::to_string(t.num_zones());
}

int CmdMkCatalog(const Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Fail("--dir DIR is required");
  Result<GridSpec> grid = GridFromFlags(flags);
  if (!grid.ok()) return Fail(grid.status().ToString());
  const auto disks = flags.GetInt("disks", 4);
  const auto records = flags.GetInt("records", 256);
  const auto seed = flags.GetInt("seed", 42);
  const auto page_size = flags.GetInt("page-size", 4096);
  const auto format = flags.GetInt("format", kLatestFormatVersion);
  if (!disks.ok() || !records.ok() || !seed.ok() || !page_size.ok() ||
      !format.ok() || disks.value() < 1 || records.value() < 0 ||
      page_size.value() < 1) {
    return Fail("bad numeric flag");
  }
  if (format.value() != kFormatV2 && format.value() != kFormatV3) {
    return Fail("--format must be 2 or 3");
  }
  Result<RelationRedundancy> redundancy = RedundancyFromFlags(flags);
  if (!redundancy.ok()) return Fail(redundancy.status().ToString());
  Result<std::optional<cluster::PlacementSpec>> placement =
      PlacementFromFlags(flags);
  if (!placement.ok()) return Fail(placement.status().ToString());
  const auto clustered = flags.GetBool("clustered", false);
  if (!clustered.ok()) return Fail(clustered.status().ToString());

  std::vector<std::string> names;
  {
    const std::string list = flags.GetString("methods", "dm,hcam");
    std::istringstream ss(list);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (!token.empty()) names.push_back(token);
    }
  }
  if (names.empty()) return Fail("--methods lists no methods");

  Catalog catalog(static_cast<uint32_t>(disks.value()));
  Rng rng(static_cast<uint64_t>(seed.value()));
  // --clustered pads every bucket, so report what was actually inserted.
  uint64_t inserted = 0;
  for (const std::string& name : names) {
    std::vector<AttributeDef> attrs;
    for (uint32_t d = 0; d < grid.value().num_dims(); ++d) {
      attrs.push_back({"a" + std::to_string(d), 0.0, 1.0});
    }
    Result<Schema> schema = Schema::Create(attrs);
    if (!schema.ok()) return Fail(schema.status().ToString());
    Result<GridFile> file =
        GridFile::Create(std::move(schema).value(), grid.value().dims());
    if (!file.ok()) return Fail(file.status().ToString());
    if (clustered.value()) {
      // Bucket-clustered layout: insert bucket by bucket, padding each
      // bucket's count to a page-capacity multiple so no storage page
      // mixes buckets — the layout `serve --fail-disk` requires.
      const uint32_t capacity =
          PageCapacityFor(static_cast<uint32_t>(format.value()),
                          static_cast<uint32_t>(page_size.value()),
                          grid.value().num_dims());
      if (capacity < 1) return Fail("--page-size too small for --clustered");
      const uint64_t num_buckets = grid.value().num_buckets();
      uint64_t per_bucket =
          (static_cast<uint64_t>(records.value()) + num_buckets - 1) /
          num_buckets;
      per_bucket = std::max<uint64_t>(
          capacity, (per_bucket + capacity - 1) / capacity * capacity);
      for (uint64_t b = 0; b < num_buckets; ++b) {
        const BucketCoords c = grid.value().Delinearize(b);
        for (uint64_t k = 0; k < per_bucket; ++k) {
          std::vector<double> point;
          for (uint32_t d = 0; d < grid.value().num_dims(); ++d) {
            const double width = 1.0 / grid.value().dims()[d];
            point.push_back((c[d] + rng.NextDouble()) * width);
          }
          const Result<RecordId> id = file.value().Insert(point);
          if (!id.ok()) {
            return Fail("insert into '" + name + "': " +
                        id.status().ToString());
          }
        }
      }
    } else {
      for (int64_t i = 0; i < records.value(); ++i) {
        std::vector<double> point;
        for (uint32_t d = 0; d < grid.value().num_dims(); ++d) {
          point.push_back(rng.NextDouble());
        }
        const Result<RecordId> id = file.value().Insert(point);
        if (!id.ok()) {
          return Fail("insert into '" + name + "': " + id.status().ToString());
        }
      }
    }
    inserted = file.value().num_records();
    Result<DeclusteredFile> rel = DeclusteredFile::Create(
        std::move(file).value(), name, static_cast<uint32_t>(disks.value()));
    if (!rel.ok()) return Fail("method '" + name + "': " +
                               rel.status().ToString());
    const Status st = catalog.AddRelation(name, std::move(rel).value());
    if (!st.ok()) return Fail(st.ToString());
  }

  Result<DiskEnv> env = DiskEnv::Create(dir);
  if (!env.ok()) return Fail(env.status().ToString());
  MetricsSink sink(flags);
  ManifestSaveOptions options;
  options.page_size_bytes = static_cast<uint32_t>(page_size.value());
  options.format_version = static_cast<uint32_t>(format.value());
  options.default_redundancy = redundancy.value();
  options.metrics = sink.registry();
  if (placement.value().has_value()) {
    options.placement = cluster::ToManifestPlacement(*placement.value());
  }
  Result<uint64_t> gen = SaveCatalogManifest(catalog, &env.value(), options);
  if (!gen.ok()) return Fail(gen.status().ToString());
  std::cout << "committed generation " << gen.value() << ": "
            << names.size() << " relation(s), " << inserted
            << " record(s) each, redundancy "
            << RedundancyPolicyName(redundancy.value().policy) << "\n";
  if (placement.value().has_value()) {
    std::cout << "placement: "
              << cluster::PlacementPolicyName(placement.value()->policy)
              << ", topology " << TopologyString(placement.value()->topology)
              << "\n";
  }
  return sink.Flush();
}

int CmdServe(const Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Fail("--dir DIR is required");
  const std::string script_path = flags.GetString("script", "");
  if (script_path.empty()) return Fail("--script FILE is required");

  serve::ServeOptions options;
  const auto threads = flags.GetInt("threads", 4);
  const auto queue = flags.GetInt("queue", 64);
  const auto deadline = flags.GetDouble("deadline", 0.0);
  const auto drain = flags.GetDouble("drain", 2000.0);
  const auto seed = flags.GetInt("seed", 0);
  const auto prob = flags.GetDouble("transient-prob", 0.0);
  const auto fault_seed = flags.GetInt("fault-seed", 1);
  const auto max_transient = flags.GetInt("max-transient-attempts", 3);
  const auto latency = flags.GetDouble("latency", 0.0);
  const auto fail_disk = flags.GetInt("fail-disk", -1);
  const auto pool_pages = flags.GetInt("pool-pages", 1024);
  if (!threads.ok() || !queue.ok() || !deadline.ok() || !drain.ok() ||
      !seed.ok() || !prob.ok() || !fault_seed.ok() || !max_transient.ok() ||
      !latency.ok() || !fail_disk.ok() || !pool_pages.ok() ||
      threads.value() < 1 || queue.value() < 1 || pool_pages.value() < 0) {
    return Fail("bad numeric flag");
  }
  options.num_threads = static_cast<uint32_t>(threads.value());
  options.max_queue = static_cast<uint32_t>(queue.value());
  options.default_deadline_ms = deadline.value();
  options.drain_deadline_ms = drain.value();
  options.seed = static_cast<uint64_t>(seed.value());
  options.pool_pages = static_cast<size_t>(pool_pages.value());

  std::ifstream script_in(script_path);
  if (!script_in.good()) {
    return Fail("cannot read script '" + script_path + "'");
  }
  std::ostringstream script_text;
  script_text << script_in.rdbuf();
  Result<std::vector<serve::QueryRequest>> requests =
      serve::ParseServeScript(script_text.str());
  if (!requests.ok()) {
    return Fail(script_path + ": " + requests.status().ToString());
  }

  Result<DiskEnv> env = DiskEnv::Create(dir);
  if (!env.ok()) return Fail(env.status().ToString());

  FaultyEnvOptions fault_opts;
  fault_opts.seed = static_cast<uint64_t>(fault_seed.value());
  fault_opts.transient_error_prob = prob.value();
  fault_opts.max_transient_attempts =
      static_cast<uint32_t>(max_transient.value());
  fault_opts.latency_ms = latency.value();
  if (fail_disk.value() >= 0) {
    const std::string relation = flags.GetString("fail-relation", "");
    if (relation.empty()) {
      return Fail("--fail-disk needs --fail-relation NAME");
    }
    Result<std::vector<FaultRange>> schedule = serve::DiskFaultSchedule(
        env.value(), relation, static_cast<uint32_t>(fail_disk.value()));
    if (!schedule.ok()) return Fail(schedule.status().ToString());
    fault_opts.permanent = std::move(schedule).value();
    std::cout << "failing disk " << fail_disk.value() << " of '" << relation
              << "': " << fault_opts.permanent.size()
              << " page range(s) unreadable\n";
  }
  Result<std::unique_ptr<FaultyEnv>> faulty =
      FaultyEnv::Create(&env.value(), fault_opts);
  if (!faulty.ok()) return Fail(faulty.status().ToString());

  MetricsSink sink(flags);
  Result<std::unique_ptr<serve::QueryService>> service =
      serve::QueryService::Create(faulty.value().get(), options);
  if (!service.ok()) return Fail(service.status().ToString());

  // Submit everything up front (the admission queue may shed), then wait.
  std::vector<std::pair<size_t, std::future<serve::QueryResult>>> futures;
  uint64_t shed = 0;
  for (size_t i = 0; i < requests.value().size(); ++i) {
    Result<std::future<serve::QueryResult>> f =
        service.value()->Submit(requests.value()[i]);
    if (f.ok()) {
      futures.emplace_back(i, std::move(f).value());
    } else {
      shed++;
      std::cout << "query " << i << ": " << f.status().ToString() << "\n";
    }
  }
  uint64_t failed = shed;
  for (auto& [i, future] : futures) {
    const serve::QueryResult r = future.get();
    std::cout << "query " << i << ": ";
    if (r.status.ok()) {
      std::cout << r.matches.size() << " match(es), " << r.pages_read
                << " page(s)";
      if (r.retries > 0) std::cout << ", " << r.retries << " retries";
      if (r.rerouted_buckets > 0) {
        std::cout << ", " << r.rerouted_buckets << " rerouted";
      }
      if (r.failover_reads > 0) {
        std::cout << ", " << r.failover_reads << " failovers";
      }
      if (r.reconstructed_pages > 0) {
        std::cout << ", " << r.reconstructed_pages << " reconstructed";
      }
      if (r.pool_hits > 0) {
        std::cout << ", " << r.pool_hits << " pool hits";
      }
      if (r.zone_map_skips > 0) {
        std::cout << ", " << r.zone_map_skips << " pages zone-skipped";
      }
      std::cout << "\n";
    } else {
      failed++;
      std::cout << r.status.ToString() << "\n";
    }
  }
  const Status drained = service.value()->Shutdown();
  if (sink.registry() != nullptr) {
    service.value()->SnapshotMetrics(sink.registry());
  }
  const BreakerCounters breakers = service.value()->BreakerTotals();
  std::cout << requests.value().size() - failed << "/"
            << requests.value().size() << " queries ok";
  if (shed > 0) std::cout << " (" << shed << " shed)";
  if (breakers.opened > 0) {
    std::cout << "; breakers: " << breakers.opened << " opened, "
              << breakers.half_opened << " half-opened, " << breakers.closed
              << " closed, " << breakers.reopened << " reopened";
  }
  std::cout << "\n";
  if (!drained.ok()) std::cout << "drain: " << drained.ToString() << "\n";
  if (const int rc = sink.Flush(); rc != 0) return rc;
  return failed == 0 ? 0 : 1;
}

int CmdCluster(const Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Fail("--dir DIR is required");
  const std::string script_path = flags.GetString("script", "");
  if (script_path.empty()) return Fail("--script FILE is required");

  const auto nodes = flags.GetInt("nodes", 4);
  const auto threads = flags.GetInt("threads", 4);
  const auto hedge_delay = flags.GetDouble("hedge-delay", -1.0);
  const auto no_hedge = flags.GetBool("no-hedge", false);
  const auto first_success = flags.GetBool("first-success", false);
  const auto quorum = flags.GetDouble("quorum", 0.5);
  const auto seed = flags.GetInt("seed", 0);
  const auto prob = flags.GetDouble("transient-prob", 0.0);
  const auto fault_seed = flags.GetInt("fault-seed", 1);
  const auto max_nodes = flags.GetInt("max-nodes", 0);
  const auto retry_budget = flags.GetInt("retry-budget", 0);
  const auto hedge_budget = flags.GetDouble("hedge-budget", 0.0);
  if (!nodes.ok() || !threads.ok() || !hedge_delay.ok() || !no_hedge.ok() ||
      !first_success.ok() || !quorum.ok() || !seed.ok() || !prob.ok() ||
      !fault_seed.ok() || !max_nodes.ok() || !retry_budget.ok() ||
      !hedge_budget.ok() || nodes.value() < 1 || threads.value() < 1 ||
      max_nodes.value() < 0 || retry_budget.value() < 0) {
    return Fail("bad numeric flag");
  }

  cluster::ClusterOptions options;
  options.num_nodes = static_cast<uint32_t>(nodes.value());
  options.node.num_threads = static_cast<uint32_t>(threads.value());
  options.hedging = !no_hedge.value();
  options.hedge_policy = first_success.value()
                             ? cluster::HedgePolicy::kFirstSuccess
                             : cluster::HedgePolicy::kPrimaryPreferred;
  options.hedge_delay_ms = hedge_delay.value();
  options.quorum_fraction = quorum.value();
  options.seed = static_cast<uint64_t>(seed.value());
  options.node.seed = static_cast<uint64_t>(seed.value());
  options.node_transient_prob = prob.value();
  options.fault_seed = static_cast<uint64_t>(fault_seed.value());
  options.max_nodes = static_cast<uint32_t>(max_nodes.value());
  options.retry_budget_per_query = static_cast<uint32_t>(retry_budget.value());
  options.hedge_budget_fraction = hedge_budget.value();
  {
    Result<std::optional<cluster::PlacementSpec>> placement =
        PlacementFromFlags(flags);
    if (!placement.ok()) return Fail(placement.status().ToString());
    options.placement = std::move(placement).value();
  }
  {
    const std::string latency = flags.GetString("latency", "");
    std::istringstream ss(latency);
    std::string token;
    while (std::getline(ss, token, ',')) {
      char* end = nullptr;
      const double v = std::strtod(token.c_str(), &end);
      if (token.empty() || end != token.c_str() + token.size() || v < 0.0) {
        return Fail("bad --latency entry '" + token + "'");
      }
      options.node_latency_ms.push_back(v);
    }
  }

  std::ifstream script_in(script_path);
  if (!script_in.good()) {
    return Fail("cannot read script '" + script_path + "'");
  }
  std::ostringstream script_text;
  script_text << script_in.rdbuf();
  Result<std::vector<cluster::ClusterCommand>> commands =
      cluster::ParseClusterScript(script_text.str());
  if (!commands.ok()) {
    return Fail(script_path + ": " + commands.status().ToString());
  }

  Result<DiskEnv> env = DiskEnv::Create(dir);
  if (!env.ok()) return Fail(env.status().ToString());
  Result<std::unique_ptr<cluster::Cluster>> cl =
      cluster::Cluster::Create(env.value(), std::move(options));
  if (!cl.ok()) return Fail(cl.status().ToString());
  std::cout << "cluster: " << cl.value()->num_nodes() << " node(s), "
            << cl.value()->num_disks() << " virtual disk(s), generation "
            << cl.value()->generation() << "\n";
  {
    const cluster::PlacementSpec& ps = cl.value()->placement_spec();
    std::cout << "placement: " << cluster::PlacementPolicyName(ps.policy)
              << ", topology " << TopologyString(ps.topology) << "\n";
    for (const std::string& w : cl.value()->PlacementWarnings()) {
      std::cout << w << "\n";
    }
  }

  MetricsSink sink(flags);
  uint64_t incomplete = 0;
  size_t query_no = 0;
  for (const cluster::ClusterCommand& cmd : commands.value()) {
    using Kind = cluster::ClusterCommand::Kind;
    switch (cmd.kind) {
      case Kind::kQuery: {
        const cluster::ClusterQueryResult r = cl.value()->Execute(cmd.query);
        std::cout << "query " << query_no++ << ": ";
        if (!r.status.ok()) {
          ++incomplete;
          std::cout << r.status.ToString() << "\n";
          break;
        }
        std::cout << r.matches.size() << " match(es), " << r.sub_queries
                  << " sub-quer" << (r.sub_queries == 1 ? "y" : "ies");
        if (r.hedges_fired > 0) {
          std::cout << ", " << r.hedges_fired << " hedged (" << r.hedge_wins
                    << " won)";
        }
        if (r.rerouted_subqueries > 0) {
          std::cout << ", " << r.rerouted_subqueries << " rerouted";
        }
        if (!r.complete) {
          ++incomplete;
          std::cout << ", PARTIAL availability "
                    << Table::Fmt(r.availability * 100, 1) << "% ("
                    << r.unavailable_buckets << "/" << r.buckets_touched
                    << " buckets unavailable)";
        }
        std::cout << "\n";
        break;
      }
      case Kind::kKillNode: {
        const Status st = cl.value()->KillNode(cmd.node);
        if (!st.ok()) return Fail(st.ToString());
        std::cout << "killed node " << cmd.node << "\n";
        break;
      }
      case Kind::kReviveNode: {
        const Status st = cl.value()->ReviveNode(cmd.node);
        if (!st.ok()) return Fail(st.ToString());
        std::cout << "revived node " << cmd.node << "\n";
        break;
      }
      case Kind::kKillZone: {
        const Status st = cl.value()->KillZone(cmd.zone);
        if (!st.ok()) return Fail(st.ToString());
        std::cout << "killed zone " << cmd.zone << "\n";
        break;
      }
      case Kind::kReviveZone: {
        const Status st = cl.value()->ReviveZone(cmd.zone);
        if (!st.ok()) return Fail(st.ToString());
        std::cout << "revived zone " << cmd.zone << "\n";
        break;
      }
      case Kind::kAdvance:
        cl.value()->AdvanceTimeMs(cmd.advance_ms);
        std::cout << "advanced virtual time to " << cmd.advance_ms << " ms\n";
        break;
      case Kind::kMigrate: {
        cluster::MigrationOptions mo;
        mo.new_method = cmd.migrate_method;
        mo.new_num_disks = cmd.migrate_disks;
        Result<cluster::MigrationReport> report = cl.value()->Migrate(mo);
        if (!report.ok()) return Fail(report.status().ToString());
        if (report.value().committed) {
          std::cout << "migrated to " << cmd.migrate_method << "/M="
                    << cmd.migrate_disks << ": generation "
                    << report.value().old_generation << " -> "
                    << report.value().new_generation << ", "
                    << report.value().files_copied << " file(s) copied, "
                    << report.value().verify_queries
                    << " verify quer(ies) clean\n";
        } else {
          ++incomplete;
          std::cout << "migration aborted: " << report.value().abort_reason
                    << " (old generation " << report.value().old_generation
                    << " intact)\n";
        }
        break;
      }
      case Kind::kRepair: {
        cluster::RepairOptions ro;
        ro.copy_bytes_per_sec = cmd.repair_bytes_per_sec;
        Result<cluster::RepairReport> report = cl.value()->Repair(ro);
        if (!report.ok()) return Fail(report.status().ToString());
        if (report.value().already_healthy) {
          std::cout << "repair: placement already healthy (generation "
                    << report.value().old_generation << ")\n";
        } else if (report.value().committed) {
          std::cout << "repaired: generation "
                    << report.value().old_generation << " -> "
                    << report.value().new_generation << ", "
                    << report.value().replicas_retargeted
                    << " replica(s) re-targeted, "
                    << report.value().files_copied << " file(s) copied, "
                    << report.value().verify_queries
                    << " verify quer(ies) clean, MTTR "
                    << Table::Fmt(report.value().mttr_virtual_ms, 1)
                    << " virtual ms\n";
        } else {
          ++incomplete;
          std::cout << "repair aborted: " << report.value().abort_reason
                    << " (old generation " << report.value().old_generation
                    << " intact)\n";
        }
        break;
      }
      case Kind::kAddNode: {
        Result<uint32_t> id =
            cl.value()->AddNode(cmd.add_rack, cmd.add_zone);
        if (!id.ok()) return Fail(id.status().ToString());
        std::cout << "added node " << id.value() << " (rack " << cmd.add_rack
                  << ", zone " << cmd.add_zone
                  << "); repair to take ownership\n";
        break;
      }
      case Kind::kRemoveNode: {
        const Status st = cl.value()->RemoveNode(cmd.node);
        if (!st.ok()) return Fail(st.ToString());
        std::cout << "removed node " << cmd.node
                  << "; repair to evacuate its replicas\n";
        break;
      }
    }
  }
  if (sink.registry() != nullptr) {
    cl.value()->SnapshotMetrics(sink.registry());
  }
  std::cout << (incomplete == 0 ? "all commands clean"
                                : std::to_string(incomplete) +
                                      " command(s) degraded or failed")
            << "\n";
  if (const int rc = sink.Flush(); rc != 0) return rc;
  return incomplete == 0 ? 0 : 1;
}

int CmdFsck(const Flags& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Fail("--dir DIR is required");
  const auto dry_run = flags.GetBool("dry-run", false);
  if (!dry_run.ok()) return Fail(dry_run.status().ToString());
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Fail("no such catalog directory '" + dir + "'");
  }
  Result<DiskEnv> env = DiskEnv::Create(dir);
  if (!env.ok()) return Fail(env.status().ToString());
  MetricsSink sink(flags);
  ScrubOptions options;
  options.repair = !dry_run.value();
  options.metrics = sink.registry();
  Result<ScrubReport> report = ScrubCatalog(&env.value(), options);
  if (!report.ok()) return Fail(report.status().ToString());
  std::cout << FormatScrubReport(report.value());
  if (Result<CatalogManifest> manifest = ReadCurrentManifest(env.value());
      manifest.ok() && manifest.value().placement.has_value()) {
    Result<cluster::PlacementSpec> spec =
        cluster::FromManifestPlacement(*manifest.value().placement);
    if (spec.ok()) {
      std::cout << "placement: "
                << cluster::PlacementPolicyName(spec.value().policy)
                << ", topology " << TopologyString(spec.value().topology)
                << ", seed " << spec.value().seed << "\n";
    }
  }
  if (const int rc = sink.Flush(); rc != 0) return rc;
  return report.value().Clean() ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return Fail(flags.status().ToString());

  if (command == "methods") return CmdMethods();
  if (command == "eval") return CmdEval(flags.value());
  if (command == "compare") return CmdCompare(flags.value());
  if (command == "sweep-size") return CmdSweepSize(flags.value());
  if (command == "gen-trace") return CmdGenTrace(flags.value());
  if (command == "advise") return CmdAdvise(flags.value());
  if (command == "show") return CmdShow(flags.value());
  if (command == "export") return CmdExport(flags.value());
  if (command == "optimize") return CmdOptimize(flags.value());
  if (command == "throughput") return CmdThroughput(flags.value());
  if (command == "reproduce") return CmdReproduce(flags.value());
  if (command == "search") return CmdSearch(flags.value());
  if (command == "degrade") return CmdDegrade(flags.value());
  if (command == "mkcatalog") return CmdMkCatalog(flags.value());
  if (command == "fsck") return CmdFsck(flags.value());
  if (command == "serve") return CmdServe(flags.value());
  if (command == "cluster") return CmdCluster(flags.value());
  return Usage();
}

}  // namespace
}  // namespace griddecl

int main(int argc, char** argv) { return griddecl::Main(argc, argv); }
