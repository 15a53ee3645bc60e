/// perfbench: griddecl's end-to-end benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--span-file <path>]
///
/// Untraced runs print the end-to-end metrics of one workload. Traced runs
/// attach spans and registries and run every workload traced for a quarter
/// of the run length each, so one traced run reports every per-layer
/// metric; the named workload also runs untraced before and after its
/// traced pass (the tracing overhead). The last stdout line is the JSON
/// result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

using Runner = WorkloadResult (*)(const Args&, Report*, Tracer*);

struct Workload {
  const char* name;
  Runner run;
};

constexpr Workload kWorkloads[] = {
    {"paper_sweep", RunPaperSweep},
    {"serve_cold", RunServeCold},
    {"serve_hot_degraded", RunServeHotDegraded},
    {"cluster_incident", RunClusterIncident},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--span-file") {
      args->span_file = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

const Workload* Find(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Untraced(const Workload& w, const Args& args) {
  Report report;
  const WorkloadResult r = w.run(args, &report, nullptr);
  report.Metric("setup_s", r.setup_s, "s");
  report.Metric("queries_per_cpu_s", r.queries_per_cpu_s, "1/s");
  report.Metric("query_cpu_p50_ms", r.query_cpu_p50_ms, "ms");
  report.Metric("query_cpu_p95_ms", r.query_cpu_p95_ms, "ms");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  report.Metric("response_ratio", r.response_ratio, "ratio");
  report.Metric("stored_bytes_per_user_byte", r.stored_bytes_per_user_byte,
                "ratio");
  report.Metric("recovery_cpu_s", r.recovery_cpu_s, "s");
  report.Print();
  return 0;
}

/// Unit of a per-layer metric, from the unit word in its name.
const char* UnitOf(const std::string& name) {
  auto has = [&name](const char* s) {
    return name.find(s) != std::string::npos;
  };
  auto ends = [&name](const char* s) {
    const size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (has("_ns_per_byte")) return "ns/B";
  if (has("_mb")) return "MB";
  if (ends("_us")) return "us";
  if (ends("_ns")) return "ns";
  if (has("_ms")) return "ms";
  if (ends("_ratio") || ends("_share") || ends("_max")) return "ratio";
  return "count";
}

int Traced(const Workload& named, const Args& args) {
  Report report;
  Tracer tracer;
  Args part = args;
  part.seconds = args.seconds / 4;

  // Tracing overhead: the named workload's traced pass against the mean of
  // an untraced pass before and one after it, each as long, so warm-up
  // and drift fall on both sides.
  Report scratch;
  double plain_qps = named.run(part, &scratch, nullptr).queries_per_cpu_s;
  double traced_qps = 0.0;
  for (const Workload& w : kWorkloads) {
    const WorkloadResult r = w.run(part, &report, &tracer);
    for (const auto& [name, value] : r.layers) {
      report.Metric(name, value, UnitOf(name));
    }
    if (&w == &named) {
      traced_qps = r.queries_per_cpu_s;
      plain_qps += named.run(part, &scratch, nullptr).queries_per_cpu_s;
    }
  }
  report.Check(scratch.correct(), std::string(named.name) + " untraced passes");
  report.Metric("trace.qps_ratio", traced_qps / (plain_qps / 2), "ratio");
  if (!args.span_file.empty() && !tracer.WriteFile(args.span_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.span_file.c_str());
    return 1;
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-file <path>]\n");
    return 2;
  }
  const perfbench::Workload* w = perfbench::Find(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::Traced(*w, args)
                    : perfbench::Untraced(*w, args);
}
