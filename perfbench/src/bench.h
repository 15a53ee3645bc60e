#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "griddecl/gridfile/storage_env.h"

/// \file
/// Shared pieces of the griddecl benchmark: the command-line contract, the
/// result report, timing and statistics helpers, the span recorder used by
/// traced runs, and the point data set the serving and cluster workloads
/// insert (kept here so the benchmark can answer every query itself).

namespace perfbench {

/// Parsed command line.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write their spans here (JSON lines).
  std::string span_file;
};

/// splitmix64: the benchmark's own generator, so inputs never depend on
/// the library's RNG.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Wall clock of the span recorder.
using Clock = std::chrono::steady_clock;

/// CPU time used so far by every thread of this process, in seconds: the
/// clock every timed figure the benchmark reports is read from. On a
/// shared virtual machine the wall clock also counts the time the
/// hypervisor gives this vCPU to other guests (steal), which comes in
/// spells of seconds and moved identical runs 1.2-1.7x apart; the CPU
/// clock leaves it out. Work done in parallel counts once per thread, so a
/// request scattered over three nodes costs the sum of its sub-queries.
///
/// The process clock brings only the calling thread up to date; a thread
/// still running on another vCPU is counted as of its last scheduler
/// event, so a request's tail could land in the next request. CpuNow()
/// therefore first reads the CPU clock of every thread TrackThreads()
/// found, which brings each up to date.
double CpuNow();
/// Lists this process's threads for CpuNow(). Call it once the threads
/// that run the timed work have started.
void TrackThreads();
inline double CpuSecondsSince(double start) { return CpuNow() - start; }

/// Linear-interpolated quantile of `v` (q in [0, 1]); sorts a copy.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Request timings of a run, in CPU time: the median of per-round request
/// rates, and the median over passes of each pass's p50 and p95 cost. A
/// pass is one run through the workload's whole request mix, so every
/// pass holds the same requests; a window that held only part of the mix
/// would move its percentiles with its share of large requests. Passes
/// keep a slow episode of the host from dragging a whole-run percentile;
/// medians keep one from setting it.
struct Timings {
  double queries_per_cpu_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};
/// `latencies_ms` in request order, `pass_requests` consecutive requests
/// per pass. `round_rates` empty: each pass's requests per CPU second
/// stands for a round.
Timings SummarizeTimings(const std::vector<double>& latencies_ms,
                         size_t pass_requests,
                         std::vector<double> round_rates);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Total bytes of every file in `env`.
uint64_t EnvBytes(const griddecl::StorageEnv& env);

/// FNV-1a over a sorted id list: how repeated answers are compared with
/// the first, oracle-checked answer without keeping every result.
uint64_t Fingerprint(const std::vector<uint64_t>& ids);

/// The result line and the correctness verdict of one run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed check (the run is then reported incorrect).
  void Check(bool ok, const std::string& what);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  bool correct() const { return correct_; }
  /// Prints the one-line JSON result.
  void Print() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reported_failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// In-memory span recorder for traced runs. Spans nest by scope; each
/// records name, start, end, parent and the request it belongs to. Absent
/// (null) in untraced runs, where `Span` does nothing.
class Tracer {
 public:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  ///< Index of the enclosing span, -1 for a root.
    uint64_t request;
  };

  Tracer();
  int64_t Begin(const char* name, uint64_t request);
  void End(int64_t index);
  /// Writes every span, then one self-time summary line per span name
  /// (self time = duration minus the union of its children's intervals).
  bool WriteFile(const std::string& path) const;
  /// Mean duration in ms of the spans named `name` (0 when none).
  double MeanMs(const std::string& name) const;

 private:
  std::vector<double> SelfTimesMs() const;

  Clock::time_point origin_;
  std::vector<Record> spans_;
  int64_t open_ = -1;
  size_t dropped_ = 0;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, request) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// Two-attribute points in [0,1)^2, generated bucket by bucket over a
/// side x side grid with `per_bucket` points in each cell, in the
/// grid-linear order the library linearizes buckets in, sorted on x within
/// each bucket. Record id i is the i-th point. Inserting them in this
/// order with `per_bucket` a multiple of the page capacity gives a
/// bucket-clustered file.
struct PointSet {
  uint32_t side = 0;
  uint32_t per_bucket = 0;
  std::vector<double> x;
  std::vector<double> y;

  static PointSet Generate(uint32_t side, uint32_t per_bucket, uint64_t seed);
  size_t size() const { return x.size(); }
  /// Sorted ids with lo <= point <= hi on both attributes, computed from
  /// the generated points alone.
  std::vector<uint64_t> BoxFilter(const std::vector<double>& lo,
                                  const std::vector<double>& hi) const;
};

/// Per-layer metrics collected by a traced pass, keyed by metric name.
using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// One workload: what it measured and how many operations it ran.
struct WorkloadResult {
  double setup_s = 0.0;
  double queries_per_cpu_s = 0.0;
  double query_cpu_p50_ms = 0.0;
  double query_cpu_p95_ms = 0.0;
  double response_ratio = 0.0;
  double stored_bytes_per_user_byte = 0.0;
  double recovery_cpu_s = 0.0;
  LayerMetrics layers;
};

/// Workload entry points. Each checks its own outputs into `report` and
/// counts its operations there. `tracer` is null in untraced runs.
WorkloadResult RunPaperSweep(const Args& args, Report* report,
                             Tracer* tracer);
WorkloadResult RunServeCold(const Args& args, Report* report,
                            Tracer* tracer);
WorkloadResult RunServeHotDegraded(const Args& args, Report* report,
                                   Tracer* tracer);
WorkloadResult RunClusterIncident(const Args& args, Report* report,
                                  Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
