#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>

#include <dirent.h>
#include <time.h>

namespace perfbench {

namespace {
/// CPU clocks of the threads TrackThreads() last found.
std::vector<clockid_t> tracked_clocks;
}  // namespace

void TrackThreads() {
  tracked_clocks.clear();
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    // Linux's clock id for one thread's CPU clock (what
    // pthread_getcpuclockid builds from a thread id).
    const auto tid = static_cast<unsigned>(std::atoi(entry->d_name));
    tracked_clocks.push_back(static_cast<clockid_t>((~tid << 3) | 6));
  }
  closedir(dir);
}

double CpuNow() {
  timespec t;
  for (clockid_t clock : tracked_clocks) {
    clock_gettime(clock, &t);  // A thread that has ended just fails here.
  }
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) +
         static_cast<double>(t.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Timings SummarizeTimings(const std::vector<double>& latencies_ms,
                         size_t pass_requests,
                         std::vector<double> round_rates) {
  const bool pass_rates = round_rates.empty();
  std::vector<double> p50s, p95s;
  for (size_t begin = 0;
       pass_requests > 0 && begin + pass_requests <= latencies_ms.size();
       begin += pass_requests) {
    const std::vector<double> pass(
        latencies_ms.begin() + begin,
        latencies_ms.begin() + begin + pass_requests);
    p50s.push_back(Quantile(pass, 0.50));
    p95s.push_back(Quantile(pass, 0.95));
    if (pass_rates) {
      double ms = 0.0;
      for (double v : pass) ms += v;
      round_rates.push_back(pass_requests * 1e3 / ms);
    }
  }
  Timings t;
  t.queries_per_cpu_s = Median(round_rates);
  t.p50_ms = Median(p50s);
  t.p95_ms = Median(p95s);
  return t;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

uint64_t EnvBytes(const griddecl::StorageEnv& env) {
  uint64_t total = 0;
  const std::vector<std::string> names = env.ListFiles().value();
  for (const std::string& name : names) {
    total += env.ReadFile(name).value().size();
  }
  return total;
}

uint64_t Fingerprint(const std::vector<uint64_t>& ids) {
  uint64_t h = 1469598103934665603ull ^ ids.size();
  for (uint64_t id : ids) {
    h = (h ^ id) * 1099511628211ull;
  }
  return h;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  // Report the first few failures in full; the verdict carries the rest.
  if (++reported_failures_ <= 20) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.first) ? m.first : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {
/// Bound on recorded spans (about 40 MB); later spans are counted, not
/// kept, so a long traced run cannot exhaust memory.
constexpr size_t kMaxSpans = 1u << 20;
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1u << 16); }

int64_t Tracer::Begin(const char* name, uint64_t request) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  spans_.push_back({name, now, now, open_, request});
  open_ = static_cast<int64_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  Record& r = spans_[static_cast<size_t>(index)];
  r.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  open_ = r.parent;
}

std::vector<double> Tracer::SelfTimesMs() const {
  // Children of one parent never overlap (spans nest by scope on one
  // thread), so the covered part of a parent is the sum of its children.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                  child_ns[i]) /
              1e6;
  }
  return self;
}

double Tracer::MeanMs(const std::string& name) const {
  double total_ns = 0.0;
  uint64_t count = 0;
  for (const Record& r : spans_) {
    if (name == r.name) {
      total_ns += static_cast<double>(r.end_ns - r.start_ns);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total_ns / 1e6 / static_cast<double>(count);
}

bool Tracer::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = SelfTimesMs();
  struct Summary {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << "{\"span\": " << i << ", \"name\": \"" << r.name
        << "\", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
        << ", \"parent\": " << r.parent << ", \"request\": " << r.request
        << "}\n";
    Summary& s = by_name[r.name];
    s.count++;
    s.total_ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    s.self_ms += self[i];
  }
  for (const auto& [name, s] : by_name) {
    out << "{\"summary\": \"" << name << "\", \"count\": " << s.count
        << ", \"total_ms\": " << s.total_ms << ", \"self_ms\": " << s.self_ms
        << "}\n";
  }
  out << "{\"dropped_spans\": " << dropped_ << "}\n";
  return static_cast<bool>(out);
}

PointSet PointSet::Generate(uint32_t side, uint32_t per_bucket,
                            uint64_t seed) {
  PointSet set;
  set.side = side;
  set.per_bucket = per_bucket;
  const size_t n = size_t{side} * side * per_bucket;
  set.x.reserve(n);
  set.y.reserve(n);
  Prng rng(seed);
  // Keep every point strictly inside its cell so rounding never moves it
  // to the neighbouring bucket.
  const double span = 1.0 - 1e-9;
  std::vector<std::pair<double, double>> cell(per_bucket);
  for (uint32_t cx = 0; cx < side; ++cx) {
    for (uint32_t cy = 0; cy < side; ++cy) {
      for (auto& [x, y] : cell) {
        x = (cx + rng.Unit() * span) / side;
        y = (cy + rng.Unit() * span) / side;
      }
      // Sorted on x within the bucket, so a bucket's pages cover
      // disjoint x slices and their zone maps can exclude a range edge.
      std::sort(cell.begin(), cell.end());
      for (const auto& [x, y] : cell) {
        set.x.push_back(x);
        set.y.push_back(y);
      }
    }
  }
  return set;
}

std::vector<uint64_t> PointSet::BoxFilter(const std::vector<double>& lo,
                                          const std::vector<double>& hi) const {
  // Cells are only an index over the generated points: one extra cell on
  // every side keeps the filter exact whatever the cell arithmetic rounds.
  auto cell = [this](double v) {
    const double c = std::floor(v * side);
    return static_cast<int64_t>(std::clamp(c, 0.0, side - 1.0));
  };
  const int64_t x0 = std::max<int64_t>(cell(lo[0]) - 1, 0);
  const int64_t x1 = std::min<int64_t>(cell(hi[0]) + 1, side - 1);
  const int64_t y0 = std::max<int64_t>(cell(lo[1]) - 1, 0);
  const int64_t y1 = std::min<int64_t>(cell(hi[1]) + 1, side - 1);
  std::vector<uint64_t> ids;
  for (int64_t cx = x0; cx <= x1; ++cx) {
    for (int64_t cy = y0; cy <= y1; ++cy) {
      const uint64_t first = (static_cast<uint64_t>(cx) * side + cy) *
                             per_bucket;
      for (uint64_t i = first; i < first + per_bucket; ++i) {
        if (x[i] >= lo[0] && x[i] <= hi[0] && y[i] >= lo[1] &&
            y[i] <= hi[1]) {
          ids.push_back(i);
        }
      }
    }
  }
  return ids;  // Ascending: cells and points within them are id-ordered.
}

}  // namespace perfbench
