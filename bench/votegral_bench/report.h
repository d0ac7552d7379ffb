// Metric sink, run record and result serialization for votegral_bench.
//
// Every metric is a (name, value, unit) triple; percentiles also carry the
// number of samples they were taken over, printed as `n=` so a reader can
// tell a p99 over 20 samples from one over 20000. Three outputs:
//   * human lines   — `name value unit [n=N]`, one per metric;
//   * the result line — the last stdout line, one JSON object with exactly
//     `correct`, `attempted`, `failed` and `metrics` (the names requested);
//   * --json FILE   — every metric plus the run record (host, build, seed).
#ifndef BENCH_VOTEGRAL_BENCH_REPORT_H_
#define BENCH_VOTEGRAL_BENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace votegral::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // samples behind a percentile; 0 for plain values
};

class Report {
 public:
  // Adds or replaces `name`.
  void Add(std::string_view name, double value, std::string_view unit, size_t samples = 0);
  const Metric* Find(std::string_view name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  // One `name value unit [n=N]` line per metric.
  void PrintLines(FILE* out) const;

 private:
  std::vector<Metric> metrics_;
};

// Outcome bookkeeping shared by every phase of a run: operations attempted
// and failed, and the first correctness check that did not hold.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string first_failure;

  // Counts one operation; a failed one also fails the run.
  void Op(bool ok, std::string_view what);
  // Records a correctness check.
  void Check(bool ok, std::string_view what);
};

// Where and how a run was made: enough to tell two hosts or two builds apart.
struct RunRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  bool avx512ifma = false;
  std::vector<std::pair<std::string, std::string>> env;  // VOTEGRAL_SIMD, VOTEGRAL_X4_*
  bool ndebug = false;
  bool optimized = false;
  std::string compiler;
  std::string git_head;  // "unknown" when the source tree is not a git checkout
  std::string workload;
  uint64_t seed = 0;
  size_t threads = 0;
  double seconds = 0.0;
  std::string sizes;  // "smoke", "default" or "issue"
  bool traced = false;
};

// Reads /proc/cpuinfo, the environment and the source tree's git HEAD.
RunRecord CollectRunRecord();

// Writes {"run": record, "correct", "attempted", "failed", "metrics": {...}}.
bool WriteJsonResult(const std::string& path, const RunRecord& record, const Report& report,
                     const Verdict& verdict);

// The result line: exactly the named metrics, in order. A name missing from
// the report fails the run: the benchmark promised a metric it did not make.
std::string ResultLine(const Report& report, std::span<const std::string_view> names,
                       Verdict& verdict);

// Percentile (linear interpolation) of a sample; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// Peak resident set size of this process since the last ResetPeakRss (since
// it started, if never reset), in MiB.
double PeakRssMb();
// Lowers the kernel's peak resident set mark to the current resident set
// (Linux /proc/self/clear_refs); false where that is not allowed.
bool ResetPeakRss();

}  // namespace votegral::bench

#endif  // BENCH_VOTEGRAL_BENCH_REPORT_H_
