// votegral_bench: the repository benchmark (README.md beside this file).
//
//   votegral_bench --workload W --seed S [--seconds N] [--threads T]
//                  [--json FILE] [--trace FILE] [--tmp DIR]
//                  [--smoke | --issue-sizes]
//   votegral_bench --probes N
//
// Runs workload W (register, tally, revote or catchup) for N seconds on T
// threads (default min(nproc, 4)), drives the program through its public
// API, checks every output, and prints each metric as `name value unit`
// (`n=` beside every percentile). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics. With --trace FILE the run also records spans around its calls,
// replays every layer on the workload's data, writes the spans as Chrome
// trace-event JSON to FILE, and its last line carries the per-layer metrics.
// --json FILE writes every metric plus the run record. --smoke runs one
// round at tiny sizes, --issue-sizes one round at a real registration
// day's sizes. Temporary ledgers live under --tmp (default build/vb/tmp)
// and are removed on exit. --probes N prints N back-to-back readings of the
// host-drift probe and nothing else.
//
// Exit status: 0 when every check held, 1 when one failed, 2 on bad usage.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "bench/votegral_bench/layers.h"
#include "bench/votegral_bench/report.h"
#include "bench/votegral_bench/trace.h"
#include "bench/votegral_bench/workloads.h"
#include "src/common/clock.h"

namespace votegral::bench {
namespace {

namespace fs = std::filesystem;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "votegral_bench: %s\n"
               "usage: votegral_bench --workload register|tally|revote|catchup --seed S\n"
               "                      [--seconds N] [--threads T] [--json FILE]\n"
               "                      [--trace FILE] [--tmp DIR] [--smoke | --issue-sizes]\n"
               "       votegral_bench --probes N\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("flag needs a value");
      }
      return argv[++i];
    };
    auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double parsed = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !(parsed >= 0)) {
        Usage("expected a non-negative number");
      }
      return parsed;
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(number(value()));
      seeded = true;
    } else if (arg == "--seconds") {
      options.seconds = number(value());
    } else if (arg == "--threads") {
      options.threads = static_cast<size_t>(number(value()));
    } else if (arg == "--json") {
      options.json_path = value();
    } else if (arg == "--trace") {
      options.trace_path = value();
    } else if (arg == "--tmp") {
      options.tmp_dir = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--issue-sizes") {
      options.issue_sizes = true;
    } else if (arg == "--probes") {
      options.probes = static_cast<size_t>(number(value()));
    } else {
      Usage("unknown flag");
    }
  }
  if (options.probes > 0) {
    return options;
  }
  if (options.smoke && options.issue_sizes) {
    Usage("--smoke and --issue-sizes exclude each other");
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), options.workload) ==
      std::end(kWorkloads)) {
    Usage("unknown or missing --workload");
  }
  if (!seeded) {
    Usage("missing --seed");
  }
  return options;
}

// The measured overhead, from the traced and untraced copies of every round
// (RunWorkload), both at reference speed: trace.overhead_pct compares their
// op_p50_ms, the workload's façade requests, where the spans are densest;
// the result and audit steps are compared beside it. Also beside it: the
// façade spans per traced round, and an estimate from the cost of one span
// on a throwaway tracer times those spans, as a share of the mean traced
// round.
void AddTraceOverhead(const Tracer& tracer, size_t facade_spans, const Options& options,
                      const Sizes& sizes, const Samples& untraced_samples, Report& report) {
  Report untraced;
  AddEndToEnd(options.workload, sizes, untraced_samples, untraced);
  for (const auto& [name, metric] : {std::pair{"trace.overhead_pct", "op_p50_ms"},
                                     {"trace.result_overhead_pct", "result_s"},
                                     {"trace.audit_overhead_pct", "audit_s"}}) {
    const Metric* with = report.Find(metric);
    const Metric* without = untraced.Find(metric);
    if (with != nullptr && without != nullptr && without->value > 0) {
      report.Add(name, 100.0 * (with->value / without->value - 1.0), "%");
    }
  }

  constexpr size_t kProbeSpans = 100000;
  Tracer probe;
  WallTimer timer;
  for (size_t i = 0; i < kProbeSpans; ++i) {
    Span span(&probe, "probe");
  }
  const double per_span_s = timer.Seconds() / kProbeSpans;
  const auto by_name = tracer.SecondsByName();
  const auto round = by_name.find("round");
  const double rounds = static_cast<double>(tracer.Count("round"));
  const double spans_per_round = rounds > 0 ? static_cast<double>(facade_spans) / rounds : 0.0;
  const double round_s =
      round == by_name.end() || rounds == 0 ? 0.0 : round->second.first / rounds;
  report.Add("trace.spans_per_round", spans_per_round, "count");
  report.Add("trace.span_ns", per_span_s * 1e9, "ns");
  report.Add("trace.estimated_overhead_pct",
             round_s > 0 ? 100.0 * per_span_s * spans_per_round / round_s : 0.0, "%");
  for (const auto& [name, seconds] : by_name) {
    report.Add("self." + name + "_s", seconds.second, "s");
  }
}

// --probes N: back-to-back readings of the host-drift probe and of the
// reference loop (host.h), for their own noise.
int PrintProbes(size_t probes) {
  WarmUp();
  for (size_t i = 0; i < probes; ++i) {
    std::printf("host.probe_ms %.6f ms\n", HostProbeMs());
    std::printf("reference_ns %.1f ns\n", ReferenceNs());
    std::fflush(stdout);
  }
  return 0;
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  if (options.probes > 0) {
    return PrintProbes(options.probes);
  }
  const size_t threads = options.threads != 0
                             ? options.threads
                             : std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  const std::string dir =
      options.tmp_dir + "/" + options.workload + "-" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } remove_on_exit{dir};

  Verdict verdict;
  Samples samples;
  Report report;
  std::unique_ptr<Tracer> tracer =
      options.trace_path.empty() ? nullptr : std::make_unique<Tracer>();
  RunContext ctx{options, SizesFor(options), threads, dir, tracer.get(), verdict, samples};

  try {
    WarmUp();
    const std::vector<double> steal_start = StealSeconds();
    WallTimer run;
    const double probe_start = HostProbeMs();
    if (tracer != nullptr) {
      MeasureCrypto(ctx, report);
    }
    Samples untraced_samples;
    LastRound last = RunWorkload(ctx, untraced_samples);
    const size_t facade_spans = tracer != nullptr ? tracer->spans() : 0;
    samples.AddTo(report);
    AddEndToEnd(options.workload, ctx.sizes, samples, report);
    if (tracer != nullptr) {
      std::unique_ptr<ElectionState> election = ReplayElection(ctx, last, report);
      ReplayTripAndBallots(ctx, options.workload == "revote", report);
      ReplayLedger(ctx, last, *election, report);
      ReplayTallyStages(ctx, *election, report);
      ReplayReplica(ctx, last, *election, report);
      AddTraceOverhead(*tracer, facade_spans, options, ctx.sizes, untraced_samples, report);
    }
    const double probe_end = HostProbeMs();
    report.Add("host.probe_start_ms", probe_start, "ms");
    report.Add("host.probe_end_ms", probe_end, "ms");
    report.Add("host.drift_pct", 100.0 * (probe_end / probe_start - 1.0), "%");
    // The share of the run's CPU time the hypervisor took, over every CPU,
    // and the timed steps left out because they lost a core.
    const std::vector<double> steal_end = StealSeconds();
    double stolen_s = 0.0;
    for (size_t i = 0; i < std::min(steal_start.size(), steal_end.size()); ++i) {
      stolen_s += steal_end[i] - steal_start[i];
    }
    report.Add("host.steal_pct",
               steal_end.empty() ? 0.0
                                 : 100.0 * stolen_s /
                                       (run.Seconds() * static_cast<double>(steal_end.size())),
               "%");
    report.Add("host.steps_left_out", static_cast<double>(samples.stolen()), "count");
  } catch (const std::exception& e) {
    verdict.Check(false, e.what());
  }
  report.Add("fail_ratio",
             verdict.attempted > 0
                 ? static_cast<double>(verdict.failed) / static_cast<double>(verdict.attempted)
                 : 0.0,
             "ratio");

  if (tracer != nullptr) {
    verdict.Check(tracer->WriteChromeJson(options.trace_path), "cannot write the --trace file");
  }
  const std::span<const std::string_view> names =
      tracer != nullptr ? std::span<const std::string_view>(kPerLayer)
                        : std::span<const std::string_view>(kEndToEnd);
  std::string line = ResultLine(report, names, verdict);
  if (!options.json_path.empty()) {
    RunRecord record = CollectRunRecord();
    record.workload = options.workload;
    record.seed = options.seed;
    record.threads = threads;
    record.seconds = options.seconds;
    record.sizes = options.smoke ? "smoke" : options.issue_sizes ? "issue" : "default";
    record.traced = tracer != nullptr;
    if (!WriteJsonResult(options.json_path, record, report, verdict)) {
      verdict.Check(false, "cannot write the --json file");
      line = ResultLine(report, names, verdict);
    }
  }
  report.PrintLines(stdout);
  if (!verdict.correct) {
    std::fprintf(stderr, "votegral_bench: check failed: %s\n", verdict.first_failure.c_str());
  }
  std::printf("%s\n", line.c_str());
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace votegral::bench

int main(int argc, char** argv) { return votegral::bench::Main(argc, argv); }
