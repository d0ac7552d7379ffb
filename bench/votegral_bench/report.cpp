#include "bench/votegral_bench/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/common/stats.h"

extern char** environ;

namespace votegral::bench {

namespace {

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Full precision: the result line carries every digit measured.
std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ShellQuote(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return out + "'";
}

std::string GitHead() {
#ifdef VOTEGRAL_BENCH_SOURCE_DIR
  const std::filesystem::path source(VOTEGRAL_BENCH_SOURCE_DIR);
  // The ceiling stops git from walking above the source tree: a tree that is
  // not itself a checkout reports "unknown", not some enclosing repository.
  const std::string command = "GIT_CEILING_DIRECTORIES=" +
                              ShellQuote(source.parent_path().string()) + " git -C " +
                              ShellQuote(source.string()) + " rev-parse HEAD 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return "unknown";
  }
  char buf[128] = {};
  const bool read = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  const int status = ::pclose(pipe);
  std::string head = read ? std::string(buf) : std::string();
  while (!head.empty() && (head.back() == '\n' || head.back() == '\r')) {
    head.pop_back();
  }
  if (status == 0 && head.size() == 40) {
    return head;
  }
#endif
  return "unknown";
}

}  // namespace

void Report::Add(std::string_view name, double value, std::string_view unit, size_t samples) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = Metric{std::string(name), value, std::string(unit), samples};
      return;
    }
  }
  metrics_.push_back(Metric{std::string(name), value, std::string(unit), samples});
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

void Report::PrintLines(FILE* out) const {
  for (const Metric& metric : metrics_) {
    if (metric.samples > 0) {
      std::fprintf(out, "%s %.6g %s n=%zu\n", metric.name.c_str(), metric.value,
                   metric.unit.c_str(), metric.samples);
    } else {
      std::fprintf(out, "%s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
  }
}

void Verdict::Op(bool ok, std::string_view what) {
  ++attempted;
  if (!ok) {
    ++failed;
    Check(false, what);
  }
}

void Verdict::Check(bool ok, std::string_view what) {
  if (!ok && correct) {
    correct = false;
    first_failure = std::string(what);
  }
}

RunRecord CollectRunRecord() {
  RunRecord record;
  record.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (record.cpu_model.empty() && line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      record.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
    }
    if (line.rfind("flags", 0) == 0) {
      record.avx2 = record.avx2 || line.find(" avx2") != std::string::npos;
      record.avx512ifma = record.avx512ifma || line.find(" avx512ifma") != std::string::npos;
    }
  }
  for (char** entry = environ; entry != nullptr && *entry != nullptr; ++entry) {
    const std::string_view text(*entry);
    if (text.rfind("VOTEGRAL_SIMD=", 0) == 0 || text.rfind("VOTEGRAL_X4_", 0) == 0) {
      const size_t eq = text.find('=');
      record.env.emplace_back(std::string(text.substr(0, eq)), std::string(text.substr(eq + 1)));
    }
  }
#ifdef NDEBUG
  record.ndebug = true;
#endif
#ifdef __OPTIMIZE__
  record.optimized = true;
#endif
  record.compiler = __VERSION__;
  record.git_head = GitHead();
  return record;
}

bool WriteJsonResult(const std::string& path, const RunRecord& record, const Report& report,
                     const Verdict& verdict) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::string env = "{";
  for (size_t i = 0; i < record.env.size(); ++i) {
    env += (i ? ", " : "") + JsonString(record.env[i].first) + ": " +
           JsonString(record.env[i].second);
  }
  env += "}";
  std::fprintf(out,
               "{\n  \"run\": {\"nproc\": %u, \"cpu_model\": %s, \"avx2\": %s, "
               "\"avx512ifma\": %s, \"env\": %s, \"ndebug\": %s, \"optimized\": %s, "
               "\"compiler\": %s, \"git_head\": %s, \"workload\": %s, \"seed\": %llu, "
               "\"threads\": %zu, \"seconds\": %s, \"sizes\": %s, \"traced\": %s},\n",
               record.nproc, JsonString(record.cpu_model).c_str(), record.avx2 ? "true" : "false",
               record.avx512ifma ? "true" : "false", env.c_str(),
               record.ndebug ? "true" : "false", record.optimized ? "true" : "false",
               JsonString(record.compiler).c_str(), JsonString(record.git_head).c_str(),
               JsonString(record.workload).c_str(), static_cast<unsigned long long>(record.seed),
               record.threads, JsonNumber(record.seconds).c_str(),
               JsonString(record.sizes).c_str(), record.traced ? "true" : "false");
  std::fprintf(out, "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               verdict.correct ? "true" : "false",
               static_cast<unsigned long long>(verdict.attempted),
               static_cast<unsigned long long>(verdict.failed));
  std::fprintf(out, "  \"metrics\": {\n");
  const auto& metrics = report.metrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(out, "    %s: {\"value\": %s, \"unit\": %s", JsonString(m.name).c_str(),
                 std::isfinite(m.value) ? JsonNumber(m.value).c_str() : "null",
                 JsonString(m.unit).c_str());
    if (m.samples > 0) {
      std::fprintf(out, ", \"n\": %zu", m.samples);
    }
    std::fprintf(out, "}%s\n", i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  return std::fclose(out) == 0;
}

std::string ResultLine(const Report& report, std::span<const std::string_view> names,
                       Verdict& verdict) {
  std::string metrics;
  for (std::string_view name : names) {
    const Metric* m = report.Find(name);
    if (m == nullptr || !std::isfinite(m->value)) {
      verdict.Check(false, "metric not measured: " + std::string(name));
      continue;
    }
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(m->value) +
               ", \"unit\": " + JsonString(m->unit) + "}";
  }
  return std::string("{\"correct\": ") + (verdict.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(verdict.attempted) +
         ", \"failed\": " + std::to_string(verdict.failed) + ", \"metrics\": {" + metrics + "}}";
}

double Quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : Percentile(std::move(values), q * 100.0);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

}  // namespace votegral::bench
