// The figure benches' shared harness: `--name value` flags, a scratch
// directory, and one output shape. A bench reads its flags, runs, hands each
// result table over as flat typed rows and records its pass/fail criteria.
// Finish() writes BENCH_<name>.json as
//
//   {"bench": name, "host": {...}, "config": {...},
//    "tables": {"table": [row, ...], ...}, "checks": {"check": bool, ...}}
//
// and only then fails the run on the first failed check, so a failing run
// still leaves its numbers behind. Config values and row cells are numbers,
// strings or booleans; every flag read lands in config under its name.
// tools/check_bench_json.py validates the shape (docs/BENCHMARKS.md §One
// output shape).
#ifndef BENCH_FIGURE_BENCH_H_
#define BENCH_FIGURE_BENCH_H_

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/ledger/store.h"

namespace votegral::figure {

using Value = std::variant<bool, uint64_t, double, std::string>;
using Row = std::vector<std::pair<std::string, Value>>;

// Median and quartiles of `repetitions` timed runs of `body`, in seconds,
// after one untimed warm-up run (quartiles interpolate between order
// statistics).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Spread TimeRepeated(size_t repetitions, const std::function<void()>& body) {
  Require(repetitions > 0, "figure bench: no repetitions");
  body();
  std::vector<double> seconds;
  for (size_t r = 0; r < repetitions; ++r) {
    WallTimer timer;
    body();
    seconds.push_back(timer.Seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  auto at = [&](double p) {
    const double position = p * static_cast<double>(seconds.size() - 1);
    const size_t lo = static_cast<size_t>(position);
    const size_t hi = std::min(lo + 1, seconds.size() - 1);
    return seconds[lo] + (position - static_cast<double>(lo)) * (seconds[hi] - seconds[lo]);
  };
  return Spread{at(0.5), at(0.25), at(0.75)};
}

// The O(segment) bound on the ledger bytes a tally over `store` pins at up
// to `threads` threads: (threads + 2) x 2 segments, each what one Pin() of a
// sealed segment holds (its whole file, header and frames, read in one
// call). An unsealed tail is pinned as views of memory and holds nothing.
inline uint64_t PinnedSegmentBound(const FileLedgerStore& store, size_t threads) {
  uint64_t pin = 0;
  for (uint64_t s = 0; s < store.SegmentCount(); ++s) {
    pin = std::max<uint64_t>(pin, std::filesystem::file_size(store.SegmentPath(s)));
  }
  return (threads + 2) * 2 * pin;
}

class Bench {
 public:
  // `name` names the output file, BENCH_<name>.json.
  Bench(std::string name, int argc, char** argv)
      : name_(std::move(name)), program_(argv[0]), args_(argv + 1, argv + argc),
        read_(args_.size(), false) {}
  ~Bench() { RemoveScratch(); }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Flag readers: `--flag value`, or a bare `--flag` for Switch. A missing
  // flag yields the fallback; a malformed value, or a count that is not
  // positive, yields it too and makes RejectUnreadFlags exit.
  uint64_t Count(const std::string& flag, uint64_t fallback) {
    return ReadCounts(flag, {fallback}, /*list=*/false)[0];
  }
  std::vector<uint64_t> Counts(const std::string& flag, std::vector<uint64_t> fallback) {
    return ReadCounts(flag, std::move(fallback), /*list=*/true);
  }
  double Number(const std::string& flag, double fallback) {
    double value = fallback;
    if (const char* text = Find(flag, Text(fallback, false))) {
      char* end = nullptr;
      value = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(value)) {
        malformed_ = true;
        value = fallback;
      }
    }
    Config(flag.substr(2), value);
    return value;
  }
  bool Switch(const std::string& flag) {
    usage_ += " [" + flag + "]";
    bool on = false;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!read_[i] && args_[i] == flag) {
        read_[i] = true;
        on = true;
        break;
      }
    }
    Config(flag.substr(2), on);
    return on;
  }
  // Call after the last flag reader: a malformed value or an argument left
  // unread exits with the usage line, before the run starts.
  void RejectUnreadFlags() {
    if (malformed_ || std::find(read_.begin(), read_.end(), false) != read_.end()) {
      Usage();
    }
  }

  // A fresh directory named after the bench and this process, removed when
  // the bench object goes, so concurrent runs never share one.
  const std::filesystem::path& Scratch() {
    if (scratch_.empty()) {
      scratch_ = std::filesystem::temp_directory_path() /
                 ("votegral-" + name_ + "-" + std::to_string(::getpid()));
      std::filesystem::remove_all(scratch_);
      std::filesystem::create_directories(scratch_);
    }
    return scratch_;
  }

  // A setting of the run that is not a flag.
  void Config(const std::string& key, Value value) {
    Require(IsFinite(value), "figure bench: config value is not finite");
    config_.emplace_back(key, std::move(value));
  }

  // Prints `rows` as a table and keeps them for the JSON. Every row has the
  // keys of the first, in the same order.
  void Table(const std::string& name, std::vector<Row> rows) {
    Require(!rows.empty(), "figure bench: empty table");
    TextTable text(name_ + ": " + name);
    std::vector<std::string> header;
    for (const auto& [key, value] : rows[0]) {
      header.push_back(key);
    }
    text.SetHeader(header);
    for (const Row& row : rows) {
      Require(row.size() == header.size(), "figure bench: row width differs from the first");
      std::vector<std::string> cells;
      for (size_t c = 0; c < row.size(); ++c) {
        Require(row[c].first == header[c], "figure bench: row keys differ from the first");
        Require(IsFinite(row[c].second), "figure bench: table value is not finite");
        cells.push_back(Text(row[c].second, false));
      }
      text.AddRow(std::move(cells));
    }
    std::printf("%s\n", text.Format().c_str());
    tables_.emplace_back(name, std::move(rows));
  }

  // A pass/fail criterion of the run. Checks of one name are one criterion,
  // passed when every call passed; a failed one raises the `failure` of its
  // first failing call once the JSON is written.
  void Check(const std::string& name, bool ok, const char* failure) {
    for (CheckRecord& check : checks_) {
      if (check.name == name) {
        if (check.ok && !ok) {
          check = {name, ok, failure};
        }
        return;
      }
    }
    checks_.push_back({name, ok, failure});
  }

  // Writes BENCH_<name>.json into the working directory, removes the
  // scratch directory, then Requires every check in the order they were
  // first recorded.
  void Finish() {
    const std::string path = "BENCH_" + name_ + ".json";
    FILE* json = std::fopen(path.c_str(), "w");
    Require(json != nullptr, "figure bench: cannot write the JSON output");
    std::fprintf(json, "{\n  \"bench\": %s,\n  \"host\": %s,\n  \"config\": %s,\n",
                 Quote(name_).c_str(), Object(Host()).c_str(), Object(config_).c_str());
    std::fprintf(json, "  \"tables\": {");
    for (size_t t = 0; t < tables_.size(); ++t) {
      std::fprintf(json, "%s\n    %s: [", t == 0 ? "" : ",", Quote(tables_[t].first).c_str());
      const std::vector<Row>& rows = tables_[t].second;
      for (size_t r = 0; r < rows.size(); ++r) {
        std::fprintf(json, "%s\n      %s", r == 0 ? "" : ",", Object(rows[r]).c_str());
      }
      std::fprintf(json, "\n    ]");
    }
    Row checks;
    for (const CheckRecord& check : checks_) {
      std::printf("check %s: %s\n", check.name.c_str(), check.ok ? "pass" : "FAIL");
      checks.emplace_back(check.name, check.ok);
    }
    std::fprintf(json, "\n  },\n  \"checks\": %s\n}\n", Object(checks).c_str());
    Require(std::fclose(json) == 0, "figure bench: cannot write the JSON output");
    std::printf("Wrote %s\n", path.c_str());
    RemoveScratch();
    for (const CheckRecord& check : checks_) {
      Require(check.ok, check.failure);
    }
  }

 private:
  struct CheckRecord {
    std::string name;
    bool ok;
    const char* failure;
  };

  // One positive count, or a comma-separated list of them when `list`.
  std::vector<uint64_t> ReadCounts(const std::string& flag, std::vector<uint64_t> values,
                                   bool list) {
    std::string shown;
    for (uint64_t value : values) {
      shown += shown.empty() ? "" : ",";
      shown += std::to_string(value);
    }
    if (const char* text = Find(flag, shown)) {
      std::vector<uint64_t> parsed;
      for (const char* p = text; *p != '\0' && !malformed_;) {
        char* end = nullptr;
        const uint64_t value = std::strtoull(p, &end, 10);
        malformed_ = end == p || *p == '-' || value == 0 || (*end != '\0' && *end != ',') ||
                     (*end == ',' && (!list || end[1] == '\0'));
        parsed.push_back(value);
        p = *end == ',' ? end + 1 : end;
      }
      if (!malformed_) {
        values = std::move(parsed);
        shown = text;
      }
    }
    Config(flag.substr(2), list ? Value(shown) : Value(values[0]));
    return values;
  }

  // The value after the first unread `flag`, or nullptr when it is absent.
  const char* Find(const std::string& flag, const std::string& fallback) {
    usage_ += " [" + flag + " " + fallback + "]";
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!read_[i] && args_[i] == flag) {
        read_[i] = true;
        if (i + 1 == args_.size()) {
          malformed_ = true;
          return nullptr;
        }
        read_[i + 1] = true;
        return args_[i + 1].c_str();
      }
    }
    return nullptr;
  }

  void RemoveScratch() {
    if (!scratch_.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(scratch_, ignored);
      scratch_.clear();
    }
  }

  [[noreturn]] void Usage() const {
    std::fprintf(stderr, "usage: %s%s\n", program_.c_str(), usage_.c_str());
    std::exit(2);
  }

  static bool IsFinite(const Value& value) {
    return !std::holds_alternative<double>(value) || std::isfinite(std::get<double>(value));
  }

  // One value as JSON text (doubles to nine significant digits), or as the
  // printed table shows it (four digits, strings unquoted).
  static std::string Text(const Value& value, bool json) {
    if (const std::string* text = std::get_if<std::string>(&value)) {
      return json ? Quote(*text) : *text;
    }
    if (const double* d = std::get_if<double>(&value)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), json ? "%.9g" : "%.4g", *d);
      return buf;
    }
    if (const bool* b = std::get_if<bool>(&value)) {
      return *b ? "true" : "false";
    }
    return std::to_string(std::get<uint64_t>(value));
  }

  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (unsigned char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += static_cast<char>(c);
      } else if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += static_cast<char>(c);
      }
    }
    return out + "\"";
  }

  static std::string Object(const Row& row) {
    std::string out = "{";
    for (size_t i = 0; i < row.size(); ++i) {
      out += (i == 0 ? "" : ", ") + Quote(row[i].first) + ": " + Text(row[i].second, true);
    }
    return out + "}";
  }

  // The machine and build that produced the numbers.
  static Row Host() {
    std::string cpu_model = "unknown";
    bool avx2 = false;
    bool avx512ifma = false;
    bool sha_ni = false;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
      if (cpu_model == "unknown" && line.rfind("model name", 0) == 0) {
        cpu_model = line.substr(std::min(line.size(), line.find(':') + 2));
      }
      if (line.rfind("flags", 0) == 0) {
        line += ' ';
        avx2 = avx2 || line.find(" avx2 ") != std::string::npos;
        avx512ifma = avx512ifma || line.find(" avx512ifma ") != std::string::npos;
        sha_ni = sha_ni || line.find(" sha_ni ") != std::string::npos;
      }
    }
    bool ndebug = false;
    bool optimized = false;
#ifdef NDEBUG
    ndebug = true;
#endif
#ifdef __OPTIMIZE__
    optimized = true;
#endif
    return {{"nproc", uint64_t{std::thread::hardware_concurrency()}},
            {"cpu_model", cpu_model},
            {"avx2", avx2},
            {"avx512ifma", avx512ifma},
            {"sha_ni", sha_ni},
            {"ndebug", ndebug},
            {"optimized", optimized},
            {"compiler", std::string(__VERSION__)},
            {"git_head", GitHead()}};
  }

  // The source tree's HEAD commit, suffixed "-dirty" when a tracked file
  // other than a BENCH_*.json differs from it, or "unknown" outside a git
  // checkout. The ceiling stops git from walking above the source tree.
  static std::string GitHead() {
#ifdef VOTEGRAL_SOURCE_DIR
    const std::filesystem::path source(VOTEGRAL_SOURCE_DIR);
    const std::string git = "GIT_CEILING_DIRECTORIES='" + source.parent_path().string() +
                            "' git -C '" + source.string() + "' ";
    const std::string head = Shell(git + "rev-parse HEAD 2>/dev/null");
    if (head.size() == 41) {
      const bool dirty = !Shell(git + "status --porcelain --untracked-files=no -- . " +
                                "':!BENCH_*.json' 2>/dev/null")
                              .empty();
      return head.substr(0, 40) + (dirty ? "-dirty" : "");
    }
#endif
    return "unknown";
  }

  static std::string Shell(const std::string& command) {
    std::string out;
    if (FILE* pipe = ::popen(command.c_str(), "r")) {
      char buf[256];
      while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        out += buf;
      }
      if (::pclose(pipe) != 0) {
        out.clear();
      }
    }
    return out;
  }

  std::string name_;
  std::string program_;
  std::vector<std::string> args_;
  std::vector<bool> read_;
  bool malformed_ = false;
  std::string usage_;
  std::filesystem::path scratch_;
  Row config_;
  std::vector<std::pair<std::string, std::vector<Row>>> tables_;
  std::vector<CheckRecord> checks_;
};

}  // namespace votegral::figure

#endif  // BENCH_FIGURE_BENCH_H_
