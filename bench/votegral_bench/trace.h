// Span recording for the traced run of votegral_bench.
//
// Spans are opened by the benchmark around its own calls into each layer
// (the program itself carries no spans), kept in memory, and written once
// at exit as Chrome trace-event JSON ("ph": "X" complete events), which
// Perfetto and chrome://tracing load directly. Each event carries its id,
// its parent's id and its self time: duration minus the time its child
// spans cover. Spans nest on the recording thread only, so children never
// overlap and self time is duration minus the sum of child durations.
//
// A null Tracer* turns every Span into a pointer test: the untraced run,
// which produces the end-to-end metrics, records nothing.
#ifndef BENCH_VOTEGRAL_BENCH_TRACE_H_
#define BENCH_VOTEGRAL_BENCH_TRACE_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace votegral::bench {

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  size_t Begin(std::string_view name) {
    const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    events_.push_back(Event{std::string(name), NowUs(), -1.0, parent});
    open_.push_back(events_.size() - 1);
    return events_.size() - 1;
  }

  void End(size_t id) {
    events_[id].end_us = NowUs();
    if (!open_.empty() && open_.back() == id) {
      open_.pop_back();
    }
  }

  size_t spans() const { return events_.size(); }

  size_t Count(std::string_view name) const {
    size_t n = 0;
    for (const Event& e : events_) {
      n += e.name == name ? 1 : 0;
    }
    return n;
  }

  // Self time per span, in microseconds.
  std::vector<double> SelfUs() const {
    std::vector<double> self(events_.size());
    for (size_t i = 0; i < events_.size(); ++i) {
      self[i] += Duration(i);
      if (events_[i].parent >= 0) {
        self[static_cast<size_t>(events_[i].parent)] -= Duration(i);
      }
    }
    return self;
  }

  // Total and self seconds summed by span name.
  std::map<std::string, std::pair<double, double>> SecondsByName() const {
    std::map<std::string, std::pair<double, double>> out;
    const std::vector<double> self = SelfUs();
    for (size_t i = 0; i < events_.size(); ++i) {
      out[events_[i].name].first += Duration(i) * 1e-6;
      out[events_[i].name].second += self[i] * 1e-6;
    }
    return out;
  }

  bool WriteChromeJson(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    const std::vector<double> self = SelfUs();
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %ld, \"self_us\": %.3f}}%s\n",
                   e.name.c_str(), e.begin_us, Duration(i), i, e.parent, self[i],
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Event {
    std::string name;
    double begin_us = 0.0;
    double end_us = -1.0;  // -1 while open
    long parent = -1;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
        .count();
  }
  double Duration(size_t i) const {
    return events_[i].end_us < 0 ? 0.0 : events_[i].end_us - events_[i].begin_us;
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Event> events_;
  std::vector<size_t> open_;
};

class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

}  // namespace votegral::bench

#endif  // BENCH_VOTEGRAL_BENCH_TRACE_H_
