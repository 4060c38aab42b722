// In-memory span recorder for the traced run. The benchmark wraps its calls
// into each library layer (sparse, tuner, kernels, engine, machine) in a
// Scope; every span keeps its name, start, end, the span open around it
// (parent) and numeric attributes, under one run id. Spans stay in memory
// and are written out when the run ends. A disabled recorder records
// nothing, so the untraced runs pay no tracing cost.
#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  std::string name;
  double start_s = 0.0;  // seconds since the recorder was created
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> attrs;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
  /// Attribute value, or 0 when the span has none by that name.
  [[nodiscard]] double attr(std::string_view key) const;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::string run_id);

  /// RAII span: opens on construction, closes on destruction. Spans are
  /// opened and closed by one thread, innermost first.
  class Scope {
   public:
    Scope(SpanRecorder* rec, int id) : rec_(rec), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (id_ >= 0) rec_->close(id_);
    }
    void attr(std::string key, double value) const {
      if (id_ >= 0) rec_->add_attr(id_, std::move(key), value);
    }

   private:
    SpanRecorder* rec_;
    int id_;
  };

  [[nodiscard]] Scope scope(std::string name);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::string& run_id() const { return run_id_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Closed spans with this name, in start order.
  [[nodiscard]] std::vector<const Span*> named(std::string_view name) const;
  /// One JSON object per span per line.
  void write_jsonl(std::ostream& os) const;

 private:
  void close(int id);
  void add_attr(int id, std::string key, double value);
  [[nodiscard]] double now() const;

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

}  // namespace perfbench
