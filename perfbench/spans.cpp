#include "spans.hpp"

#include "obs/json.hpp"

namespace perfbench {

double Span::attr(std::string_view key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return 0.0;
}

SpanRecorder::SpanRecorder(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

SpanRecorder::Scope SpanRecorder::scope(std::string name) {
  if (!enabled_) return Scope{this, -1};
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.name = std::move(name);
  s.start_s = now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return Scope{this, spans_.back().id};
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::add_attr(int id, std::string key, double value) {
  spans_[static_cast<std::size_t>(id)].attrs.emplace_back(std::move(key), value);
}

std::vector<const Span*> SpanRecorder::named(std::string_view name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s >= s.start_s) out.push_back(&s);
  }
  return out;
}

void SpanRecorder::write_jsonl(std::ostream& os) const {
  namespace json = sparta::obs::json;
  for (const Span& s : spans_) {
    std::string line = "{\"type\":\"span\",\"run\":";
    json::append_quoted(line, run_id_);
    line += ",\"id\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
            ",\"name\":";
    json::append_quoted(line, s.name);
    line += ",\"start_s\":";
    json::append_number(line, s.start_s);
    line += ",\"end_s\":";
    json::append_number(line, s.end_s);
    line += ",\"attrs\":{";
    for (std::size_t i = 0; i < s.attrs.size(); ++i) {
      if (i != 0) line.push_back(',');
      json::append_quoted(line, s.attrs[i].first);
      line.push_back(':');
      json::append_number(line, s.attrs[i].second);
    }
    line += "}}\n";
    os << line;
  }
}

}  // namespace perfbench
