#include "trace.h"

#include <cstdio>
#include <cstring>

namespace pb {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::intern(const char* name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t tick) {
  if (!enabled_) return 0;
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? 0 : open_.back();
  s.tick = tick;
  s.start_s = now_s();
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_s = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const char* name, std::uint64_t tick, double start_s,
                    double end_s) {
  if (!enabled_) return;
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? 0 : open_.back();
  s.tick = tick;
  s.start_s = start_s;
  s.end_s = end_s;
  spans_.push_back(s);
}

std::vector<Tracer::LayerRow> Tracer::layer_table() const {
  std::vector<LayerRow> rows(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) rows[i].name = names_[i];
  // Children of one span are sequential and nested inside it, so the part
  // of a span they cover is the sum of their durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_s[s.parent - 1] += s.end_s - s.start_s;
  }
  std::vector<std::vector<double>> span_ms(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerRow& r = rows[s.name];
    ++r.count;
    r.busy_s += s.end_s - s.start_s;
    r.self_s += s.end_s - s.start_s - child_s[i];
    span_ms[s.name].push_back((s.end_s - s.start_s) * 1e3);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].span_ms = quartiles(std::move(span_ms[i]));
  }
  return rows;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"layers\":[");
  const auto rows = layer_table();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"count\":%llu,\"busy_s\":%.9f,"
                 "\"self_s\":%.9f,\"span_ms_q1\":%.6f,\"span_ms_median\":%.6f,"
                 "\"span_ms_q3\":%.6f}",
                 i == 0 ? "" : ",", rows[i].name.c_str(),
                 static_cast<unsigned long long>(rows[i].count),
                 rows[i].busy_s, rows[i].self_s, rows[i].span_ms.q1,
                 rows[i].span_ms.q2, rows[i].span_ms.q3);
  }
  std::fprintf(f, "],\n\"spans\":[");
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"tick\":%llu,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}",
                 i == 0 ? "" : ",", i + 1, names_[s.name].c_str(), s.parent,
                 static_cast<unsigned long long>(s.tick), s.start_s - origin,
                 s.end_s - origin);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
