// Bench-side spans for the traced run.
//
// Spans are recorded only around calls the benchmark itself makes into the
// program's public entry points — never inside the program — and kept in
// memory until the run ends, when they are written out together with a
// per-layer table (count, busy time, self time = span minus its children).
// A disabled tracer records nothing and costs one branch per scope, but the
// end-to-end figures are still taken from untraced runs only.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace pb {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
[[nodiscard]] double now_s();

class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;    ///< index into names()
    std::uint32_t parent = 0;  ///< 1-based index of the parent span; 0 = root
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t tick = 0;    ///< probe round the span belongs to
  };

  struct LayerRow {
    std::string name;
    std::uint64_t count = 0;
    double busy_s = 0.0;  ///< summed span durations
    double self_s = 0.0;  ///< busy minus the time covered by child spans
    Quartiles span_ms;    ///< quartiles of single span durations
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span under the innermost open span. Returns its 1-based id
  /// (0 when disabled).
  std::uint32_t begin(const char* name, std::uint64_t tick);
  /// Close span `id` (must be the innermost open span).
  void end(std::uint32_t id);
  /// Record an already-timed span under the innermost open span.
  void record(const char* name, std::uint64_t tick, double start_s,
              double end_s);

  /// RAII scope: begin on construction, end on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t tick)
        : t_(t), id_(t.begin(name, tick)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t id_;
  };

  /// Per-name aggregate, in first-seen name order.
  [[nodiscard]] std::vector<LayerRow> layer_table() const;

  /// Write spans and the layer table as one JSON document. Returns false
  /// when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::uint32_t intern(const char* name);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span ids
};

}  // namespace pb
