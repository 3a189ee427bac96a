#include "core/forensic.h"

#include <cstdio>

#include "common/flat_table.h"
#include "obs/json_lint.h"
#include "sim/fault.h"

namespace skh::core {

namespace {

void append_key(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\":";
}

// json_append_escaped emits the surrounding quotes itself.
void append_string(std::string& out, std::string_view s) {
  obs::json_append_escaped(out, s);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_time(std::string& out, SimTime t) {
  obs::json_append_number(out, t.to_seconds());
}

void append_window(std::string& out, const obs::WindowRecord& w) {
  out += "{\"start\":";
  append_time(out, w.start);
  out += ",\"end\":";
  append_time(out, w.end);
  out += ",\"sent\":";
  append_u64(out, w.sent);
  out += ",\"lost\":";
  append_u64(out, w.lost);
  out += ",\"p50_us\":";
  obs::json_append_number(out, w.p50_us);
  out += ",\"score\":";
  obs::json_append_number(out, w.score);
  out += ",\"flags\":";
  append_u64(out, w.flags);
  out += '}';
}

/// The bundle's opening bytes up to the first_event value and the key
/// after it: `{"case":{"id":..,"task":..,"first_event":..,"last_event":`.
void append_identity(std::string& out, const FailureCase& c) {
  out += "{\"case\":{\"id\":";
  append_u64(out, c.id);
  out += ",\"task\":";
  append_u64(out, c.task.value());
  out += ",\"first_event\":";
  append_time(out, c.first_event);
  out += ",\"last_event\":";
}

void append_class(std::string& out, const FailureCase& c) {
  out += ",\"class\":";
  append_string(out, to_string(c.cls));
}

}  // namespace

std::string forensic_bundle_json(const FailureCase& c,
                                 const ShardedDetector& detector,
                                 const obs::FlightRecorder* recorder,
                                 const obs::MetricsSnapshot* metrics) {
  std::string out;
  out.reserve(4096);

  // --- case identity & verdict ---------------------------------------------
  append_identity(out, c);
  append_time(out, c.last_event);
  out += ",\"closed\":";
  out += c.closed ? "true" : "false";
  out += ",\"closed_at\":";
  append_time(out, c.closed ? c.closed_at : c.last_event);
  append_class(out, c);
  out += ",\"method\":";
  append_string(out, to_string(c.localization.method));
  out += ",\"confidence\":";
  obs::json_append_number(out, c.localization.confidence);
  out += ",\"culprits\":[";
  for (std::size_t i = 0; i < c.localization.culprits.size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, sim::to_string(c.localization.culprits[i]));
  }
  out += "],\"pairs\":[";
  {
    bool first = true;
    for (const auto& p : c.pairs) {
      if (!first) out += ',';
      first = false;
      append_string(out, skh::to_string(p));
    }
  }
  out += "]},";

  // --- causal timeline ------------------------------------------------------
  append_key(out, "timeline");
  out += '[';
  for (std::size_t i = 0; i < c.timeline.entries.size(); ++i) {
    const auto& e = c.timeline.entries[i];
    if (i > 0) out += ',';
    out += "{\"at\":";
    append_time(out, e.at);
    out += ",\"stage\":";
    append_string(out, e.stage);
    out += ",\"detail\":";
    append_string(out, e.detail);
    out += ",\"value\":";
    obs::json_append_number(out, e.value);
    out += '}';
  }
  out += "],";

  // --- anomaly events that fed the case ------------------------------------
  append_key(out, "events");
  out += '[';
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    const auto& e = c.events[i];
    if (i > 0) out += ',';
    out += "{\"pair\":";
    append_string(out, skh::to_string(e.pair));
    out += ",\"at\":";
    append_time(out, e.detected_at);
    out += ",\"kind\":";
    append_string(out, to_string(e.kind));
    out += ",\"score\":";
    obs::json_append_number(out, e.score);
    out += '}';
  }
  out += "],";

  // --- collective signal plane evidence -------------------------------------
  // The verdicts themselves for a network-silent case, cross-plane
  // corroboration for a probe-plane case (agreements > 0 then).
  append_key(out, "collective");
  out += "{\"agreements\":";
  append_u64(out, c.collective_agreements);
  out += ",\"verdicts\":[";
  for (std::size_t i = 0; i < c.collective_evidence.size(); ++i) {
    const auto& v = c.collective_evidence[i];
    if (i > 0) out += ',';
    out += "{\"kind\":";
    append_string(out, collective::to_string(v.kind));
    out += ",\"group\":";
    append_u64(out, v.group);
    out += ",\"iteration\":";
    append_u64(out, v.iteration);
    out += ",\"step\":";
    append_u64(out, v.step);
    out += ",\"root_rank\":";
    append_u64(out, v.root_rank);
    out += ",\"root\":";
    append_string(out, skh::to_string(v.root));
    out += ",\"waiters\":[";
    for (std::size_t j = 0; j < v.waiters.size(); ++j) {
      if (j > 0) out += ',';
      append_string(out, skh::to_string(v.waiters[j]));
    }
    out += "],\"at\":";
    append_time(out, v.detected_at);
    out += ",\"severity\":";
    obs::json_append_number(out, v.severity);
    out += '}';
  }
  out += "]},";

  // --- per-pair recent windows from the flight recorder ---------------------
  append_key(out, "windows");
  out += '{';
  if (recorder != nullptr) {
    bool first_pair = true;
    for (const auto& p : c.pairs) {
      const auto gid = detector.find_handle(p);
      std::vector<obs::WindowRecord> ws;
      if (gid != common::FlatPairTable::kNoSlot) {
        ws = recorder->windows_of(gid, p);
      }
      if (!first_pair) out += ',';
      first_pair = false;
      append_string(out, skh::to_string(p));
      out += ":[";
      for (std::size_t i = 0; i < ws.size(); ++i) {
        if (i > 0) out += ',';
        append_window(out, ws[i]);
      }
      out += ']';
    }
  }
  out += "},";

  // --- localization votes ---------------------------------------------------
  // The case is the only vote store: empty until the case closes.
  append_key(out, "votes");
  out += '[';
  for (std::size_t i = 0; i < c.localization.votes.size(); ++i) {
    const auto& v = c.localization.votes[i];
    if (i > 0) out += ',';
    out += "{\"component\":";
    append_string(out, sim::to_string(v.component));
    out += ",\"weight\":";
    obs::json_append_number(out, v.weight);
    out += ",\"source\":";
    append_string(out, v.source);
    out += '}';
  }
  out += "],";

  // --- recorder drop accounting ---------------------------------------------
  append_key(out, "recorder");
  out += "{\"enabled\":";
  out += (recorder != nullptr && recorder->enabled()) ? "true" : "false";
  if (recorder != nullptr) {
    out += ",\"window_drops\":";
    append_u64(out, recorder->window_drops());
    out += ",\"event_drops\":";
    append_u64(out, recorder->event_drops());
    out += ",\"bundle_drops\":";
    append_u64(out, recorder->bundle_drops());
  }
  out += "},";

  // --- registry snapshot (counters + gauges; histograms live in the scrape) -
  append_key(out, "metrics");
  out += "{\"counters\":{";
  if (metrics != nullptr) {
    for (std::size_t i = 0; i < metrics->counters.size(); ++i) {
      if (i > 0) out += ',';
      append_string(out, metrics->counters[i].name);
      out += ':';
      append_u64(out, metrics->counters[i].value);
    }
  }
  out += "},\"gauges\":{";
  if (metrics != nullptr) {
    for (std::size_t i = 0; i < metrics->gauges.size(); ++i) {
      if (i > 0) out += ',';
      append_string(out, metrics->gauges[i].name);
      out += ':';
      obs::json_append_number(out, metrics->gauges[i].value);
    }
  }
  out += "}}}";
  return out;
}

bool bundle_names_case(std::string_view bundle, const FailureCase& c) {
  std::string identity;
  append_identity(identity, c);
  std::string cls;
  append_class(cls, c);
  return bundle.starts_with(identity) &&
         bundle.find(cls) != std::string_view::npos;
}

}  // namespace skh::core
