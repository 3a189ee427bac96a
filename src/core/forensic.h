// Forensic bundle: the self-contained JSON artifact emitted for every
// failure case, assembled from the case and the flight recorder's per-pair
// window rings at the moment the case opens and finalized when it closes.
//
// A bundle is what an on-call engineer gets attached to the ticket: the
// case identity and verdict, its causal timeline, the offending pairs'
// recent closed-window summaries (with LOF / z scores), the anomaly events
// that fed the case, the localization votes with their evidence source and
// weight (from the case: it is the only vote store), the recorder's
// dropped-record accounting (so wrapped history is visible, never silent),
// and a registry snapshot of counters/gauges at emission time. It parses as standard JSON (see obs/json_lint.h) and
// needs nothing else from the campaign to be interpreted.
#pragma once

#include <string>
#include <string_view>

#include "core/sharded_detector.h"
#include "core/skeleton_hunter.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace skh::core {

/// Build the forensic bundle JSON for one failure case.
///
/// `recorder` supplies per-pair window history and drop accounting; pass
/// nullptr for a bundle with an empty window section (recorder disabled).
/// Events, collective evidence and votes come from the case itself.
/// `metrics` is the registry snapshot embedded under "metrics"; nullptr
/// omits the section body. `detector` resolves pair -> stable gid for the
/// recorder's per-pair window rings; pairs the detector no longer knows
/// get an empty window list.
[[nodiscard]] std::string forensic_bundle_json(
    const FailureCase& c, const ShardedDetector& detector,
    const obs::FlightRecorder* recorder, const obs::MetricsSnapshot* metrics);

/// Whether `bundle` belongs to `c`: its case object carries c's id, task,
/// first_event and class exactly as forensic_bundle_json renders them. A
/// bundle fetched by case id that fails this names some other case.
[[nodiscard]] bool bundle_names_case(std::string_view bundle,
                                     const FailureCase& c);

}  // namespace skh::core
