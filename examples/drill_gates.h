// Shared gate registration and checks for the drill examples.
//
// Every drill that doubles as a ctest gate grew the same ad-hoc argv
// scan: `--churn-gate` runs only the restart-storm drill, and so on. This
// header is that pattern, once: a drill declares its gates as a static
// table of (flag, runner) and hands main() to dispatch_gates. An
// unrecognized (or absent) argument falls through to the full drill, so
// `./drill` with no flags keeps its historical behavior.
#pragma once

#include <cstdio>
#include <cstring>
#include <set>
#include <span>
#include <string>

#include "core/forensic.h"
#include "obs/recorder.h"

namespace skh::examples {

/// Bundle ownership, as the forensic and silent-hang gates require it: no
/// two reported cases share an id, and the bundle filed under each case's
/// id names that case. Prints each violation; true when there is none. A
/// case with no bundle at all is the caller's check.
inline bool bundles_owned(std::span<const core::FailureCase> cases,
                          const obs::FlightRecorder& rec) {
  bool ok = true;
  std::set<std::uint32_t> ids;
  for (const auto& c : cases) {
    if (!ids.insert(c.id).second) {
      std::printf("  case %u: ID SHARED WITH ANOTHER CASE\n", c.id);
      ok = false;
    }
    const std::string* bundle = rec.bundle_of(c.id);
    if (bundle != nullptr && !core::bundle_names_case(*bundle, c)) {
      std::printf("  case %u: BUNDLE NAMES ANOTHER CASE\n", c.id);
      ok = false;
    }
  }
  return ok;
}

/// One CLI-selectable gate: the ctest entry's flag and the drill it runs.
struct Gate {
  const char* flag;  ///< e.g. "--churn-gate"
  int (*run)();      ///< returns the process exit code
};

/// Run the gate matching argv[1], or `full_drill` when no gate matches.
inline int dispatch_gates(int argc, char** argv, std::span<const Gate> gates,
                          int (*full_drill)()) {
  if (argc > 1) {
    for (const auto& g : gates) {
      if (std::strcmp(argv[1], g.flag) == 0) return g.run();
    }
  }
  return full_drill();
}

}  // namespace skh::examples
