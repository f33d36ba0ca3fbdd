// Known-good fixture for the raw-counter rule: quantities that are not
// tallies, a waived legacy counter, and registry-backed instrumentation.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace moptel {
class Counter;
}

struct CleanStats {
  uint64_t bytes_sent_ = 0;
  uint64_t last_seq_ = 0;
  // Legacy tally kept for wire compatibility, explicitly waived:
  uint64_t legacy_frames_count_ = 0;  // moplint-allow: raw-counter
  // A peak gauge a lower layer can't register (layering), explicitly waived:
  size_t pool_high_water_ = 0;  // moplint-allow: raw-counter
  // Per-queue tallies below the telemetry layer,
  // exported upstairs via AddExternalCounter, explicitly waived:
  std::vector<uint64_t> queue_frames_total_;  // moplint-allow: raw-counter
  // The sanctioned pattern: a registry-owned counter, held by pointer.
  moptel::Counter* frames_ = nullptr;
};
