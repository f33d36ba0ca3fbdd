// Known-bad fixture for the raw-counter rule: ad-hoc tally members named by
// the *_count / *_counter / *_total suffix convention, plus the
// instrumentation idioms that actually grew in this codebase before the
// telemetry registry existed (*_read / *_polls tallies, *high_water peaks,
// and std::vector arrays of the same shapes) —
// all of which belong on the moptel::Registry instead.
#include <cstddef>
#include <cstdint>
#include <vector>

struct IngestStats {
  uint64_t frames_count_ = 0;       // flagged
  uint64_t retries_total = 0;       // flagged
  uint64_t drop_counter_;           // flagged
  uint64_t batches_totals_ = 0;     // flagged (plural suffix)
  uint64_t packets_read_ = 0;       // flagged (pre-registry TunReader idiom)
  uint64_t empty_polls_ = 0;        // flagged (pre-registry TunReader idiom)
  size_t queue_high_water_ = 0;     // flagged (size_t peaks count too)
  size_t in_use_high_water = 0;     // flagged (unsuffixed struct field form)
  // Per-queue egress tallies: an array of tallies is still a tally.
  std::vector<uint64_t> queue_drops_total_;     // flagged (vector tally)
  std::vector<uint64_t> queue_frames_count;     // flagged (vector tally)
  std::vector<size_t> queue_high_waters_;       // flagged (vector of peaks)
  uint64_t bytes_sent_ = 0;         // honest quantity, not a tally — clean
  uint32_t small_count_ = 0;        // not uint64_t/size_t — outside the rule
  std::vector<uint64_t> bytes_per_queue_;  // honest quantities — clean
  std::vector<uint32_t> tiny_counts_;      // not uint64_t/size_t — clean
};
