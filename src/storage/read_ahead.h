#ifndef PGLO_STORAGE_READ_AHEAD_H_
#define PGLO_STORAGE_READ_AHEAD_H_

#include <algorithm>
#include <cstdint>

namespace pglo {

/// Sequential read-ahead detector of one file, kept by the buffer pool and
/// updated on misses only. A miss on the block
/// the detector expected next extends a streak; the second consecutive
/// match confirms a scan and the window ramps (2, 4, 8, ...) up to the
/// cap. The confirmation and ramp keep a short accidental run (a random
/// f-chunk frame read touching two adjacent chunk blocks) from paying for
/// a whole window it will never use. Each caller clips the window at its
/// end of file and at its first resident block.
class ReadAhead {
 public:
  /// Records a miss on `block` and returns the blocks to read from it
  /// before the caller's clips: 1 until a scan is confirmed, then the
  /// ramped window, at most `max_pages`.
  uint32_t OnMiss(uint32_t block, uint32_t max_pages) {
    streak_ = block == next_expected_ ? std::min<uint32_t>(streak_ + 1, 32)
                                      : 0;
    if (streak_ < 2) return 1;
    uint32_t window = 2;
    for (uint32_t s = 2; s < streak_ && window < max_pages; ++s) window *= 2;
    return std::min(window, max_pages);
  }

  /// Records that the read at `block` covered `run` blocks.
  void Read(uint32_t block, uint32_t run) { next_expected_ = block + run; }

 private:
  uint32_t next_expected_ = 0;
  uint32_t streak_ = 0;  ///< consecutive misses that landed on next_expected_
};

}  // namespace pglo

#endif  // PGLO_STORAGE_READ_AHEAD_H_
