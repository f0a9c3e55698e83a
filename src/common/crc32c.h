#ifndef PGLO_COMMON_CRC32C_H_
#define PGLO_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace pglo {
namespace crc32c {

/// Returns the CRC-32C (Castagnoli) of data[0, n), extending `init_crc`.
/// Used to checksum pages and log records. On x86-64 CPUs with SSE4.2
/// (detected once, at run time) it uses the `crc32` instruction, 8 bytes
/// per instruction; elsewhere it falls back to the byte-at-a-time table
/// loop. Both compute the same value.
uint32_t Extend(uint32_t init_crc, const uint8_t* data, size_t n);

namespace internal {
/// The table loop: the fallback on CPUs without SSE4.2, and the reference
/// the tests compare the hardware path against.
uint32_t ExtendPortable(uint32_t init_crc, const uint8_t* data, size_t n);
}  // namespace internal

inline uint32_t Value(const uint8_t* data, size_t n) {
  return Extend(0, data, n);
}

/// Masks a CRC so that a checksum of data that itself contains checksums
/// does not degenerate (same trick as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace pglo

#endif  // PGLO_COMMON_CRC32C_H_
