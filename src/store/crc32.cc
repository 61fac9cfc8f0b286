#include "store/crc32.h"

#include <array>

#include "store/format.h"

namespace rankties::store {
namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// Slice-by-8 tables: kTables[0] is the classic byte table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the checksum over eight input bytes at once.
constexpr std::array<Table, 8> BuildTables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = BuildTables();

}  // namespace

std::uint32_t Crc32Extend(std::uint32_t crc, const void* data,
                          std::size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = crc ^ LoadU32(bytes);
    const std::uint32_t hi = LoadU32(bytes + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

std::uint32_t Crc32(const void* data, std::size_t size) {
  return Crc32Extend(0, data, size);
}

}  // namespace rankties::store
