#ifndef RANKTIES_STORE_CRC32_H_
#define RANKTIES_STORE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace rankties::store {

/// Reflected CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum used
/// by zlib/gzip/PNG. Every block and directory in the rankties-corpus-v1
/// format carries one so truncation and bit-rot surface as a clean
/// Status::DataLoss instead of silently corrupt rankings.
///
/// `Crc32` computes the checksum of a whole buffer; `Crc32Extend` continues
/// a running checksum so callers can checksum scattered buffers without
/// concatenating them. `Crc32Extend(Crc32(a), b) == Crc32(a ++ b)`.
/// Both run slice-by-8: eight table lookups per eight input bytes.
std::uint32_t Crc32(const void* data, std::size_t size);
std::uint32_t Crc32Extend(std::uint32_t crc, const void* data,
                          std::size_t size);

}  // namespace rankties::store

#endif  // RANKTIES_STORE_CRC32_H_
