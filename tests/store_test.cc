// Round-trip and robustness tests for the rankties-corpus-v1 on-disk
// format (store/corpus_writer.h, store/corpus_reader.h) and its CRC32.
// Truncated files, flipped CRC bytes, bad magic/version, zero-chunk
// corpora and header or directory fields whose arithmetic wraps must all
// come back as clean Status errors — no UB — under the ASan/UBSan CI legs.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gen/random_orders.h"
#include "gtest/gtest.h"
#include "rank/bucket_order.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "store/crc32.h"
#include "store/format.h"
#include "util/rng.h"

namespace rankties {
namespace {

namespace fs = std::filesystem;
using CorpusWriter = store::CorpusWriter;

std::string TestPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<BucketOrder> MakeCorpus(std::size_t m, std::size_t n,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BucketOrder> corpus;
  corpus.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    corpus.push_back(RandomBucketOrder(n, rng));
  }
  return corpus;
}

void WriteCorpus(const std::string& path,
                 const std::vector<BucketOrder>& corpus,
                 const CorpusWriter::Options& options) {
  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(path, corpus.front().n(), options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const BucketOrder& order : corpus) {
    ASSERT_TRUE(writer->Append(order).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
}

std::vector<BucketOrder> ReadAll(store::CorpusReader& reader) {
  std::vector<BucketOrder> all;
  std::vector<BucketOrder> chunk;
  for (std::size_t c = 0; c < reader.num_chunks(); ++c) {
    Status s = reader.ReadChunk(c, &chunk);
    EXPECT_TRUE(s.ok()) << s;
    for (BucketOrder& order : chunk) all.push_back(std::move(order));
  }
  return all;
}

// Applies `edit` to the decoded header of `path` and rewrites it with a
// fresh CRC, so only the edited fields are wrong.
template <typename Edit>
void RewriteHeader(const std::string& path, Edit edit) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  unsigned char header[store::kHeaderBytes];
  file.read(reinterpret_cast<char*>(header), sizeof(header));
  store::FileHeader decoded;
  store::DecodeHeader(header, &decoded);
  edit(decoded);
  store::EncodeHeader(decoded, header);
  store::StoreU32(header + store::kHeaderCrcOffset,
                  store::Crc32(header, store::kHeaderCrcOffset));
  file.seekp(0);
  file.write(reinterpret_cast<const char*>(header), sizeof(header));
}

// Applies `edit` to directory entry `c` of `path` and rewrites the
// directory CRC, so only the edited fields are wrong.
template <typename Edit>
void RewriteChunkEntry(const std::string& path, std::size_t c, Edit edit) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  unsigned char header[store::kHeaderBytes];
  file.read(reinterpret_cast<char*>(header), sizeof(header));
  store::FileHeader decoded;
  store::DecodeHeader(header, &decoded);
  ASSERT_LT(c, decoded.num_chunks);
  std::vector<unsigned char> dir(decoded.dir_bytes);
  file.seekg(static_cast<std::streamoff>(decoded.dir_offset));
  file.read(reinterpret_cast<char*>(dir.data()),
            static_cast<std::streamsize>(dir.size()));
  unsigned char* raw = dir.data() + c * store::kChunkEntryBytes;
  store::ChunkEntry entry;
  store::DecodeChunkEntry(raw, &entry);
  edit(entry);
  store::EncodeChunkEntry(entry, raw);
  const std::size_t payload = dir.size() - 4;
  store::StoreU32(dir.data() + payload, store::Crc32(dir.data(), payload));
  file.seekp(static_cast<std::streamoff>(decoded.dir_offset));
  file.write(reinterpret_cast<const char*>(dir.data()),
             static_cast<std::streamsize>(dir.size()));
}

void FlipByte(const std::string& path, std::uint64_t offset) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

// Bit-at-a-time reflected CRC-32, the definition the tables encode.
std::uint32_t BitwiseCrc32(const unsigned char* bytes, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

// The checksum is part of the file format: these values are what every
// rankties-corpus-v1 file already on disk carries.
TEST(StoreCrc32, MatchesTheFormatChecksum) {
  const char check[] = "123456789";
  EXPECT_EQ(store::Crc32(check, 9), 0xCBF43926u);

  Rng rng(12);
  std::vector<unsigned char> bytes(316);
  for (unsigned char& byte : bytes) {
    byte = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(store::Crc32(bytes.data() + start, size),
                BitwiseCrc32(bytes.data() + start, size))
          << "start " << start << " size " << size;
    }
  }

  for (const std::size_t split : {0, 1, 7, 8, 9, 64, 299, 300}) {
    EXPECT_EQ(store::Crc32Extend(store::Crc32(bytes.data(), split),
                                 bytes.data() + split, 300 - split),
              store::Crc32(bytes.data(), 300))
        << "split " << split;
  }
}

TEST(StoreRoundTrip, SingleChunkSingleBlock) {
  const std::string path = TestPath("roundtrip_small.corpus");
  const std::vector<BucketOrder> corpus = MakeCorpus(5, 40, 1);
  CorpusWriter::Options options;
  options.lists_per_chunk = 8;  // All five lists land in one tail chunk.
  WriteCorpus(path, corpus, options);

  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->n(), 40u);
  EXPECT_EQ(reader->num_lists(), 5u);
  EXPECT_EQ(reader->num_chunks(), 1u);
  const std::vector<BucketOrder> decoded = ReadAll(*reader);
  ASSERT_EQ(decoded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(decoded[i], corpus[i]) << "list " << i;
  }
}

TEST(StoreRoundTrip, MultiChunkTinyBlocksCrossBoundaries) {
  // 64-byte blocks (60 payload bytes) force every chunk across many block
  // boundaries, and 3 lists per chunk leaves a short tail chunk.
  const std::string path = TestPath("roundtrip_tiny_blocks.corpus");
  const std::vector<BucketOrder> corpus = MakeCorpus(11, 23, 2);
  CorpusWriter::Options options;
  options.block_size = store::kMinBlockSize;
  options.lists_per_chunk = 3;
  WriteCorpus(path, corpus, options);

  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->num_chunks(), 4u);  // 3+3+3+2
  EXPECT_EQ(reader->chunk(3).list_count, 2u);
  const std::vector<BucketOrder> decoded = ReadAll(*reader);
  ASSERT_EQ(decoded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(decoded[i], corpus[i]) << "list " << i;
  }
}

TEST(StoreRoundTrip, DegenerateShapes) {
  // Single-bucket (all tied) and full (all singleton) lists round-trip.
  const std::string path = TestPath("roundtrip_degenerate.corpus");
  std::vector<BucketOrder> corpus;
  corpus.push_back(BucketOrder::SingleBucket(12));
  std::vector<std::int64_t> keys(12);
  for (std::size_t e = 0; e < keys.size(); ++e) {
    keys[e] = static_cast<std::int64_t>(keys.size() - e);
  }
  corpus.push_back(BucketOrder::FromIntKeys(keys));
  WriteCorpus(path, corpus, CorpusWriter::Options{});

  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_TRUE(reader.ok()) << reader.status();
  const std::vector<BucketOrder> decoded = ReadAll(*reader);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], corpus[0]);
  EXPECT_EQ(decoded[1], corpus[1]);
}

TEST(StoreWriter, RejectsBadArguments) {
  EXPECT_FALSE(
      store::CorpusWriter::Create(TestPath("bad.corpus"), 0, {}).ok());
  CorpusWriter::Options bad_block;
  bad_block.block_size = 8;
  EXPECT_FALSE(
      store::CorpusWriter::Create(TestPath("bad.corpus"), 5, bad_block)
          .ok());
  CorpusWriter::Options bad_chunk;
  bad_chunk.lists_per_chunk = 0;
  EXPECT_FALSE(
      store::CorpusWriter::Create(TestPath("bad.corpus"), 5, bad_chunk)
          .ok());

  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(TestPath("bad.corpus"), 5, {});
  ASSERT_TRUE(writer.ok());
  // Domain mismatch is InvalidArgument.
  Rng rng(3);
  const Status mismatch = writer->Append(RandomBucketOrder(7, rng));
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument);
  // Append/Finish after Finish fail cleanly.
  ASSERT_TRUE(writer->Append(RandomBucketOrder(5, rng)).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->Append(RandomBucketOrder(5, rng)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Finish().code(), StatusCode::kFailedPrecondition);
}

TEST(StoreRobustness, MissingFileIsNotFound) {
  StatusOr<store::CorpusReader> reader = store::CorpusReader::Open(
      TestPath("does_not_exist.corpus"), store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(StoreRobustness, TruncatedHeaderIsDataLoss) {
  const std::string path = TestPath("truncated_header.corpus");
  WriteCorpus(path, MakeCorpus(4, 16, 4), CorpusWriter::Options{});
  fs::resize_file(path, store::kHeaderBytes / 2);
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, TruncatedBodyIsDataLoss) {
  const std::string path = TestPath("truncated_body.corpus");
  WriteCorpus(path, MakeCorpus(4, 16, 5), CorpusWriter::Options{});
  const std::uint64_t full = fs::file_size(path);
  // Chop the directory (and part of the block area) off the end.
  fs::resize_file(path, full - store::kChunkEntryBytes - 8);
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, BadMagicIsInvalidArgument) {
  const std::string path = TestPath("bad_magic.corpus");
  WriteCorpus(path, MakeCorpus(4, 16, 6), CorpusWriter::Options{});
  FlipByte(path, 0);
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreRobustness, BadVersionIsRejected) {
  const std::string path = TestPath("bad_version.corpus");
  WriteCorpus(path, MakeCorpus(4, 16, 7), CorpusWriter::Options{});
  RewriteHeader(path, [](store::FileHeader& header) {
    header.version = store::kFormatVersion + 1;
  });
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

// Header and directory fields whose products or sums wrap 64 bits must
// fail Open with DataLoss. Unchecked, the first wrap sizes a directory of
// 2^60 entries and the second lets ReadChunk reserve 2^62 lists.
TEST(StoreRobustness, WrappedDirectorySizeIsDataLoss) {
  const std::string path = TestPath("wrapped_num_chunks.corpus");
  WriteCorpus(path, MakeCorpus(3, 16, 13), CorpusWriter::Options{});
  // (1 + 2^60) * 48 wraps to 48, the one real entry's directory size.
  RewriteHeader(path, [](store::FileHeader& header) {
    header.num_chunks += std::uint64_t{1} << 60;
  });
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, WrappedListCountIsDataLoss) {
  const std::string path = TestPath("wrapped_list_count.corpus");
  WriteCorpus(path, MakeCorpus(3, 16, 14), CorpusWriter::Options{});
  // 4 * (list_count + list_count * n) gains (n + 1) * 2^64, which wraps
  // back to the real payload size; num_lists follows so coverage agrees.
  constexpr std::uint64_t kWrap = std::uint64_t{1} << 62;
  RewriteChunkEntry(path, 0, [](store::ChunkEntry& entry) {
    entry.list_count += kWrap;
  });
  RewriteHeader(path, [](store::FileHeader& header) {
    header.num_lists += kWrap;
  });
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, WrappedBlockCountIsDataLoss) {
  const std::string path = TestPath("wrapped_num_blocks.corpus");
  WriteCorpus(path, MakeCorpus(3, 16, 15), CorpusWriter::Options{});
  // 2^48 more blocks of 2^16 bytes wrap the directory offset back to its
  // real value.
  RewriteHeader(path, [](store::FileHeader& header) {
    ASSERT_EQ(header.block_size, store::kDefaultBlockSize);
    header.num_blocks += std::uint64_t{1} << 48;
  });
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, ImpossibleBucketCountIsDataLoss) {
  const std::string path = TestPath("bad_bucket_count.corpus");
  WriteCorpus(path, MakeCorpus(3, 16, 16), CorpusWriter::Options{});
  // Three lists over 16 elements hold between 3 and 48 buckets.
  for (const std::uint64_t bucket_count : {2, 49}) {
    RewriteChunkEntry(path, 0, [&](store::ChunkEntry& entry) {
      entry.bucket_count = bucket_count;
    });
    StatusOr<store::CorpusReader> reader =
        store::CorpusReader::Open(path, store::Pager::Options{});
    ASSERT_FALSE(reader.ok()) << bucket_count;
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
  }
}

TEST(StoreRobustness, FlippedHeaderByteIsDataLoss) {
  const std::string path = TestPath("bad_header_crc.corpus");
  WriteCorpus(path, MakeCorpus(4, 16, 8), CorpusWriter::Options{});
  FlipByte(path, 16);  // Inside the n field; header CRC now mismatches.
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, FlippedBlockByteIsDataLossOnRead) {
  const std::string path = TestPath("bad_block_crc.corpus");
  WriteCorpus(path, MakeCorpus(4, 16, 9), CorpusWriter::Options{});
  // Open succeeds (header and directory are intact)...
  FlipByte(path, store::kHeaderBytes + 10);
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_TRUE(reader.ok()) << reader.status();
  // ...but paging the corrupt block in is DataLoss.
  std::vector<BucketOrder> chunk;
  const Status s = reader->ReadChunk(0, &chunk);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, FlippedDirectoryByteIsDataLoss) {
  const std::string path = TestPath("bad_dir_crc.corpus");
  WriteCorpus(path, MakeCorpus(4, 16, 10), CorpusWriter::Options{});
  const std::uint64_t full = fs::file_size(path);
  FlipByte(path, full - 12);  // Inside the last chunk entry.
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(StoreRobustness, ZeroChunkCorpusIsInvalidArgument) {
  const std::string path = TestPath("zero_chunks.corpus");
  StatusOr<store::CorpusWriter> writer =
      store::CorpusWriter::Create(path, 8, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());  // No lists appended.
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreRobustness, UnfinishedWriterFileIsRejected) {
  const std::string path = TestPath("unfinished.corpus");
  {
    StatusOr<store::CorpusWriter> writer =
        store::CorpusWriter::Create(path, 8, {});
    ASSERT_TRUE(writer.ok());
    Rng rng(11);
    ASSERT_TRUE(writer->Append(RandomBucketOrder(8, rng)).ok());
    // No Finish: the header slot is still the zero placeholder.
  }
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rankties
