#include "store/corpus_reader.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.h"
#include "store/crc32.h"
#include "util/contracts.h"

namespace rankties::store {

namespace {

Status ValidateDirectory(const FileHeader& header,
                         const std::vector<ChunkEntry>& directory) {
  std::uint64_t next_list = 0;
  std::uint64_t next_offset = 0;
  for (std::size_t c = 0; c < directory.size(); ++c) {
    const ChunkEntry& entry = directory[c];
    const std::string where = "chunk " + std::to_string(c);
    if (entry.first_list != next_list) {
      return Status::DataLoss(where + ": first_list " +
                              std::to_string(entry.first_list) +
                              " breaks list coverage at " +
                              std::to_string(next_list));
    }
    if (entry.list_count == 0) {
      return Status::DataLoss(where + ": empty chunk");
    }
    if (entry.item_count != header.n) {
      return Status::DataLoss(where + ": item_count " +
                              std::to_string(entry.item_count) +
                              " != corpus n " + std::to_string(header.n));
    }
    if (entry.payload_offset != next_offset) {
      return Status::DataLoss(where + ": payload not contiguous");
    }
    const std::uint64_t expect_bytes =
        4 * (entry.list_count + entry.list_count * header.n);
    if (entry.payload_bytes != expect_bytes) {
      return Status::DataLoss(where + ": payload_bytes " +
                              std::to_string(entry.payload_bytes) +
                              " != expected " + std::to_string(expect_bytes));
    }
    next_list += entry.list_count;
    next_offset += entry.payload_bytes;
  }
  if (next_list != header.num_lists) {
    return Status::DataLoss("directory covers " + std::to_string(next_list) +
                            " lists, header says " +
                            std::to_string(header.num_lists));
  }
  const std::uint64_t payload_capacity =
      header.num_blocks * BlockPayloadBytes(header.block_size);
  if (next_offset > payload_capacity) {
    return Status::DataLoss("directory payload extends past the block area");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<CorpusReader> CorpusReader::Open(const std::string& path,
                                          const Pager::Options& cache) {
  StatusOr<File> file = File::OpenRead(path);
  if (!file.ok()) return file.status();

  StatusOr<std::uint64_t> size = file->Size();
  if (!size.ok()) return size.status();
  if (*size < kHeaderBytes) {
    return Status::DataLoss(path + ": " + std::to_string(*size) +
                            " bytes is too short for a corpus header");
  }

  unsigned char raw[kHeaderBytes];
  Status s = file->ReadAt(0, raw, sizeof(raw));
  if (!s.ok()) return s;
  if (std::memcmp(raw, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + ": not a rankties-corpus file");
  }
  if (Crc32(raw, kHeaderCrcOffset) != LoadU32(raw + kHeaderCrcOffset)) {
    return Status::DataLoss(path + ": header CRC mismatch");
  }
  FileHeader header;
  DecodeHeader(raw, &header);
  if (header.version != kFormatVersion) {
    return Status::InvalidArgument(
        path + ": unsupported corpus version " +
        std::to_string(header.version) + " (reader supports " +
        std::to_string(kFormatVersion) + ")");
  }
  if (header.block_size < kMinBlockSize) {
    return Status::DataLoss(path + ": header block_size below minimum");
  }
  if (header.n == 0 || header.num_lists == 0 || header.num_chunks == 0) {
    return Status::InvalidArgument(path + ": empty corpus (no chunks)");
  }
  if (header.dir_offset !=
      BlockFileOffset(header.block_size, header.num_blocks)) {
    return Status::DataLoss(path + ": directory offset disagrees with the "
                                   "block count");
  }
  if (header.dir_bytes != header.num_chunks * kChunkEntryBytes + 4) {
    return Status::DataLoss(path + ": directory size disagrees with the "
                                   "chunk count");
  }
  if (header.dir_offset + header.dir_bytes > *size) {
    return Status::DataLoss(path + ": file truncated (directory extends "
                                   "past end of file)");
  }

  std::vector<unsigned char> dir(header.dir_bytes);
  s = file->ReadAt(header.dir_offset, dir.data(), dir.size());
  if (!s.ok()) return s;
  const std::size_t dir_payload = dir.size() - 4;
  if (Crc32(dir.data(), dir_payload) != LoadU32(dir.data() + dir_payload)) {
    return Status::DataLoss(path + ": chunk directory CRC mismatch");
  }
  std::vector<ChunkEntry> directory(header.num_chunks);
  for (std::size_t c = 0; c < directory.size(); ++c) {
    DecodeChunkEntry(dir.data() + c * kChunkEntryBytes, &directory[c]);
  }
  s = ValidateDirectory(header, directory);
  if (!s.ok()) return s;

  CorpusReader reader;
  reader.file_ = std::make_unique<File>(std::move(*file));
  reader.header_ = header;
  reader.directory_ = std::move(directory);
  reader.pager_ = std::make_unique<Pager>(reader.file_.get(),
                                          header.block_size,
                                          header.num_blocks, cache);
  return reader;
}

Status CorpusReader::ReadChunk(std::size_t c, std::vector<BucketOrder>* out) {
  RANKTIES_DCHECK(out != nullptr);
  if (c >= directory_.size()) {
    return Status::OutOfRange("chunk " + std::to_string(c) +
                              " out of range (corpus has " +
                              std::to_string(directory_.size()) + " chunks)");
  }
  obs::FlightSpan span(obs::FlightEventId::kStoreReadChunk);
  const ChunkEntry& entry = directory_[c];
  span.SetArgs(static_cast<std::int64_t>(c),
               static_cast<std::int64_t>(entry.list_count));
  out->clear();

  // Assemble the chunk's logical byte range from its (cached) blocks.
  const std::size_t payload_per_block =
      BlockPayloadBytes(header_.block_size);
  scratch_.resize(entry.payload_bytes);
  std::uint64_t logical = entry.payload_offset;
  std::size_t copied = 0;
  while (copied < entry.payload_bytes) {
    const std::uint64_t block = logical / payload_per_block;
    const std::size_t in_block =
        static_cast<std::size_t>(logical % payload_per_block);
    const std::size_t take = std::min<std::size_t>(
        payload_per_block - in_block, entry.payload_bytes - copied);
    StatusOr<Pager::PinnedBlock> pin = pager_->Pin(block);
    if (!pin.ok()) return pin.status();
    std::memcpy(scratch_.data() + copied, pin->payload() + in_block, take);
    copied += take;
    logical += take;
  }

  // Decode the columnar payload: bucket-count column, then one bucket_of
  // column per list.
  const std::size_t list_count = static_cast<std::size_t>(entry.list_count);
  const std::size_t n = static_cast<std::size_t>(header_.n);
  out->reserve(list_count);
  std::uint64_t bucket_total = 0;
  std::vector<BucketIndex> bucket_of(n);
  for (std::size_t i = 0; i < list_count; ++i) {
    const std::uint32_t num_buckets = LoadU32(scratch_.data() + 4 * i);
    const unsigned char* column =
        scratch_.data() + 4 * list_count + 4 * i * n;
    for (std::size_t e = 0; e < n; ++e) {
      const std::uint32_t bucket = LoadU32(column + 4 * e);
      if (bucket >= num_buckets) {
        return Status::DataLoss(
            "chunk " + std::to_string(c) + " list " + std::to_string(i) +
            ": bucket index " + std::to_string(bucket) +
            " out of range (list has " + std::to_string(num_buckets) +
            " buckets)");
      }
      bucket_of[e] = static_cast<BucketIndex>(bucket);
    }
    StatusOr<BucketOrder> order = BucketOrder::FromBucketIndex(bucket_of);
    if (!order.ok()) {
      return Status::DataLoss("chunk " + std::to_string(c) + " list " +
                              std::to_string(i) +
                              ": decoded bucket column is not a valid "
                              "partition: " +
                              order.status().message());
    }
    if (order->num_buckets() != num_buckets) {
      return Status::DataLoss("chunk " + std::to_string(c) + " list " +
                              std::to_string(i) +
                              ": stored bucket count disagrees with the "
                              "decoded partition");
    }
    bucket_total += num_buckets;
    out->push_back(std::move(*order));
  }
  if (bucket_total != entry.bucket_count) {
    return Status::DataLoss("chunk " + std::to_string(c) +
                            ": directory bucket_count disagrees with the "
                            "decoded lists");
  }
  RANKTIES_OBS_COUNT("store.io.chunks_read", 1);
  return Status::Ok();
}

}  // namespace rankties::store
