// Built with the opposite NDEBUG to the library (tests/CMakeLists.txt):
// -UNDEBUG in optimized builds, -DNDEBUG in Debug. The library's headers
// must still lay out its types the way the library was compiled
// (util/build_config.h). A Mutex that carried its lock-class id on one
// side only would change the size of every class holding one, and this
// round trip through a CorpusReader, whose block cache keeps a Mutex per
// shard, would corrupt the heap.

#include <filesystem>
#include <string>
#include <vector>

#include "gen/random_orders.h"
#include "gtest/gtest.h"
#include "store/corpus_reader.h"
#include "store/corpus_writer.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace rankties {
namespace {

TEST(MutexLayoutTest, CorpusRoundTripUnderTheOppositeNdebug) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "mutex_layout.corpus")
          .string();
  Rng rng(29);
  std::vector<BucketOrder> corpus;
  for (int i = 0; i < 3; ++i) corpus.push_back(RandomBucketOrder(16, rng));
  {
    StatusOr<store::CorpusWriter> writer =
        store::CorpusWriter::Create(path, 16, store::CorpusWriter::Options{});
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (const BucketOrder& order : corpus) {
      ASSERT_TRUE(writer->Append(order).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }
  StatusOr<store::CorpusReader> reader =
      store::CorpusReader::Open(path, store::Pager::Options{});
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::vector<BucketOrder> chunk;
  ASSERT_TRUE(reader->ReadChunk(0, &chunk).ok());
  EXPECT_EQ(chunk, corpus);
}

// The premise of the test above: this file sees the opposite NDEBUG to the
// library, yet the library's contract setting.
TEST(MutexLayoutTest, CompiledWithTheOppositeNdebug) {
#ifdef NDEBUG
  constexpr bool kIncluderNdebug = true;
#else
  constexpr bool kIncluderNdebug = false;
#endif
  EXPECT_EQ(kIncluderNdebug, RANKTIES_DCHECK_ENABLED == 1);
}

}  // namespace
}  // namespace rankties
