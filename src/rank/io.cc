#include "rank/io.h"

#include <cctype>
#include <charconv>
#include <sstream>
#include <utility>

namespace rankties {

StatusOr<BucketOrder> ParseBucketOrder(const std::string& text) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '[') {
    return Status::InvalidArgument("expected '['");
  }
  ++i;
  // Element ids in text order, and the bucket each one is listed in.
  std::vector<ElementId> ids;
  std::vector<BucketIndex> listed_in;
  BucketIndex bucket = 0;
  std::size_t bucket_size = 0;  // ids listed so far in `bucket`
  bool closed = false;
  bool pending_bucket = false;  // a '|' was seen, next bucket must be filled
  while (i < text.size()) {
    skip_ws();
    if (i >= text.size()) break;
    const char c = text[i];
    if (c == ']') {
      if (pending_bucket && bucket_size == 0) {
        return Status::InvalidArgument("empty bucket before ']'");
      }
      ++i;
      closed = true;
      break;
    }
    if (c == '|') {
      if (bucket_size == 0) {
        return Status::InvalidArgument("empty bucket before '|'");
      }
      ++bucket;
      bucket_size = 0;
      pending_bucket = true;
      ++i;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "'");
    }
    ElementId value = 0;
    const auto [end, error] =
        std::from_chars(text.data() + i, text.data() + text.size(), value);
    if (error != std::errc()) {
      return Status::InvalidArgument("element id out of range");
    }
    i = static_cast<std::size_t>(end - text.data());
    ids.push_back(value);
    listed_in.push_back(bucket);
    ++bucket_size;
    pending_bucket = false;
  }
  if (!closed) return Status::InvalidArgument("missing ']'");
  skip_ws();
  if (i != text.size()) {
    return Status::InvalidArgument("trailing characters after ']'");
  }
  // n listed ids, each in [0, n) and none twice, cover {0..n-1}; "[]" is
  // the empty-domain order.
  const std::size_t n = ids.size();
  std::vector<BucketIndex> bucket_of(n, -1);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t e = static_cast<std::size_t>(ids[k]);
    if (e >= n) return Status::InvalidArgument("element out of range [0, n)");
    if (bucket_of[e] != -1) {
      return Status::InvalidArgument("element appears in two buckets");
    }
    bucket_of[e] = listed_in[k];
  }
  return BucketOrder::FromBucketIndex(std::move(bucket_of));
}

std::string FormatBucketOrders(const std::vector<BucketOrder>& orders) {
  std::ostringstream os;
  for (const BucketOrder& order : orders) os << order.ToString() << "\n";
  return os.str();
}

StatusOr<std::vector<BucketOrder>> ParseBucketOrders(const std::string& text) {
  std::vector<BucketOrder> orders;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    bool blank = true;
    for (char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    StatusOr<BucketOrder> order = ParseBucketOrder(line);
    if (!order.ok()) return order.status();
    orders.push_back(std::move(order).value());
  }
  return orders;
}

}  // namespace rankties
