#include "src/crypto/block_hash.h"

#include <cstring>

namespace scfs {
namespace internal {

bool CpuHasShaNi() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("sha") &&
                          __builtin_cpu_supports("ssse3") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
#else
  return false;
#endif
}

void BlockHashBuffer::Update(uint32_t* state, HashBlocksFn blocks_fn,
                             const uint8_t* data, size_t size) {
  total_bytes_ += size;
  if (buffered_ > 0) {
    size_t take = kBlockSize - buffered_;
    if (take > size) {
      take = size;
    }
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    size -= take;
    if (buffered_ < kBlockSize) {
      return;
    }
    blocks_fn(state, buffer_, 1);
    buffered_ = 0;
  }
  const size_t whole = size / kBlockSize;
  if (whole > 0) {
    blocks_fn(state, data, whole);
    data += whole * kBlockSize;
    size -= whole * kBlockSize;
  }
  if (size > 0) {
    std::memcpy(buffer_, data, size);
    buffered_ = size;
  }
}

void BlockHashBuffer::Finish(uint32_t* state, HashBlocksFn blocks_fn,
                             size_t words, uint8_t* digest) {
  constexpr size_t kLengthOffset = kBlockSize - 8;
  const uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > kLengthOffset) {
    // No room left for the length trailer: it goes in one more block.
    std::memset(buffer_ + buffered_, 0, kBlockSize - buffered_);
    blocks_fn(state, buffer_, 1);
    buffered_ = 0;
  }
  std::memset(buffer_ + buffered_, 0, kLengthOffset - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kLengthOffset + i] =
        static_cast<uint8_t>(bit_length >> (56 - i * 8));
  }
  blocks_fn(state, buffer_, 1);
  buffered_ = 0;

  for (size_t i = 0; i < words; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state[i]);
  }
}

}  // namespace internal
}  // namespace scfs
