// The Merkle-Damgard framing SHA-1 and SHA-256 share (FIPS 180-4 §5.1.1):
// 64-byte blocks, a 0x80 terminator, zero fill, and the message length in
// bits as a big-endian 64-bit trailer. Only the block compression function
// and the digest width differ between the two hashes, so each keeps its own
// chaining state and passes its run-time selected block function in.

#ifndef SCFS_CRYPTO_BLOCK_HASH_H_
#define SCFS_CRYPTO_BLOCK_HASH_H_

#include <cstddef>
#include <cstdint>

namespace scfs {
namespace internal {

// Compresses `count` consecutive 64-byte blocks into `state`.
using HashBlocksFn = void (*)(uint32_t* state, const uint8_t* blocks,
                              size_t count);

// True when the CPU has the x86 SHA extensions plus the SSSE3 and SSE4.1
// shuffles the SHA-NI kernels use. Checked once per process.
bool CpuHasShaNi();

class BlockHashBuffer {
 public:
  static constexpr size_t kBlockSize = 64;

  // Tops up a partially filled block first, then compresses every whole
  // block straight from the caller's buffer (no staging copy), and keeps the
  // tail for the next call.
  void Update(uint32_t* state, HashBlocksFn blocks_fn, const uint8_t* data,
              size_t size);

  // Appends the padding and length trailer, then writes the first `words`
  // state words to `digest` big-endian.
  void Finish(uint32_t* state, HashBlocksFn blocks_fn, size_t words,
              uint8_t* digest);

 private:
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[kBlockSize] = {};
  size_t buffered_ = 0;
};

}  // namespace internal
}  // namespace scfs

#endif  // SCFS_CRYPTO_BLOCK_HASH_H_
