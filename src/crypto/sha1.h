// SHA-1 (FIPS 180-4). SCFS uses SHA-1 as the collision-resistant hash of file
// contents stored in the consistency anchor (paper §2.5.1). Kept alongside
// SHA-256, which this reproduction prefers for new integrity checks.
//
// Every byte of a file passes through this hash on close and again on every
// cloud read, serially, so it sits on the large-file data path. Like SHA-256
// it compresses bulk input straight from the caller's buffer, and on x86 CPUs
// with the SHA extensions the block compression runs on the SHA-NI
// instructions, selected once at startup with the portable code as fallback.

#ifndef SCFS_CRYPTO_SHA1_H_
#define SCFS_CRYPTO_SHA1_H_

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/crypto/block_hash.h"

namespace scfs {

class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = internal::BlockHashBuffer::kBlockSize;

  Sha1();

  void Update(const uint8_t* data, size_t size);
  void Update(ConstByteSpan data) { Update(data.data(), data.size()); }
  std::array<uint8_t, kDigestSize> Finish();

  static Bytes Hash(ConstByteSpan data);
  static Bytes Hash(std::string_view data);

  // Pins the portable block function (disables SHA-NI) so tests and
  // benchmarks can check the hardware path against it in one binary. Not
  // thread-safe; call before hashing starts.
  static void ForcePortableForTesting(bool force);

 private:
  uint32_t state_[5];
  internal::BlockHashBuffer buffer_;
};

}  // namespace scfs

#endif  // SCFS_CRYPTO_SHA1_H_
