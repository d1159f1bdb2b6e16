// SHA-256 (FIPS 180-4). Used for DepSky block hashes and as the PRF behind
// the HMAC authenticators.
//
// Bulk input is compressed in multi-block runs straight from the caller's
// buffer (no staging through the 64-byte block buffer); on x86 CPUs with the
// SHA extensions the block compression runs on the SHA-NI instructions,
// selected once at startup with a portable fallback. Shard hashing is a large
// share of the DepSky PUT pipeline's CPU time, so this kernel matters as much
// as the GF(2^8) one.

#ifndef SCFS_CRYPTO_SHA256_H_
#define SCFS_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/crypto/block_hash.h"

namespace scfs {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = internal::BlockHashBuffer::kBlockSize;

  Sha256();

  void Update(const uint8_t* data, size_t size);
  void Update(ConstByteSpan data) { Update(data.data(), data.size()); }
  std::array<uint8_t, kDigestSize> Finish();

  static Bytes Hash(ConstByteSpan data);
  static Bytes Hash(std::string_view data);

  // Pins the portable block function (disables SHA-NI) so benchmarks can
  // measure the hardware path against the seed kernel in one binary. Not
  // thread-safe; call before hashing starts.
  static void ForcePortableForTesting(bool force);

 private:
  uint32_t state_[8];
  internal::BlockHashBuffer buffer_;
};

}  // namespace scfs

#endif  // SCFS_CRYPTO_SHA256_H_
