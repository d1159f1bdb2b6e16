#include "src/crypto/sha1.h"

#include <atomic>

#if defined(__x86_64__) || defined(__i386__)
#define SCFS_SHA1_X86 1
#include <immintrin.h>
#endif

namespace scfs {

namespace {
inline uint32_t Rotl32(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

void ProcessBlocksPortable(uint32_t state[5], const uint8_t* data,
                           size_t count) {
  while (count-- > 0) {
    const uint8_t* block = data;
    data += Sha1::kBlockSize;
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    uint32_t a = state[0];
    uint32_t b = state[1];
    uint32_t c = state[2];
    uint32_t d = state[3];
    uint32_t e = state[4];

    for (int i = 0; i < 80; ++i) {
      uint32_t f;
      uint32_t k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5a827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ed9eba1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8f1bbcdc;
      } else {
        f = b ^ c ^ d;
        k = 0xca62c1d6;
      }
      uint32_t temp = Rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = Rotl32(b, 30);
      b = a;
      a = temp;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#ifdef SCFS_SHA1_X86

// Four rounds with round function `f` (0..3, one per twenty rounds). The
// instruction takes the function as an immediate, hence the switch.
__attribute__((target("sha,ssse3,sse4.1"))) inline __m128i FourRounds(
    __m128i abcd, __m128i e_plus_w, int f) {
  switch (f) {
    case 0:
      return _mm_sha1rnds4_epu32(abcd, e_plus_w, 0);
    case 1:
      return _mm_sha1rnds4_epu32(abcd, e_plus_w, 1);
    case 2:
      return _mm_sha1rnds4_epu32(abcd, e_plus_w, 2);
    default:
      return _mm_sha1rnds4_epu32(abcd, e_plus_w, 3);
  }
}

// SHA-NI block compression (the lane layout of the Intel SHA extensions
// programming guide: a,b,c,d packed high to low, e in the top lane of its
// own register). Requires SHA + SSSE3 + SSE4.1.
__attribute__((target("sha,ssse3,sse4.1"))) void ProcessBlocksShaNi(
    uint32_t state[5], const uint8_t* data, size_t count) {
  // Reverses all 16 bytes: big-endian words, word 0 in the top lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);

  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  while (count-- > 0) {
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;

    __m128i w[4];  // rolling window of four 4-word message groups
    __m128i abcd_prev = abcd;
    // Fully unrolled, so the round function and the window slots are
    // compile-time constants and the window stays in registers (without
    // it GCC keeps the window in memory and runs at less than half speed).
#pragma GCC unroll 20
    for (int g = 0; g < 20; ++g) {
      __m128i msg;
      if (g < 4) {
        msg = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kByteSwap);
      } else {
        // W[g] = msg2(msg1(W[g-4], W[g-3]) ^ W[g-2], W[g-1])
        msg = _mm_sha1msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        msg = _mm_xor_si128(msg, w[(g + 2) & 3]);
        msg = _mm_sha1msg2_epu32(msg, w[(g + 3) & 3]);
      }
      w[g & 3] = msg;
      // The first group adds e directly; later groups derive it from the
      // a of four rounds back.
      const __m128i e_plus_w = g == 0 ? _mm_add_epi32(e0, msg)
                                      : _mm_sha1nexte_epu32(abcd_prev, msg);
      abcd_prev = abcd;
      abcd = FourRounds(abcd, e_plus_w, g / 5);
    }

    e0 = _mm_sha1nexte_epu32(abcd_prev, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
    data += Sha1::kBlockSize;
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // SCFS_SHA1_X86

std::atomic<bool> g_force_portable{false};

internal::HashBlocksFn CurrentBlockFn() {
#ifdef SCFS_SHA1_X86
  if (!g_force_portable.load(std::memory_order_relaxed) &&
      internal::CpuHasShaNi()) {
    return ProcessBlocksShaNi;
  }
#endif
  return ProcessBlocksPortable;
}

}  // namespace

void Sha1::ForcePortableForTesting(bool force) {
  g_force_portable.store(force, std::memory_order_relaxed);
}

Sha1::Sha1() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
  state_[4] = 0xc3d2e1f0;
}

void Sha1::Update(const uint8_t* data, size_t size) {
  buffer_.Update(state_, CurrentBlockFn(), data, size);
}

std::array<uint8_t, Sha1::kDigestSize> Sha1::Finish() {
  std::array<uint8_t, kDigestSize> digest;
  buffer_.Finish(state_, CurrentBlockFn(), 5, digest.data());
  return digest;
}

Bytes Sha1::Hash(ConstByteSpan data) {
  Sha1 h;
  h.Update(data);
  auto d = h.Finish();
  return Bytes(d.begin(), d.end());
}

Bytes Sha1::Hash(std::string_view data) {
  Sha1 h;
  h.Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  auto d = h.Finish();
  return Bytes(d.begin(), d.end());
}

}  // namespace scfs
