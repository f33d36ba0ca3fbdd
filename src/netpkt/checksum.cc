#include "netpkt/checksum.h"

#include <bit>
#include <cstring>

#include "netpkt/ip.h"

#if defined(__x86_64__)
#define MOPEYE_CHECKSUM_X86 1
#include <immintrin.h>
#endif

namespace moppkt {

namespace {

inline uint64_t AddWithCarry(uint64_t sum, uint64_t word) {
  sum += word;
  return sum + (sum < word);  // end-around carry
}

// Folds a 64-bit one's-complement accumulator to a value in [0, 0xffff].
inline uint16_t Fold64(uint64_t sum) {
  sum = (sum >> 32) + (sum & 0xffffffffULL);
  sum = (sum >> 32) + (sum & 0xffffffffULL);
  sum = (sum >> 16) + (sum & 0xffffULL);
  sum = (sum >> 16) + (sum & 0xffffULL);
  return static_cast<uint16_t>(sum);
}

// Every implementation below computes the same mathematical object: the
// one's-complement sum of the buffer's 16-bit native-order words (odd tail
// zero-padded). They differ only in how the plain integer accumulation is
// grouped, and Fold64 maps any grouping to the unique representative in
// [0, 0xffff] — 0 for all-zero input (no path can produce a nonzero
// accumulator from zeros, nor reach zero from a nonzero word), 0xffff for
// nonzero input whose sum ≡ 0 (mod 0xffff). Hence bit-identical results by
// construction; netpkt_test fuzzes the equivalence anyway.

// Scalar inner sum: 8 bytes at a time with end-around carry.
uint64_t ScalarSum(const uint8_t* p, size_t n) {
  uint64_t sum = 0;
  while (n >= 32) {
    uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    std::memcpy(&w2, p + 16, 8);
    std::memcpy(&w3, p + 24, 8);
    sum = AddWithCarry(sum, w0);
    sum = AddWithCarry(sum, w1);
    sum = AddWithCarry(sum, w2);
    sum = AddWithCarry(sum, w3);
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    sum = AddWithCarry(sum, w);
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    uint32_t w;
    std::memcpy(&w, p, 4);
    sum = AddWithCarry(sum, w);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    uint16_t w;
    std::memcpy(&w, p, 2);
    sum = AddWithCarry(sum, w);
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    // Odd trailing byte, zero-padded: the pad makes the pair (b, 0), whose
    // native little-endian representation is just b (big-endian: b << 8).
    uint16_t w = std::endian::native == std::endian::little
                     ? static_cast<uint16_t>(*p)
                     : static_cast<uint16_t>(*p << 8);
    sum = AddWithCarry(sum, w);
  }
  return sum;
}

#if MOPEYE_CHECKSUM_X86

// Sums the < 32-byte tail the AVX2 loop leaves behind. Plain adds of
// zero-extended words cannot carry at these sizes.
inline uint64_t SmallTailSum(const uint8_t* p, size_t n) {
  uint64_t sum = 0;
  while (n >= 2) {
    uint16_t w;
    std::memcpy(&w, p, 2);
    sum += w;
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    sum += std::endian::native == std::endian::little
               ? static_cast<uint16_t>(*p)
               : static_cast<uint16_t>(*p << 8);
  }
  return sum;
}

// Largest block a 32-bit vector lane can accumulate without overflow:
// 65504 B = 32752 words; one AVX2 lane sees 4094 of them, 4094 * 0xffff
// < 2^28. Chunking at this size keeps the loop overflow-free for any
// buffer length, not just MTU-sized packets.
constexpr size_t kVecChunk = 65504;

// AVX2 inner sum: sixteen words per load, widened into 32-bit lanes.
// Unaligned loads only; never reads past data.size(). Compiled with a
// per-function target attribute so the baseline build needs no AVX2; only
// reachable after the cpuid dispatch confirms it.
__attribute__((target("avx2"))) uint64_t Avx2Sum(const uint8_t* p, size_t n) {
  uint64_t sum = 0;
  const __m256i zero = _mm256_setzero_si256();
  while (n >= 32) {
    size_t chunk = n < kVecChunk ? (n & ~size_t{31}) : kVecChunk;
    __m256i acc = _mm256_setzero_si256();
    const uint8_t* end = p + chunk;
    for (; p != end; p += 32) {
      __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      acc = _mm256_add_epi32(acc, _mm256_unpacklo_epi16(v, zero));
      acc = _mm256_add_epi32(acc, _mm256_unpackhi_epi16(v, zero));
    }
    alignas(32) uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    sum += static_cast<uint64_t>(lanes[0]) + lanes[1] + lanes[2] + lanes[3] +
           lanes[4] + lanes[5] + lanes[6] + lanes[7];
    n -= chunk;
  }
  return sum + SmallTailSum(p, n);
}

#endif  // MOPEYE_CHECKSUM_X86

using SumFn = uint64_t (*)(const uint8_t*, size_t);

ChecksumImpl ResolveImpl() {
#if MOPEYE_CHECKSUM_X86
  if (__builtin_cpu_supports("avx2")) {
    return ChecksumImpl::kAvx2;
  }
#endif
  return ChecksumImpl::kScalar;
}

SumFn SumFnFor(ChecksumImpl impl) {
#if MOPEYE_CHECKSUM_X86
  if (impl == ChecksumImpl::kAvx2 && __builtin_cpu_supports("avx2")) {
    return &Avx2Sum;
  }
#endif
  (void)impl;
  return &ScalarSum;
}

// Shared epilogue: fold, swap to big-endian word space, chain onto
// `initial`, and keep the result within uint32 range so further chaining
// cannot overflow.
inline uint32_t FinishPartial(uint64_t sum, uint32_t initial) {
  uint16_t folded = Fold64(sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<uint16_t>((folded >> 8) | (folded << 8));
  }
  uint64_t chained = static_cast<uint64_t>(initial) + folded;
  chained = (chained >> 32) + (chained & 0xffffffffULL);
  return static_cast<uint32_t>(chained);
}

}  // namespace

ChecksumImpl ActiveChecksumImpl() {
  static const ChecksumImpl impl = ResolveImpl();
  return impl;
}

bool ChecksumImplSupported(ChecksumImpl impl) {
#if MOPEYE_CHECKSUM_X86
  if (impl == ChecksumImpl::kAvx2) {
    return __builtin_cpu_supports("avx2");
  }
  return true;
#else
  return impl == ChecksumImpl::kScalar;
#endif
}

const char* ChecksumImplName(ChecksumImpl impl) {
  switch (impl) {
    case ChecksumImpl::kScalar:
      return "scalar";
    case ChecksumImpl::kAvx2:
      return "avx2";
  }
  return "unknown";
}

uint32_t ChecksumPartial(std::span<const uint8_t> data, uint32_t initial) {
  static const SumFn fn = SumFnFor(ResolveImpl());
  return FinishPartial(fn(data.data(), data.size()), initial);
}

uint32_t ChecksumPartialScalar(std::span<const uint8_t> data,
                               uint32_t initial) {
  return FinishPartial(ScalarSum(data.data(), data.size()), initial);
}

uint32_t ChecksumPartialWith(ChecksumImpl impl, std::span<const uint8_t> data,
                             uint32_t initial) {
  return FinishPartial(SumFnFor(impl)(data.data(), data.size()), initial);
}

uint16_t ChecksumFinish(uint32_t partial) {
  while (partial >> 16) {
    partial = (partial & 0xffff) + (partial >> 16);
  }
  return static_cast<uint16_t>(~partial & 0xffff);
}

uint16_t Checksum(std::span<const uint8_t> data) {
  return ChecksumFinish(ChecksumPartial(data));
}

uint32_t PseudoHeaderSum(const IpAddr& src, const IpAddr& dst, uint8_t protocol,
                         uint16_t l4_length) {
  uint32_t sum = 0;
  sum += src.value() >> 16;
  sum += src.value() & 0xffff;
  sum += dst.value() >> 16;
  sum += dst.value() & 0xffff;
  sum += protocol;
  sum += l4_length;
  return sum;
}

uint16_t ChecksumIncrementalUpdate(uint16_t old_csum, uint16_t old_word,
                                   uint16_t new_word) {
  // RFC 1624 [Eqn. 3]: HC' = ~(~HC + ~m + m').
  uint32_t sum = static_cast<uint16_t>(~old_csum);
  sum += static_cast<uint16_t>(~old_word);
  sum += new_word;
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint16_t ChecksumIncrementalUpdate32(uint16_t old_csum, uint32_t old_value,
                                     uint32_t new_value) {
  uint16_t c = ChecksumIncrementalUpdate(old_csum, static_cast<uint16_t>(old_value >> 16),
                                         static_cast<uint16_t>(new_value >> 16));
  return ChecksumIncrementalUpdate(c, static_cast<uint16_t>(old_value & 0xffff),
                                   static_cast<uint16_t>(new_value & 0xffff));
}

}  // namespace moppkt
