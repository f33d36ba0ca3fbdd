// RFC 1071 Internet checksum, plus the TCP/UDP pseudo-header variant and the
// RFC 1624 incremental update used when a relayed packet only has a few
// header words rewritten.
#ifndef MOPEYE_NETPKT_CHECKSUM_H_
#define MOPEYE_NETPKT_CHECKSUM_H_

#include <cstdint>
#include <span>

namespace moppkt {

class IpAddr;

// One's-complement sum over `data`, not yet inverted. `initial` allows
// chaining across discontiguous regions; note each chained region of odd
// length is zero-padded independently (exactly one odd region per checksum,
// conventionally the last, matches the wire format). The value is folded
// enough to keep chaining overflow-free but is only meaningful modulo
// 0xffff — always go through ChecksumFinish.
//
// Runtime-dispatched: on x86-64 with AVX2 (picked once via cpuid) the inner
// sum widens 16-bit words into 32-bit vector lanes; everywhere else the
// scalar 8-bytes-at-a-time end-around-carry loop is used (it beats SSE2 from
// 20 B through MTU size, so no SSE2 variant is kept).
// All implementations are bit-identical (RFC 1071 §2(B): the
// one's-complement sum is associative and byte-order independent up to a
// final swap), which the netpkt_test fuzz suite asserts exhaustively.
uint32_t ChecksumPartial(std::span<const uint8_t> data, uint32_t initial = 0);

// The concrete inner-loop implementations. kScalar is always supported and
// is the oracle the vector paths are fuzzed against.
enum class ChecksumImpl { kScalar, kAvx2 };

// The implementation ChecksumPartial dispatches to on this machine.
ChecksumImpl ActiveChecksumImpl();

// True if `impl` can run on this machine.
bool ChecksumImplSupported(ChecksumImpl impl);

// Stable lowercase name ("scalar", "avx2") for logs and benches.
const char* ChecksumImplName(ChecksumImpl impl);

// Forced-implementation variants for tests and benches. ChecksumPartialWith
// with an unsupported impl falls back to scalar.
uint32_t ChecksumPartialScalar(std::span<const uint8_t> data,
                               uint32_t initial = 0);
uint32_t ChecksumPartialWith(ChecksumImpl impl, std::span<const uint8_t> data,
                             uint32_t initial = 0);

// Folds carries and inverts: the final 16-bit Internet checksum.
uint16_t ChecksumFinish(uint32_t partial);

// Checksum of a single contiguous buffer.
uint16_t Checksum(std::span<const uint8_t> data);

// Pseudo-header contribution for TCP/UDP checksums (RFC 793 / RFC 768).
uint32_t PseudoHeaderSum(const IpAddr& src, const IpAddr& dst, uint8_t protocol,
                         uint16_t l4_length);

// RFC 1624 incremental update: the checksum of a message in which the 16-bit
// word `old_word` was replaced by `new_word`, given the old checksum. Using
// the [Eqn. 3] form HC' = ~(~HC + ~m + m'), which is correct for all inputs
// (the RFC 1141 form mishandles 0x0000/0xffff).
uint16_t ChecksumIncrementalUpdate(uint16_t old_csum, uint16_t old_word,
                                   uint16_t new_word);

// Incremental update for a 32-bit field (e.g. an IPv4 address or TCP
// sequence number occupying two adjacent 16-bit words).
uint16_t ChecksumIncrementalUpdate32(uint16_t old_csum, uint32_t old_value,
                                     uint32_t new_value);

}  // namespace moppkt

#endif  // MOPEYE_NETPKT_CHECKSUM_H_
