// AES-NI back end: single blocks and the multi-lane aes-cbc-essiv range
// kernels. Each function carries its own target attribute, so the rest of
// the tree builds for the baseline ISA and this code only runs once
// detect_hw() has seen AES and SSE4.1 in CPUID. Other targets get a
// detect_hw() that says no; their hardware entry points are unreachable.
#include "crypto/aes.hpp"
#include "crypto/aes_impl.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define MOBICEAL_AESNI __attribute__((target("aes,sse4.1")))

namespace mobiceal::crypto::aes_impl {

namespace {

// Sectors whose CBC chains run interleaved, and ciphertext blocks decrypted
// per step: enough independent AESENC/AESDEC streams to cover the
// instruction's latency.
constexpr std::size_t kLanes = 8;

MOBICEAL_AESNI inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

MOBICEAL_AESNI inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

struct Schedule {
  __m128i k[15];
  std::size_t rounds;
};

MOBICEAL_AESNI inline Schedule load_schedule(const std::uint8_t* keys,
                                             std::size_t rounds) {
  Schedule s{};
  s.rounds = rounds;
  for (std::size_t r = 0; r <= rounds; ++r) s.k[r] = load(keys + 16 * r);
  return s;
}

// Encrypts L independent blocks under one schedule, round by round.
template <std::size_t L>
MOBICEAL_AESNI inline void encrypt_lanes(const Schedule& ks, __m128i* b) {
  for (std::size_t l = 0; l < L; ++l) b[l] = _mm_xor_si128(b[l], ks.k[0]);
  for (std::size_t r = 1; r < ks.rounds; ++r) {
    for (std::size_t l = 0; l < L; ++l) b[l] = _mm_aesenc_si128(b[l], ks.k[r]);
  }
  for (std::size_t l = 0; l < L; ++l) {
    b[l] = _mm_aesenclast_si128(b[l], ks.k[ks.rounds]);
  }
}

template <std::size_t L>
MOBICEAL_AESNI inline void decrypt_lanes(const Schedule& ks, __m128i* b) {
  for (std::size_t l = 0; l < L; ++l) b[l] = _mm_xor_si128(b[l], ks.k[0]);
  for (std::size_t r = 1; r < ks.rounds; ++r) {
    for (std::size_t l = 0; l < L; ++l) b[l] = _mm_aesdec_si128(b[l], ks.k[r]);
  }
  for (std::size_t l = 0; l < L; ++l) {
    b[l] = _mm_aesdeclast_si128(b[l], ks.k[ks.rounds]);
  }
}

// ESSIV IVs of sectors first..first+L-1: E_essiv(sector as 64-bit LE,
// zero-padded to 16 bytes), computed as one L-wide batch.
template <std::size_t L>
MOBICEAL_AESNI inline void essiv_ivs(const Schedule& essiv,
                                     std::uint64_t first, __m128i* iv) {
  for (std::size_t l = 0; l < L; ++l) {
    iv[l] = _mm_set_epi64x(0, static_cast<long long>(first + l));
  }
  encrypt_lanes<L>(essiv, iv);
}

struct Range {
  const Schedule& data;
  const Schedule& essiv;
  std::uint64_t first_sector;
  std::size_t sector_size;
  const std::uint8_t* in;
  std::uint8_t* out;
};

// Encrypts sectors s..s+L-1 of the range: their L CBC chains advance one
// block at a time, side by side.
template <std::size_t L>
MOBICEAL_AESNI void encrypt_sectors(const Range& r, std::size_t s) {
  __m128i chain[L];
  essiv_ivs<L>(r.essiv, r.first_sector + s, chain);
  const std::size_t base = s * r.sector_size;
  for (std::size_t off = 0; off < r.sector_size; off += 16) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t at = base + l * r.sector_size + off;
      chain[l] = _mm_xor_si128(chain[l], load(r.in + at));
    }
    encrypt_lanes<L>(r.data, chain);
    for (std::size_t l = 0; l < L; ++l) {
      store(r.out + base + l * r.sector_size + off, chain[l]);
    }
  }
}

// CBC-decrypts one sector: every block's AES is independent, so kLanes
// blocks go through the rounds together. All ciphertext of a step is
// loaded before any plaintext is stored, which makes in == out safe.
MOBICEAL_AESNI void decrypt_one(const Schedule& data, __m128i prev,
                                std::size_t size, const std::uint8_t* in,
                                std::uint8_t* out) {
  std::size_t off = 0;
  for (; off + 16 * kLanes <= size; off += 16 * kLanes) {
    __m128i c[kLanes];
    __m128i p[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      c[l] = load(in + off + 16 * l);
      p[l] = c[l];
    }
    decrypt_lanes<kLanes>(data, p);
    store(out + off, _mm_xor_si128(p[0], prev));
    for (std::size_t l = 1; l < kLanes; ++l) {
      store(out + off + 16 * l, _mm_xor_si128(p[l], c[l - 1]));
    }
    prev = c[kLanes - 1];
  }
  for (; off < size; off += 16) {
    const __m128i c = load(in + off);
    __m128i p = c;
    decrypt_lanes<1>(data, &p);
    store(out + off, _mm_xor_si128(p, prev));
    prev = c;
  }
}

template <std::size_t L>
MOBICEAL_AESNI void decrypt_sectors(const Range& r, std::size_t s) {
  __m128i iv[L];
  essiv_ivs<L>(r.essiv, r.first_sector + s, iv);
  for (std::size_t l = 0; l < L; ++l) {
    const std::size_t at = (s + l) * r.sector_size;
    decrypt_one(r.data, iv[l], r.sector_size, r.in + at, r.out + at);
  }
}

template <bool kEncrypt, std::size_t L>
MOBICEAL_AESNI void run_group(const Range& r, std::size_t s) {
  if constexpr (kEncrypt) {
    encrypt_sectors<L>(r, s);
  } else {
    decrypt_sectors<L>(r, s);
  }
}

// Covers the range in groups of kLanes sectors, then the remainder
// (< kLanes) with at most one group each of 4, 2 and 1.
template <bool kEncrypt>
MOBICEAL_AESNI void run_range(const Range& r, std::size_t sectors) {
  std::size_t s = 0;
  for (; s + kLanes <= sectors; s += kLanes) run_group<kEncrypt, kLanes>(r, s);
  if (sectors - s >= 4) {
    run_group<kEncrypt, 4>(r, s);
    s += 4;
  }
  if (sectors - s >= 2) {
    run_group<kEncrypt, 2>(r, s);
    s += 2;
  }
  if (sectors - s >= 1) run_group<kEncrypt, 1>(r, s);
}

}  // namespace

bool detect_hw() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
}

MOBICEAL_AESNI void encrypt_block_hw(const std::uint8_t* keys,
                                     std::size_t rounds,
                                     const std::uint8_t in[16],
                                     std::uint8_t out[16]) noexcept {
  const Schedule ks = load_schedule(keys, rounds);
  __m128i b = load(in);
  encrypt_lanes<1>(ks, &b);
  store(out, b);
}

MOBICEAL_AESNI void decrypt_block_hw(const std::uint8_t* keys,
                                     std::size_t rounds,
                                     const std::uint8_t in[16],
                                     std::uint8_t out[16]) noexcept {
  const Schedule ks = load_schedule(keys, rounds);
  __m128i b = load(in);
  decrypt_lanes<1>(ks, &b);
  store(out, b);
}

MOBICEAL_AESNI void cbc_essiv_encrypt_hw(const Aes& data, const Aes& essiv,
                                         std::uint64_t first_sector,
                                         std::size_t sector_size,
                                         std::size_t sectors,
                                         const std::uint8_t* in,
                                         std::uint8_t* out) noexcept {
  const Schedule dk = load_schedule(data.enc_round_keys(), data.rounds());
  const Schedule ek = load_schedule(essiv.enc_round_keys(), essiv.rounds());
  run_range<true>({dk, ek, first_sector, sector_size, in, out}, sectors);
}

MOBICEAL_AESNI void cbc_essiv_decrypt_hw(const Aes& data, const Aes& essiv,
                                         std::uint64_t first_sector,
                                         std::size_t sector_size,
                                         std::size_t sectors,
                                         const std::uint8_t* in,
                                         std::uint8_t* out) noexcept {
  const Schedule dk = load_schedule(data.dec_round_keys(), data.rounds());
  const Schedule ek = load_schedule(essiv.enc_round_keys(), essiv.rounds());
  run_range<false>({dk, ek, first_sector, sector_size, in, out}, sectors);
}

}  // namespace mobiceal::crypto::aes_impl

#else  // no AES-NI on this target: the T-table back end is the only one.

#include <cstdlib>

namespace mobiceal::crypto::aes_impl {

bool detect_hw() noexcept { return false; }

// Unreachable: every caller checks hw_available() first.
void encrypt_block_hw(const std::uint8_t*, std::size_t, const std::uint8_t*,
                      std::uint8_t*) noexcept {
  std::abort();
}
void decrypt_block_hw(const std::uint8_t*, std::size_t, const std::uint8_t*,
                      std::uint8_t*) noexcept {
  std::abort();
}
void cbc_essiv_encrypt_hw(const Aes&, const Aes&, std::uint64_t, std::size_t,
                          std::size_t, const std::uint8_t*,
                          std::uint8_t*) noexcept {
  std::abort();
}
void cbc_essiv_decrypt_hw(const Aes&, const Aes&, std::uint64_t, std::size_t,
                          std::size_t, const std::uint8_t*,
                          std::uint8_t*) noexcept {
  std::abort();
}

}  // namespace mobiceal::crypto::aes_impl

#endif
