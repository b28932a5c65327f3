// Internal interface of the two AES back ends: the portable T-table code
// (aes.cpp) and the AES-NI code (aes_ni.cpp). crypto::Aes and
// crypto::CbcEssivCipher dispatch through it, and the tests call both back
// ends directly to prove they give the same bytes. Not part of the public
// crypto API.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mobiceal::crypto {

class Aes;

namespace aes_impl {

/// The CPUID check: true when this is an x86 build on a CPU that reports
/// AES and SSE4.1. Always false on other targets.
bool detect_hw() noexcept;

/// Whether this process uses the AES-NI back end: detect_hw(), run once.
inline bool hw_available() noexcept {
  static const bool available = detect_hw();
  return available;
}

// One-block transforms. `keys` holds `rounds` + 1 round keys of 16 bytes
// each (Aes::enc_round_keys / dec_round_keys); in == out is allowed.
void encrypt_block_portable(const std::uint8_t* keys, std::size_t rounds,
                            const std::uint8_t in[16],
                            std::uint8_t out[16]) noexcept;
void decrypt_block_portable(const std::uint8_t* keys, std::size_t rounds,
                            const std::uint8_t in[16],
                            std::uint8_t out[16]) noexcept;

// The AES-NI counterparts. Call only when hw_available().
void encrypt_block_hw(const std::uint8_t* keys, std::size_t rounds,
                      const std::uint8_t in[16], std::uint8_t out[16]) noexcept;
void decrypt_block_hw(const std::uint8_t* keys, std::size_t rounds,
                      const std::uint8_t in[16], std::uint8_t out[16]) noexcept;

/// aes-cbc-essiv over `sectors` consecutive sectors of `sector_size` bytes
/// (a non-zero multiple of 16), sector s using IV
/// E_essiv(first_sector + s) -- byte-identical to a CbcEssivCipher
/// per-sector loop. Encryption runs up to 8 sectors' CBC chains
/// interleaved; decryption pipelines 8 blocks per step. in == out is
/// allowed. Call only when hw_available().
void cbc_essiv_encrypt_hw(const Aes& data, const Aes& essiv,
                          std::uint64_t first_sector, std::size_t sector_size,
                          std::size_t sectors, const std::uint8_t* in,
                          std::uint8_t* out) noexcept;
void cbc_essiv_decrypt_hw(const Aes& data, const Aes& essiv,
                          std::uint64_t first_sector, std::size_t sector_size,
                          std::size_t sectors, const std::uint8_t* in,
                          std::uint8_t* out) noexcept;

}  // namespace aes_impl
}  // namespace mobiceal::crypto
