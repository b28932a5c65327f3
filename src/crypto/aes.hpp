// AES-128/192/256 block cipher (FIPS-197), from scratch.
//
// This backs the dm-crypt reproduction exactly as the Linux kernel's AES
// backs Android FDE in the paper (Sec. II-A). There are two back ends,
// chosen once per process by a CPUID check:
//   - AES-NI (AESENC/AESDEC, aes_ni.cpp) on x86 CPUs that report AES and
//     SSE4.1 -- the counterpart of the ARMv8-CE instructions the paper's
//     kernels use;
//   - portable T-tables (generated at static initialisation from the
//     algebraic S-box definition), the fallback on every other CPU and
//     target.
// Both run the one key schedule below and produce identical bytes, so no
// ciphertext, image or virtual timing depends on the host CPU; only the
// wall-clock speed does. crypto/aes_impl.hpp exposes both back ends so the
// tests can compare them directly.
//
// Note on side channels: the T-table fallback is fine for a simulator whose
// threat model is the *storage image*, not the host CPU cache.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace mobiceal::crypto {

/// AES block size in bytes (fixed by the standard).
inline constexpr std::size_t kAesBlockSize = 16;

/// One AES key schedule. Supports 128-, 192- and 256-bit keys.
class Aes {
 public:
  /// Expands the key schedule. Throws util::CryptoError unless key length is
  /// 16, 24 or 32 bytes.
  explicit Aes(util::ByteSpan key);

  /// Encrypt exactly one 16-byte block (in-place allowed: in == out).
  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  /// Decrypt exactly one 16-byte block (in-place allowed).
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  std::size_t key_bits() const noexcept { return key_bits_; }
  std::size_t rounds() const noexcept { return rounds_; }

  /// Round keys, rounds() + 1 of them, 16 bytes each: the schedule words
  /// stored big-endian, which is the byte order AESENC takes.
  const std::uint8_t* enc_round_keys() const noexcept {
    return enc_keys_.data();
  }
  /// The equivalent-inverse-cipher schedule (FIPS-197 §5.3.5), the form
  /// AESDEC takes, in the same byte order.
  const std::uint8_t* dec_round_keys() const noexcept {
    return dec_keys_.data();
  }

 private:
  std::size_t rounds_ = 0;
  std::size_t key_bits_ = 0;
  alignas(16) std::array<std::uint8_t, 240> enc_keys_{};  // max 15 keys
  alignas(16) std::array<std::uint8_t, 240> dec_keys_{};
};

}  // namespace mobiceal::crypto
