#include "crypto/modes.hpp"

#include <cstring>

#include "crypto/aes_impl.hpp"
#include "crypto/sha.hpp"
#include "util/error.hpp"

namespace mobiceal::crypto {

namespace {
void check_aligned(util::ByteSpan in, util::MutByteSpan out) {
  if (in.size() != out.size()) {
    throw util::CryptoError("mode: in/out size mismatch");
  }
  if (in.size() % kAesBlockSize != 0) {
    throw util::CryptoError("mode: length not multiple of block size");
  }
}

void check_range_args(std::size_t sector_size, util::ByteSpan in,
                      util::MutByteSpan out) {
  if (sector_size == 0 || sector_size % kAesBlockSize != 0) {
    throw util::CryptoError("sector range: bad sector size");
  }
  if (in.size() != out.size()) {
    throw util::CryptoError("sector range: in/out size mismatch");
  }
  if (in.size() % sector_size != 0) {
    throw util::CryptoError("sector range: length not multiple of sector");
  }
}
}  // namespace

void cbc_encrypt(const Aes& aes, util::ByteSpan iv, util::ByteSpan plaintext,
                 util::MutByteSpan ciphertext) {
  check_aligned(plaintext, ciphertext);
  if (iv.size() != kAesBlockSize) throw util::CryptoError("cbc: bad IV size");
  std::uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (std::size_t off = 0; off < plaintext.size(); off += 16) {
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = plaintext[off + i] ^ chain[i];
    aes.encrypt_block(block, ciphertext.data() + off);
    std::memcpy(chain, ciphertext.data() + off, 16);
  }
}

void cbc_decrypt(const Aes& aes, util::ByteSpan iv, util::ByteSpan ciphertext,
                 util::MutByteSpan plaintext) {
  check_aligned(ciphertext, plaintext);
  if (iv.size() != kAesBlockSize) throw util::CryptoError("cbc: bad IV size");
  std::uint8_t chain[16];
  std::memcpy(chain, iv.data(), 16);
  for (std::size_t off = 0; off < ciphertext.size(); off += 16) {
    std::uint8_t ct[16];
    std::memcpy(ct, ciphertext.data() + off, 16);  // allow in-place
    std::uint8_t block[16];
    aes.decrypt_block(ct, block);
    for (int i = 0; i < 16; ++i) plaintext[off + i] = block[i] ^ chain[i];
    std::memcpy(chain, ct, 16);
  }
}

void ctr_xcrypt(const Aes& aes, util::ByteSpan nonce, util::ByteSpan in,
                util::MutByteSpan out) {
  if (in.size() != out.size()) {
    throw util::CryptoError("ctr: in/out size mismatch");
  }
  if (nonce.size() != kAesBlockSize) throw util::CryptoError("ctr: bad nonce");
  std::uint8_t counter[16];
  std::memcpy(counter, nonce.data(), 16);
  std::uint8_t keystream[16];
  for (std::size_t off = 0; off < in.size(); off += 16) {
    aes.encrypt_block(counter, keystream);
    const std::size_t n = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      out[off + i] = in[off + i] ^ keystream[i];
    }
    // Increment the big-endian counter in the last 8 bytes.
    for (int i = 15; i >= 8; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

CbcEssivCipher::CbcEssivCipher(util::ByteSpan key)
    : data_aes_(key), essiv_aes_(Sha256::digest(key)) {}

void CbcEssivCipher::make_iv(std::uint64_t sector, std::uint8_t iv[16]) const {
  std::uint8_t plain[16] = {};
  util::store_le<std::uint64_t>(plain, sector);
  essiv_aes_.encrypt_block(plain, iv);
}

void CbcEssivCipher::encrypt_sector(std::uint64_t sector, util::ByteSpan in,
                                    util::MutByteSpan out) const {
  std::uint8_t iv[16];
  make_iv(sector, iv);
  cbc_encrypt(data_aes_, {iv, 16}, in, out);
}

void CbcEssivCipher::decrypt_sector(std::uint64_t sector, util::ByteSpan in,
                                    util::MutByteSpan out) const {
  std::uint8_t iv[16];
  make_iv(sector, iv);
  cbc_decrypt(data_aes_, {iv, 16}, in, out);
}

void CbcEssivCipher::encrypt_range(std::uint64_t first_sector,
                                   std::size_t sector_size, util::ByteSpan in,
                                   util::MutByteSpan out) const {
  if (!aes_impl::hw_available()) {
    SectorCipher::encrypt_range(first_sector, sector_size, in, out);
    return;
  }
  check_range_args(sector_size, in, out);
  aes_impl::cbc_essiv_encrypt_hw(data_aes_, essiv_aes_, first_sector,
                                 sector_size, in.size() / sector_size,
                                 in.data(), out.data());
}

void CbcEssivCipher::decrypt_range(std::uint64_t first_sector,
                                   std::size_t sector_size, util::ByteSpan in,
                                   util::MutByteSpan out) const {
  if (!aes_impl::hw_available()) {
    SectorCipher::decrypt_range(first_sector, sector_size, in, out);
    return;
  }
  check_range_args(sector_size, in, out);
  aes_impl::cbc_essiv_decrypt_hw(data_aes_, essiv_aes_, first_sector,
                                 sector_size, in.size() / sector_size,
                                 in.data(), out.data());
}

namespace {
// GF(2^128) doubling for the XTS tweak, little-endian per IEEE 1619.
void gf128_double_le(std::uint8_t t[16]) {
  const std::uint8_t carry = t[15] >> 7;
  for (int i = 15; i > 0; --i) {
    t[i] = static_cast<std::uint8_t>((t[i] << 1) | (t[i - 1] >> 7));
  }
  t[0] = static_cast<std::uint8_t>(t[0] << 1);
  if (carry) t[0] ^= 0x87;
}
}  // namespace

XtsCipher::XtsCipher(util::ByteSpan key)
    : data_aes_([&] {
        if (key.size() != 32 && key.size() != 64) {
          throw util::CryptoError("xts: key must be 32 or 64 bytes");
        }
        return util::ByteSpan{key.data(), key.size() / 2};
      }()),
      tweak_aes_(util::ByteSpan{key.data() + key.size() / 2, key.size() / 2}) {}

void XtsCipher::encrypt_sector(std::uint64_t sector, util::ByteSpan in,
                               util::MutByteSpan out) const {
  check_aligned(in, out);
  std::uint8_t tweak[16] = {};
  util::store_le<std::uint64_t>(tweak, sector);
  tweak_aes_.encrypt_block(tweak, tweak);
  for (std::size_t off = 0; off < in.size(); off += 16) {
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = in[off + i] ^ tweak[i];
    data_aes_.encrypt_block(block, block);
    for (int i = 0; i < 16; ++i) out[off + i] = block[i] ^ tweak[i];
    gf128_double_le(tweak);
  }
}

void XtsCipher::decrypt_sector(std::uint64_t sector, util::ByteSpan in,
                               util::MutByteSpan out) const {
  check_aligned(in, out);
  std::uint8_t tweak[16] = {};
  util::store_le<std::uint64_t>(tweak, sector);
  tweak_aes_.encrypt_block(tweak, tweak);
  for (std::size_t off = 0; off < in.size(); off += 16) {
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = in[off + i] ^ tweak[i];
    data_aes_.decrypt_block(block, block);
    for (int i = 0; i < 16; ++i) out[off + i] = block[i] ^ tweak[i];
    gf128_double_le(tweak);
  }
}

void NullCipher::encrypt_sector(std::uint64_t, util::ByteSpan in,
                                util::MutByteSpan out) const {
  if (in.data() != out.data()) std::memcpy(out.data(), in.data(), in.size());
}

void NullCipher::decrypt_sector(std::uint64_t, util::ByteSpan in,
                                util::MutByteSpan out) const {
  if (in.data() != out.data()) std::memcpy(out.data(), in.data(), in.size());
}

void SectorCipher::encrypt_range(std::uint64_t first_sector,
                                 std::size_t sector_size, util::ByteSpan in,
                                 util::MutByteSpan out) const {
  check_range_args(sector_size, in, out);
  for (std::size_t off = 0; off < in.size(); off += sector_size) {
    encrypt_sector(first_sector + off / sector_size,
                   {in.data() + off, sector_size},
                   {out.data() + off, sector_size});
  }
}

void SectorCipher::decrypt_range(std::uint64_t first_sector,
                                 std::size_t sector_size, util::ByteSpan in,
                                 util::MutByteSpan out) const {
  check_range_args(sector_size, in, out);
  for (std::size_t off = 0; off < in.size(); off += sector_size) {
    decrypt_sector(first_sector + off / sector_size,
                   {in.data() + off, sector_size},
                   {out.data() + off, sector_size});
  }
}

std::unique_ptr<SectorCipher> make_sector_cipher(const std::string& spec,
                                                 util::ByteSpan key) {
  if (spec == "aes-cbc-essiv:sha256") {
    return std::make_unique<CbcEssivCipher>(key);
  }
  if (spec == "aes-xts-plain64") {
    return std::make_unique<XtsCipher>(key);
  }
  if (spec == "null") {
    return std::make_unique<NullCipher>();
  }
  throw util::CryptoError("unknown cipher spec: " + spec);
}

}  // namespace mobiceal::crypto
