#include "crypto/kdf.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha.hpp"
#include "util/error.hpp"

namespace mobiceal::crypto {

namespace {

// An HMAC key, prepared once: the hash states after absorbing the ipad and
// the opad block. Every MAC under the key copies those two states instead
// of re-deriving the padded key and hashing the pads again.
template <typename Hash>
class HmacKey {
 public:
  static constexpr std::size_t kDigestSize = Hash::kDigestSize;

  explicit HmacKey(util::ByteSpan key) {
    constexpr std::size_t kBlock = Hash::kBlockSize;
    std::uint8_t k[kBlock] = {};
    if (key.size() > kBlock) {
      Hash h;
      h.update(key);
      h.finish(k);
    } else {
      std::memcpy(k, key.data(), key.size());
    }
    std::uint8_t pad[kBlock];
    for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x36;
    inner_.update({pad, kBlock});
    for (std::size_t i = 0; i < kBlock; ++i) pad[i] = k[i] ^ 0x5C;
    outer_.update({pad, kBlock});
  }

  void mac(util::ByteSpan message, std::uint8_t out[kDigestSize]) const {
    Hash inner = inner_;
    inner.update(message);
    std::uint8_t inner_digest[kDigestSize];
    inner.finish(inner_digest);
    Hash outer = outer_;
    outer.update({inner_digest, kDigestSize});
    outer.finish(out);
  }

 private:
  Hash inner_;
  Hash outer_;
};

template <typename Hash>
util::Bytes hmac_impl(util::ByteSpan key, util::ByteSpan message) {
  util::Bytes out(Hash::kDigestSize);
  HmacKey<Hash>(key).mac(message, out.data());
  return out;
}

template <typename Hash>
util::Bytes pbkdf2_impl(util::ByteSpan password, util::ByteSpan salt,
                        std::uint32_t iterations, std::size_t dk_len) {
  constexpr std::size_t h_len = Hash::kDigestSize;
  const HmacKey<Hash> prf(password);
  util::Bytes dk;
  dk.reserve(dk_len);
  util::Bytes salted(salt.begin(), salt.end());
  salted.resize(salt.size() + 4);

  std::uint32_t block_index = 1;
  while (dk.size() < dk_len) {
    // U1 = HMAC(password, salt || INT_BE(block_index))
    util::store_be32(salted.data() + salt.size(), block_index);
    std::uint8_t u[h_len];
    prf.mac(salted, u);
    std::uint8_t t[h_len];
    std::memcpy(t, u, h_len);
    for (std::uint32_t iter = 1; iter < iterations; ++iter) {
      prf.mac({u, h_len}, u);
      for (std::size_t i = 0; i < h_len; ++i) t[i] ^= u[i];
    }
    const std::size_t take = std::min(h_len, dk_len - dk.size());
    dk.insert(dk.end(), t, t + take);
    ++block_index;
  }
  return dk;
}

}  // namespace

util::Bytes hmac(HashAlg alg, util::ByteSpan key, util::ByteSpan message) {
  switch (alg) {
    case HashAlg::kSha1:
      return hmac_impl<Sha1>(key, message);
    case HashAlg::kSha256:
      return hmac_impl<Sha256>(key, message);
  }
  throw util::CryptoError("hmac: bad alg");
}

util::Bytes pbkdf2(HashAlg alg, util::ByteSpan password, util::ByteSpan salt,
                   std::uint32_t iterations, std::size_t dk_len) {
  if (iterations == 0) throw util::CryptoError("pbkdf2: zero iterations");
  if (dk_len == 0) throw util::CryptoError("pbkdf2: zero output length");
  switch (alg) {
    case HashAlg::kSha1:
      return pbkdf2_impl<Sha1>(password, salt, iterations, dk_len);
    case HashAlg::kSha256:
      return pbkdf2_impl<Sha256>(password, salt, iterations, dk_len);
  }
  throw util::CryptoError("pbkdf2: bad alg");
}

}  // namespace mobiceal::crypto
