#include "crypto/sha.hpp"

#include <cstring>

namespace mobiceal::crypto {

namespace {
inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}
inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Merkle-Damgard padding shared by SHA-1 and SHA-256: the 0x80 marker, one
// run of zeros and the 64-bit big-endian bit length, over the `len`
// buffered bytes -- one final block, or two when the marker and length do
// not fit beside the buffered bytes.
template <typename ProcessBlock>
void pad_and_process(const std::uint8_t* buf, std::size_t len,
                     std::uint64_t total_len, ProcessBlock process_block) {
  std::uint8_t tail[128];
  std::memcpy(tail, buf, len);
  tail[len] = 0x80;
  const std::size_t end = len + 1 + 8 <= 64 ? 64 : 128;
  std::memset(tail + len + 1, 0, end - 8 - (len + 1));
  util::store_be64(tail + end - 8, total_len * 8);
  for (std::size_t off = 0; off < end; off += 64) process_block(tail + off);
}
}  // namespace

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buf_len_ = 0;
}

void Sha256::process_block(const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = util::load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  std::uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::update(util::ByteSpan data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

void Sha256::finish(std::uint8_t out[kDigestSize]) {
  pad_and_process(buf_.data(), buf_len_, total_len_,
                  [this](const std::uint8_t* b) { process_block(b); });
  buf_len_ = 0;
  for (int i = 0; i < 8; ++i) util::store_be32(out + 4 * i, h_[i]);
}

util::Bytes Sha256::digest(util::ByteSpan data) {
  Sha256 h;
  h.update(data);
  util::Bytes out(kDigestSize);
  h.finish(out.data());
  return out;
}

void Sha1::reset() {
  h_ = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0};
  total_len_ = 0;
  buf_len_ = 0;
}

void Sha1::process_block(const std::uint8_t block[64]) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = util::load_be32(block + 4 * i);
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDC;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6;
    }
    const std::uint32_t temp = rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::update(util::ByteSpan data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

void Sha1::finish(std::uint8_t out[kDigestSize]) {
  pad_and_process(buf_.data(), buf_len_, total_len_,
                  [this](const std::uint8_t* b) { process_block(b); });
  buf_len_ = 0;
  for (int i = 0; i < 5; ++i) util::store_be32(out + 4 * i, h_[i]);
}

util::Bytes Sha1::digest(util::ByteSpan data) {
  Sha1 h;
  h.update(data);
  util::Bytes out(kDigestSize);
  h.finish(out.data());
  return out;
}

}  // namespace mobiceal::crypto
