// Known-answer tests for the from-scratch crypto substrate:
// FIPS-197 (AES), FIPS 180-4 (SHA), RFC 2202/4231 (HMAC), RFC 6070 (PBKDF2),
// RFC 8439 (ChaCha20), IEEE 1619 (XTS); plus agreement of the portable and
// AES-NI back ends and of the ESSIV range kernels with the per-sector loop.
#include <gtest/gtest.h>

#include <cstring>

#include "crypto/aes.hpp"
#include "crypto/aes_impl.hpp"
#include "crypto/kdf.hpp"
#include "crypto/modes.hpp"
#include "crypto/random.hpp"
#include "crypto/sha.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

using namespace mobiceal;
using util::from_hex;
using util::to_hex;

// ---- AES (FIPS-197 Appendix C) ------------------------------------------------

TEST(Aes, Fips197Aes128) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f");
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  crypto::Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex({back, 16}), to_hex(pt));
}

TEST(Aes, Fips197Aes192) {
  const auto key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  crypto::Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  crypto::Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "8ea2b7ca516745bfeafc49904b496089");
  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex({back, 16}), to_hex(pt));
}

TEST(Aes, RejectsBadKeySizes) {
  const util::Bytes k(17, 0);
  EXPECT_THROW(crypto::Aes aes(k), util::CryptoError);
  const util::Bytes k2(8, 0);
  EXPECT_THROW(crypto::Aes aes(k2), util::CryptoError);
}

TEST(Aes, InPlaceRoundTrip) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  crypto::Aes aes(key);
  std::uint8_t buf[16];
  for (int i = 0; i < 16; ++i) buf[i] = static_cast<std::uint8_t>(i * 7);
  std::uint8_t orig[16];
  std::memcpy(orig, buf, 16);
  aes.encrypt_block(buf, buf);
  EXPECT_NE(std::memcmp(buf, orig, 16), 0);
  aes.decrypt_block(buf, buf);
  EXPECT_EQ(std::memcmp(buf, orig, 16), 0);
}

// ---- CBC (NIST SP 800-38A F.2) ---------------------------------------------

TEST(Modes, CbcAes128Nist) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto iv = from_hex("000102030405060708090a0b0c0d0e0f");
  const auto pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  crypto::Aes aes(key);
  util::Bytes ct(pt.size());
  crypto::cbc_encrypt(aes, iv, pt, ct);
  EXPECT_EQ(to_hex(ct),
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2");
  util::Bytes back(pt.size());
  crypto::cbc_decrypt(aes, iv, ct, back);
  EXPECT_EQ(back, pt);
}

// ---- CTR (NIST SP 800-38A F.5) ---------------------------------------------

TEST(Modes, CtrAes128Nist) {
  const auto key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const auto pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  crypto::Aes aes(key);
  util::Bytes ct(pt.size());
  crypto::ctr_xcrypt(aes, nonce, pt, ct);
  EXPECT_EQ(to_hex(ct), "874d6191b620e3261bef6864990db6ce");
}

// ---- XTS (IEEE 1619 / XTS-AES-128 vector 4) -----------------------------------

TEST(Modes, XtsAes128Ieee1619) {
  // Vector 4 from IEEE 1619-2007 (data unit sequence number 0).
  const auto key = from_hex(
      "27182818284590452353602874713526"
      "31415926535897932384626433832795");
  const auto pt = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
      "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
      "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
      "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
      "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf"
      "e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
      "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
      "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f"
      "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
      "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"
      "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf"
      "e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  crypto::XtsCipher xts(key);
  util::Bytes ct(pt.size());
  xts.encrypt_sector(0, pt, ct);
  EXPECT_EQ(to_hex({ct.data(), 32}),
            "27a7479befa1d476489f308cd4cfa6e2"
            "a96e4bbe3208ff25287dd3819616e89c");
  util::Bytes back(pt.size());
  xts.decrypt_sector(0, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Modes, XtsDifferentSectorsDiffer) {
  const util::Bytes key(32, 0x11);
  crypto::XtsCipher xts(key);
  const util::Bytes pt(512, 0xAB);
  util::Bytes c0(512), c1(512);
  xts.encrypt_sector(0, pt, c0);
  xts.encrypt_sector(1, pt, c1);
  EXPECT_NE(c0, c1);
}

// ---- ESSIV ------------------------------------------------------------------

TEST(Modes, EssivRoundTripAndSectorSensitivity) {
  const util::Bytes key(16, 0x42);
  crypto::CbcEssivCipher essiv(key);
  util::Bytes pt(512);
  for (std::size_t i = 0; i < pt.size(); ++i) {
    pt[i] = static_cast<std::uint8_t>(i);
  }
  util::Bytes ct(512), back(512);
  essiv.encrypt_sector(7, pt, ct);
  EXPECT_NE(ct, pt);
  essiv.decrypt_sector(7, ct, back);
  EXPECT_EQ(back, pt);
  // Decrypting with the wrong sector number must not yield the plaintext.
  essiv.decrypt_sector(8, ct, back);
  EXPECT_NE(back, pt);
}

TEST(Modes, CiphertextLooksRandom) {
  // The deniability argument requires ciphertext ~ random noise.
  const util::Bytes key(16, 0x5A);
  crypto::CbcEssivCipher essiv(key);
  const util::Bytes pt(4096, 0);  // extreme structure: all zeros
  util::Bytes ct(4096);
  essiv.encrypt_sector(3, pt, ct);
  EXPECT_TRUE(util::looks_random(ct));
}

// ---- AES back ends: portable T-tables vs AES-NI ------------------------------

namespace {

struct BlockFns {
  const char* name;
  void (*encrypt)(const std::uint8_t*, std::size_t, const std::uint8_t*,
                  std::uint8_t*) noexcept;
  void (*decrypt)(const std::uint8_t*, std::size_t, const std::uint8_t*,
                  std::uint8_t*) noexcept;
};

const BlockFns kPortable{"portable", crypto::aes_impl::encrypt_block_portable,
                         crypto::aes_impl::decrypt_block_portable};
const BlockFns kHardware{"aes-ni", crypto::aes_impl::encrypt_block_hw,
                         crypto::aes_impl::decrypt_block_hw};

// FIPS-197 Appendix C: one plaintext under a 128-, 192- and 256-bit key.
void check_fips197(const BlockFns& fns) {
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  const struct {
    const char* key;
    const char* ct;
  } vectors[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& v : vectors) {
    const crypto::Aes aes(from_hex(v.key));
    std::uint8_t ct[16];
    fns.encrypt(aes.enc_round_keys(), aes.rounds(), pt.data(), ct);
    EXPECT_EQ(to_hex({ct, 16}), v.ct) << fns.name << " key " << v.key;
    fns.decrypt(aes.dec_round_keys(), aes.rounds(), ct, ct);
    EXPECT_EQ(to_hex({ct, 16}), to_hex(pt)) << fns.name << " key " << v.key;
  }
}

}  // namespace

TEST(AesBackends, PortableMatchesFips197) { check_fips197(kPortable); }

TEST(AesBackends, HardwareMatchesFips197) {
  if (!crypto::aes_impl::hw_available()) GTEST_SKIP() << "CPU has no AES";
  check_fips197(kHardware);
}

TEST(AesBackends, HardwareMatchesPortableOnRandomPairs) {
  if (!crypto::aes_impl::hw_available()) GTEST_SKIP() << "CPU has no AES";
  crypto::SecureRandom rng(20181);
  for (int i = 0; i < 10000; ++i) {
    const util::Bytes key = rng.bytes(16 + 8 * (i % 3));
    const util::Bytes block = rng.bytes(16);
    const crypto::Aes aes(key);
    std::uint8_t sw[16], hw[16];
    kPortable.encrypt(aes.enc_round_keys(), aes.rounds(), block.data(), sw);
    kHardware.encrypt(aes.enc_round_keys(), aes.rounds(), block.data(), hw);
    ASSERT_EQ(to_hex({sw, 16}), to_hex({hw, 16})) << "encrypt, pair " << i;
    kPortable.decrypt(aes.dec_round_keys(), aes.rounds(), block.data(), sw);
    kHardware.decrypt(aes.dec_round_keys(), aes.rounds(), block.data(), hw);
    ASSERT_EQ(to_hex({sw, 16}), to_hex({hw, 16})) << "decrypt, pair " << i;
  }
}

// ---- ESSIV range kernels vs the per-sector loop ----------------------------------

namespace {

using RangeFn = void (crypto::SectorCipher::*)(std::uint64_t, std::size_t,
                                               util::ByteSpan,
                                               util::MutByteSpan) const;
using SectorFn = void (crypto::SectorCipher::*)(std::uint64_t, util::ByteSpan,
                                                util::MutByteSpan) const;

// One range call against the reference loop, out of place and in place.
void expect_range_matches_loop(const crypto::SectorCipher& c, RangeFn range,
                               SectorFn sector, std::uint64_t first,
                               std::size_t sector_size, util::ByteSpan in) {
  util::Bytes want(in.size());
  for (std::size_t off = 0; off < in.size(); off += sector_size) {
    (c.*sector)(first + off / sector_size, {in.data() + off, sector_size},
                {want.data() + off, sector_size});
  }
  util::Bytes got(in.size());
  (c.*range)(first, sector_size, in, got);
  EXPECT_EQ(got, want) << "out of place";
  util::Bytes inplace(in.begin(), in.end());
  (c.*range)(first, sector_size, inplace, inplace);
  EXPECT_EQ(inplace, want) << "in place";
}

}  // namespace

TEST(EssivRange, KernelsMatchPerSectorLoop) {
  crypto::SecureRandom rng(4242);
  const std::uint64_t firsts[] = {0, 7, (std::uint64_t{1} << 32) - 3,
                                  ~std::uint64_t{0} - 8};
  for (const std::size_t key_len : {16, 32}) {
    const crypto::CbcEssivCipher c(rng.bytes(key_len));
    for (const std::size_t sector_size : {512, 4096}) {
      for (const std::uint64_t first : firsts) {
        for (std::size_t n = 1; n <= 17; ++n) {
          SCOPED_TRACE(testing::Message()
                       << "key " << key_len << " sector " << sector_size
                       << " first " << first << " count " << n);
          const util::Bytes pt = rng.bytes(n * sector_size);
          expect_range_matches_loop(c, &crypto::SectorCipher::encrypt_range,
                                    &crypto::SectorCipher::encrypt_sector,
                                    first, sector_size, pt);
          expect_range_matches_loop(c, &crypto::SectorCipher::decrypt_range,
                                    &crypto::SectorCipher::decrypt_sector,
                                    first, sector_size, pt);
        }
      }
    }
  }
}

TEST(EssivRange, RejectsBadArguments) {
  const crypto::CbcEssivCipher c(util::Bytes(16, 1));
  util::Bytes in(1024), out(1024), short_out(512);
  EXPECT_THROW(c.encrypt_range(0, 0, in, out), util::CryptoError);
  EXPECT_THROW(c.encrypt_range(0, 500, in, out), util::CryptoError);
  EXPECT_THROW(c.decrypt_range(0, 512, in, short_out), util::CryptoError);
  EXPECT_THROW(c.decrypt_range(0, 768, in, out), util::CryptoError);
}

// Pins the aes-cbc-essiv:sha256 bytes of 1 MiB across the 2^32 sector
// boundary. The digest was computed before the AES-NI back end existed, so
// any change of ciphertext on any host -- and so of every image the
// benches hash -- fails here.
TEST(EssivRange, GoldenDigestOfOneMiB) {
  util::Bytes key(16);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0xA0 + 3 * i);
  }
  util::Bytes pt(1u << 20);
  for (std::size_t i = 0; i < pt.size(); ++i) {
    pt[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  }
  const crypto::CbcEssivCipher c(key);
  util::Bytes ct(pt.size());
  c.encrypt_range(0xFFFFFFFEull, 512, pt, ct);
  EXPECT_EQ(to_hex(crypto::Sha256::digest(ct)),
            "32a691471ebec55af76822a40b76f2b6c46247cdb9e1c2037ca116b69b4dbb2b");
  c.decrypt_range(0xFFFFFFFEull, 512, ct, ct);
  EXPECT_EQ(ct, pt);
}

// ---- SHA (FIPS 180-4 / NIST examples) -------------------------------------------

TEST(Sha, Sha256Abc) {
  EXPECT_EQ(to_hex(crypto::Sha256::digest(util::bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha, Sha256Empty) {
  EXPECT_EQ(to_hex(crypto::Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha, Sha256TwoBlocks) {
  EXPECT_EQ(
      to_hex(crypto::Sha256::digest(util::bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha, Sha256MillionA) {
  crypto::Sha256 h;
  const util::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  util::Bytes out(32);
  h.finish(out.data());
  EXPECT_EQ(to_hex(out),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha, Sha1Abc) {
  EXPECT_EQ(to_hex(crypto::Sha1::digest(util::bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha, Sha1Empty) {
  EXPECT_EQ(to_hex(crypto::Sha1::digest({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

// Every message length 0..129 crosses the one-block / two-block padding
// boundary (55/56 bytes) twice; the expected values are Python hashlib's
// SHA-256 over the concatenated per-length digests.
namespace {
template <typename Hash>
std::string digest_of_boundary_digests() {
  util::Bytes all;
  for (std::size_t n = 0; n < 130; ++n) {
    util::Bytes msg(n);
    for (std::size_t i = 0; i < n; ++i) {
      msg[i] = static_cast<std::uint8_t>(i * 7 + n);
    }
    const util::Bytes d = Hash::digest(msg);
    all.insert(all.end(), d.begin(), d.end());
  }
  return to_hex(crypto::Sha256::digest(all));
}
}  // namespace

TEST(Sha, PaddingBoundaries) {
  EXPECT_EQ(digest_of_boundary_digests<crypto::Sha1>(),
            "0bd17d32c82dc66cca5a80ef13527a88a35a16429c5bc190049e6a7dbabec01d");
  EXPECT_EQ(digest_of_boundary_digests<crypto::Sha256>(),
            "f0a356ea9e6f1782f5f990ba58676d20f035df61db3b6545e977112d486331c9");
}

// ---- HMAC (RFC 2202 / RFC 4231) ---------------------------------------------------

TEST(Hmac, Rfc4231Case1Sha256) {
  const util::Bytes key(20, 0x0b);
  const auto mac =
      crypto::hmac(crypto::HashAlg::kSha256, key, util::bytes_of("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc2202Case2Sha1) {
  const auto mac =
      crypto::hmac(crypto::HashAlg::kSha1, util::bytes_of("Jefe"),
                   util::bytes_of("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const util::Bytes key(131, 0xaa);  // longer than the SHA-256 block
  const auto mac = crypto::hmac(
      crypto::HashAlg::kSha256, key,
      util::bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---- PBKDF2 (RFC 6070) --------------------------------------------------------------

TEST(Pbkdf2, Rfc6070Iter1) {
  const auto dk =
      crypto::pbkdf2(crypto::HashAlg::kSha1, util::bytes_of("password"),
                     util::bytes_of("salt"), 1, 20);
  EXPECT_EQ(to_hex(dk), "0c60c80f961f0e71f3a9b524af6012062fe037a6");
}

TEST(Pbkdf2, Rfc6070Iter4096) {
  const auto dk =
      crypto::pbkdf2(crypto::HashAlg::kSha1, util::bytes_of("password"),
                     util::bytes_of("salt"), 4096, 20);
  EXPECT_EQ(to_hex(dk), "4b007901b765489abead49d926f721d065a429c1");
}

TEST(Pbkdf2, Rfc6070LongInputs) {
  const auto dk = crypto::pbkdf2(
      crypto::HashAlg::kSha1,
      util::bytes_of("passwordPASSWORDpassword"),
      util::bytes_of("saltSALTsaltSALTsaltSALTsaltSALTsalt"), 4096, 25);
  EXPECT_EQ(to_hex(dk), "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038");
}

TEST(Pbkdf2, RejectsDegenerateParams) {
  EXPECT_THROW(crypto::pbkdf2(crypto::HashAlg::kSha1, {}, {}, 0, 16),
               util::CryptoError);
  EXPECT_THROW(crypto::pbkdf2(crypto::HashAlg::kSha1, {}, {}, 1, 0),
               util::CryptoError);
}

// ---- ChaCha20 (RFC 8439 §2.3.2) -------------------------------------------------------

TEST(ChaCha20, Rfc8439BlockVector) {
  const auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = from_hex("000000090000004a00000000");
  std::uint8_t out[64];
  crypto::chacha20_block(key.data(), 1, nonce.data(), out);
  EXPECT_EQ(to_hex({out, 64}),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(SecureRandom, DeterministicPerSeed) {
  crypto::SecureRandom a(42), b(42), c(43);
  const auto ba = a.bytes(256);
  const auto bb = b.bytes(256);
  const auto bc = c.bytes(256);
  EXPECT_EQ(ba, bb);
  EXPECT_NE(ba, bc);
}

TEST(SecureRandom, OutputLooksRandom) {
  crypto::SecureRandom r(7);
  EXPECT_TRUE(util::looks_random(r.bytes(8192)));
}

TEST(SecureRandom, NoiseIndistinguishableFromCiphertext) {
  // Core deniability premise (Sec. IV-A, question 2): dummy noise and FDE
  // ciphertext must pass the same randomness battery.
  crypto::SecureRandom r(11);
  const auto noise = r.bytes(4096);
  const util::Bytes key(16, 0x33);
  crypto::CbcEssivCipher essiv(key);
  util::Bytes pt(4096, 0x00);
  util::Bytes ct(4096);
  essiv.encrypt_sector(9, pt, ct);
  EXPECT_TRUE(util::looks_random(noise));
  EXPECT_TRUE(util::looks_random(ct));
  // Identical statistics class: both entropy values within noise floor.
  EXPECT_NEAR(util::shannon_entropy(noise), util::shannon_entropy(ct), 0.2);
}

// ---- constant-time compare ----------------------------------------------------------------

TEST(Bytes, CtEqualBasics) {
  const auto a = util::bytes_of("secret-password");
  const auto b = util::bytes_of("secret-password");
  const auto c = util::bytes_of("secret-passw0rd");
  EXPECT_TRUE(util::ct_equal(a, b));
  EXPECT_FALSE(util::ct_equal(a, c));
  EXPECT_FALSE(util::ct_equal(a, util::bytes_of("short")));
}

TEST(Bytes, HexRoundTrip) {
  const auto data = from_hex("00ff10ab");
  EXPECT_EQ(to_hex(data), "00ff10ab");
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}
