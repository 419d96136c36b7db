// sp::io wire-format net: golden-blob version pinning (byte-level, plus
// size and digest pins of polynomial, ciphertext and key blobs), wire
// primitive round trips, bit-identical (de)serialization of polys /
// plaintexts / ciphertexts / keys at two parameter sets, header rejection
// diagnostics (magic, version, kind, fingerprint, truncation, trailing
// bytes, corrupt lengths, out-of-range residues), a params blob whose noise
// width a context refuses, mutation sweeps over every residue row of a
// key-switch key and a ciphertext blob and over a rotation-step list, frame
// framing, and the serving contract: a keygen-less runtime reconstructed
// purely from deserialized blobs plans and runs a window pipeline and
// lenet_small's conv/matmul stages bit-identically to the key owner, and a
// plan made for another pipeline is refused at run time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "io/serialize.h"
#include "models/zoo.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "smartpaf/replace.h"
#include "train/checkpoint.h"

namespace {

using namespace sp;
using namespace sp::fhe;

const double kParityTol = std::ldexp(1.0, -20);

/// Asserts `fn` throws sp::Error whose message contains `substr`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& substr) {
  bool threw = false;
  try {
    fn();
  } catch (const sp::Error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
        << "message was: " << e.what();
  }
  EXPECT_TRUE(threw) << "expected an sp::Error containing \"" << substr << "\"";
}

bool polys_equal(const RnsPoly& a, const RnsPoly& b) {
  if (a.q_count() != b.q_count() || a.has_special() != b.has_special() ||
      a.is_ntt() != b.is_ntt() || a.n() != b.n())
    return false;
  for (int i = 0; i < a.row_count(); ++i)
    for (std::size_t j = 0; j < a.n(); ++j)
      if (a.row(i)[j] != b.row(i)[j]) return false;
  return true;
}

bool ciphertexts_equal(const Ciphertext& a, const Ciphertext& b) {
  if (a.size() != b.size() || a.scale != b.scale) return false;
  for (int i = 0; i < a.size(); ++i)
    if (!polys_equal(a.parts[static_cast<std::size_t>(i)],
                     b.parts[static_cast<std::size_t>(i)]))
      return false;
  return true;
}

/// lenet_small with deg-3 test PAFs at a frozen scale of 2: three conv
/// stages on grid layouts, two PAF-ReLUs and a matmul — 12 levels.
smartpaf::FhePipeline lenet_pipeline() {
  models::LenetConfig cfg;
  cfg.seed = 6;
  nn::Model model = models::lenet_small(cfg);
  for (const auto& site : smartpaf::find_nonpoly_sites(model)) {
    sp::Rng rng(43 + site.index);
    std::vector<double> c(4, 0.0);
    for (int k = 1; k <= 3; k += 2) c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 6.0;
    smartpaf::replace_site(model, site, approx::CompositePaf("deg3", {approx::Polynomial(c)}),
                           smartpaf::ScaleMode::Dynamic);
  }
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(2.0f);
  return smartpaf::FhePipeline::lower(
      model, smartpaf::GridShape{cfg.in_channels, cfg.image, cfg.image});
}

/// Shared small runtime: keygen once for the whole suite.
class WireTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 4, 40),
                                                 /*seed=*/77);
  }
  static void TearDownTestSuite() { rt_.reset(); }

  static std::vector<double> random_slots(std::uint64_t seed) {
    sp::Rng rng(seed);
    std::vector<double> v(rt_->ctx().slot_count());
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return v;
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> WireTest::rt_;

// -------------------------------------------------------------- golden blob --

// The full serialized CkksParams::for_depth(2048, 4, 40) blob, byte for
// byte. This is the version pin: ANY layout change (field order, widths,
// header shape, fingerprint recipe) breaks this test, which is the signal to
// bump sp::io::kVersion and regenerate. Layout: docs/WIRE.md.
const std::vector<std::uint8_t> kGoldenParamsBlob = {
    0x53, 0x50, 0x57, 0x42,                          // magic "SPWB"
    0x03, 0x00,                                      // version 3
    0x01, 0x00,                                      // kind CkksParams
    0x3a, 0x78, 0x92, 0xe6, 0xb8, 0x9b, 0x61, 0x5f,  // params fingerprint
    0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // poly_degree 2048
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 5 q_bits entries
    0x3c, 0x00, 0x00, 0x00,                          // 60
    0x28, 0x00, 0x00, 0x00,                          // 40
    0x28, 0x00, 0x00, 0x00,                          // 40
    0x28, 0x00, 0x00, 0x00,                          // 40
    0x28, 0x00, 0x00, 0x00,                          // 40
    0x3c, 0x00, 0x00, 0x00,                          // special_bits 60
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x70, 0x42,  // scale 2^40
    0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0x09, 0x40,  // noise_stddev 3.2
};

TEST(WireGolden, ParamsBlobIsByteStable) {
  const CkksParams params = CkksParams::for_depth(2048, 4, 40);
  EXPECT_EQ(io::serialize(params), kGoldenParamsBlob);
  EXPECT_EQ(io::params_fingerprint(params), 0x5f619bb8e692783aULL);
}

TEST(WireGolden, GoldenBlobDeserializes) {
  const CkksParams params = io::deserialize_params(kGoldenParamsBlob);
  EXPECT_EQ(params.poly_degree, 2048u);
  EXPECT_EQ(params.q_bits, (std::vector<int>{60, 40, 40, 40, 40}));
  EXPECT_EQ(params.special_bits, 60);
  EXPECT_EQ(params.scale, std::ldexp(1.0, 40));
  EXPECT_NEAR(params.noise_stddev, 3.2, 1e-12);
}

TEST(WireGolden, ZeroNoiseParamsDecodeButNoContextAcceptsThem) {
  // The fingerprint leaves the noise width out (covering it would move every
  // golden header), so zeroing it still decodes. The context a server builds
  // from that Hello refuses it, so no session opens on it.
  auto blob = kGoldenParamsBlob;
  std::fill(blob.end() - 8, blob.end(), 0);  // noise_stddev 0.0
  const CkksParams params = io::deserialize_params(blob);
  EXPECT_EQ(params.noise_stddev, 0.0);
  expect_error_containing([&] { CkksContext ctx(params); }, "noise_stddev 0 ");
}

// The fixed-layout prologue (header + config + progress + flags) of a
// TrainingState checkpoint for the default TrainConfig at iteration 2 with a
// velocity ciphertext — everything before the first nested ciphertext blob,
// whose bytes depend on encryption randomness and so cannot be pinned.
// Same contract as the params pin above: any layout drift breaks this test,
// which is the signal to bump sp::io::kVersion and regenerate.
const std::vector<std::uint8_t> kGoldenTrainingStatePrologue = {
    0x53, 0x50, 0x57, 0x42,                          // magic "SPWB"
    0x03, 0x00,                                      // version 3
    0x0b, 0x00,                                      // kind TrainingState (11)
    0x3a, 0x78, 0x92, 0xe6, 0xb8, 0x9b, 0x61, 0x5f,  // params fingerprint
    0x00,                                            // optimizer SgdMomentum
    0x04, 0x00, 0x00, 0x00,                          // features 4
    0x08, 0x00, 0x00, 0x00,                          // batch 8
    0x03, 0x00, 0x00, 0x00,                          // iterations 3
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,  // lr 0.25
    0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f,  // momentum 0.9
    0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f,  // beta1 0.9
    0x2b, 0x87, 0x16, 0xd9, 0xce, 0xf7, 0xef, 0x3f,  // beta2 0.999
    0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f,  // adam_eps 0.1
    0x03, 0x00, 0x00, 0x00,                          // sigmoid_degree 3
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40,  // sigmoid_range 8.0
    0x05, 0x00, 0x00, 0x00,                          // invsqrt_degree 5
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  // vhat_max 1.0
    0x00, 0x00, 0x00, 0x00,                          // matvec_n1 0 (auto)
    0x02, 0x00, 0x00, 0x00,                          // iteration 2
    0x01,                                            // flags: velocity only
};

TEST_F(WireTest, TrainingStatePrologueIsByteStable) {
  train::TrainingState st;
  st.config = train::TrainConfig{};
  st.iteration = 2;
  st.weights = rt_->encrypt({0.5, -0.25, 0.125, 0.0});
  st.velocity = rt_->encrypt({0.0, 0.0, 0.0, 0.0});
  const std::vector<std::uint8_t> bytes = train::serialize_training_state(st);
  ASSERT_GT(bytes.size(), kGoldenTrainingStatePrologue.size());
  EXPECT_TRUE(std::equal(kGoldenTrainingStatePrologue.begin(),
                         kGoldenTrainingStatePrologue.end(), bytes.begin()))
      << "TrainingState prologue layout drifted — bump sp::io::kVersion";

  // And the whole blob round-trips bit-identically.
  const train::TrainingState back =
      train::deserialize_training_state(bytes, rt_->ctx());
  EXPECT_EQ(train::serialize_training_state(back), bytes);
}

/// Three chain primes plus the special prime at N = 2048; no keygen.
const CkksContext& small_ctx() {
  static const CkksContext ctx(CkksParams::for_depth(2048, 2, 40));
  return ctx;
}

/// A polynomial whose residues follow a fixed formula of (tag, row,
/// coefficient), so pinned bytes never depend on an RNG. The odd 64-bit
/// multiplier spreads residues over each prime's full width, so every byte
/// of every word carries data.
RnsPoly formula_poly(const CkksContext& ctx, bool with_special, bool ntt, std::uint64_t tag) {
  RnsPoly p(&ctx, ctx.q_count(), with_special, ntt);
  for (int i = 0; i < p.row_count(); ++i) {
    const std::uint64_t q = p.row_mod(i).value();
    for (std::size_t j = 0; j < p.n(); ++j)
      p.row(i)[j] = (j * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i) * 1000003 +
                     tag * 7919) % q;
  }
  return p;
}

/// A key-switch key shaped like keygen's (one NTT-form digit pair over the
/// extended basis per chain prime) with formula residues.
KSwitchKey formula_kswitch(const CkksContext& ctx, std::uint64_t tag) {
  KSwitchKey key;
  for (std::uint64_t d = 0; d < static_cast<std::uint64_t>(ctx.q_count()); ++d)
    key.digits.push_back({formula_poly(ctx, true, true, tag + 2 * d),
                          formula_poly(ctx, true, true, tag + 2 * d + 1)});
  return key;
}

/// A 3-part (pre-relinearization) NTT-form ciphertext with formula residues.
Ciphertext formula_ciphertext(const CkksContext& ctx, std::uint64_t tag) {
  Ciphertext ct;
  for (std::uint64_t k = 0; k < 3; ++k)
    ct.parts.push_back(formula_poly(ctx, false, true, tag + k));
  ct.scale = ctx.scale();
  return ct;
}

std::uint64_t fnv_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t b : bytes) h = fnv_mix(h, b);
  return h;
}

// Size and FNV-1a digest of four polynomial-carrying blobs, byte for byte.
// Same contract as the params pin: a codec change that moves any byte of a
// residue row, a count or a flag breaks this test.
TEST(WireGolden, PolyCiphertextAndKeyBlobsAreByteStable) {
  const CkksContext& ctx = small_ctx();
  ASSERT_EQ(ctx.q_count(), 3);
  GaloisKeys gk;
  gk.keys.emplace(5, formula_kswitch(ctx, 40));
  gk.keys.emplace(2 * ctx.n() - 1, formula_kswitch(ctx, 60));
  const auto pin = [](const std::vector<std::uint8_t>& blob, std::size_t size,
                      std::uint64_t digest, const char* kind) {
    EXPECT_EQ(blob.size(), size) << kind;
    EXPECT_EQ(fnv_bytes(blob), digest) << kind << " digest 0x" << std::hex << fnv_bytes(blob);
  };

  const auto poly_blob = io::serialize(formula_poly(ctx, true, true, 1));
  pin(poly_blob, 65598, 0x72e3d1410916865aULL, "RnsPoly");
  EXPECT_EQ(io::serialize(io::deserialize_poly(poly_blob, ctx)), poly_blob);

  const auto ct_blob = io::serialize(formula_ciphertext(ctx, 10));
  pin(ct_blob, 147598, 0x1bfa5105d2e595b3ULL, "Ciphertext");
  EXPECT_EQ(io::serialize(io::deserialize_ciphertext(ct_blob, ctx)), ct_blob);

  const auto key_blob = io::serialize(formula_kswitch(ctx, 20));
  pin(key_blob, 393516, 0xfd1219ab120a9441ULL, "KSwitchKey");
  EXPECT_EQ(io::serialize(io::deserialize_kswitch_key(key_blob, ctx)), key_blob);

  const auto gk_blob = io::serialize(gk);
  pin(gk_blob, 787040, 0x06a39c0c21b73c08ULL, "GaloisKeys");
  EXPECT_EQ(io::serialize(io::deserialize_galois_keys(gk_blob, ctx)), gk_blob);
}

#ifndef NDEBUG
// Builds without NDEBUG fill a write-once polynomial with all-ones, which is
// no residue: a row its caller forgot to write cannot decode.
TEST(WireWriteOnce, UnwrittenRowFailsDecoding) {
  const CkksContext& ctx = small_ctx();
  RnsPoly p(&ctx, ctx.q_count(), /*with_special=*/false, /*ntt_form=*/true, RnsPoly::kUnwritten);
  const RnsPoly written = formula_poly(ctx, false, true, 3);
  for (int i = 0; i + 1 < p.row_count(); ++i)
    std::copy(written.row(i), written.row(i) + p.n(), p.row(i));
  expect_error_containing([&] { io::deserialize_poly(io::serialize(p), ctx); },
                          "residue out of range at row 2, index 0");
}
#endif

// --------------------------------------------------------------- primitives --

TEST(WirePrimitives, ScalarsRoundTripLittleEndian) {
  io::WireWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-7);
  w.i64(-1);
  w.f64(-0.125);
  w.boolean(true);
  w.str("smartpaf");
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_EQ(bytes[0], 0xab);
  EXPECT_EQ(bytes[1], 0x34);  // u16 low byte first
  EXPECT_EQ(bytes[2], 0x12);

  io::WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "smartpaf");
  EXPECT_TRUE(r.done());
  r.expect_done();
}

TEST(WirePrimitives, TruncatedAndMalformedReadsThrow) {
  io::WireWriter w;
  w.u32(5);
  const std::vector<std::uint8_t> bytes = w.bytes();
  expect_error_containing(
      [&] {
        io::WireReader r(bytes);
        r.u64();
      },
      "truncated");
  expect_error_containing(
      [&] {
        io::WireReader r(bytes);
        r.u8();
        r.u8();  // value 0 then 5: second byte is 0... read all four then fail
        r.u8();
        r.u8();
        r.u8();
      },
      "truncated");
  // A corrupt length prefix is rejected BEFORE allocation.
  io::WireWriter big;
  big.u64(0xffffffffffffULL);
  expect_error_containing(
      [&] {
        io::WireReader r(big.bytes());
        r.i32_vec();
      },
      "length prefix");
  // Bool bytes other than 0/1 are malformed, not truthy.
  io::WireWriter b;
  b.u8(2);
  expect_error_containing(
      [&] {
        io::WireReader r(b.bytes());
        r.boolean();
      },
      "bool");
  // Trailing bytes after a payload are an error, not padding.
  expect_error_containing(
      [&] {
        io::WireReader r(bytes);
        r.u16();
        r.expect_done();
      },
      "trailing");
}

TEST(WirePrimitives, FramesRoundTripAndSignalCleanEof) {
  std::stringstream channel;
  io::write_frame(channel, {1, 2, 3});
  io::write_frame(channel, {});  // empty frames are legal
  io::write_frame(channel, {0xff});
  std::vector<std::uint8_t> payload;
  EXPECT_TRUE(io::read_frame(channel, payload));
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(io::read_frame(channel, payload));
  EXPECT_TRUE(payload.empty());
  EXPECT_TRUE(io::read_frame(channel, payload));
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{0xff}));
  EXPECT_FALSE(io::read_frame(channel, payload));  // clean EOF, not an error

  // A frame cut mid-payload throws instead of returning short data.
  std::stringstream cut;
  io::write_frame(cut, {9, 9, 9, 9});
  std::string s = cut.str();
  s.resize(s.size() - 2);
  std::stringstream truncated(s);
  expect_error_containing([&] { io::read_frame(truncated, payload); }, "truncated");
}

TEST(WirePrimitives, FrameSizeCapRejectsHostilePrefixBeforeAllocation) {
  // A hostile/corrupt length prefix must be rejected by the cap check, not
  // handed to vector::resize (a 0xFFFFFFFF prefix would pin ~4 GiB).
  std::stringstream hostile;
  const std::uint8_t prefix[4] = {0xff, 0xff, 0xff, 0xff};
  hostile.write(reinterpret_cast<const char*>(prefix), 4);
  std::vector<std::uint8_t> payload;
  expect_error_containing([&] { io::read_frame(hostile, payload); }, "exceeds");

  // Caller-configurable cap: a legitimate frame one byte over it is refused,
  // and accepted once the cap covers it.
  std::stringstream channel;
  io::write_frame(channel, std::vector<std::uint8_t>(16, 7));
  expect_error_containing([&] { io::read_frame(channel, payload, 15); }, "exceeds");
  std::stringstream again;
  io::write_frame(again, std::vector<std::uint8_t>(16, 7));
  EXPECT_TRUE(io::read_frame(again, payload, 16));
  EXPECT_EQ(payload.size(), 16u);
}

// -------------------------------------------------------------- round trips --

TEST_F(WireTest, PolyPlaintextCiphertextRoundTripBitIdentical) {
  const auto slots = random_slots(5);
  const Plaintext pt = rt_->encoder().encode(slots, rt_->ctx().scale(), 3);
  const Plaintext pt2 = io::deserialize_plaintext(io::serialize(pt), rt_->ctx());
  EXPECT_TRUE(polys_equal(pt.poly, pt2.poly));
  EXPECT_EQ(pt.scale, pt2.scale);

  // Coefficient-form partial-chain poly.
  RnsPoly poly(&rt_->ctx(), 2, /*with_special=*/false, /*ntt_form=*/false);
  sp::Rng rng(11);
  poly.sample_uniform(rng);
  EXPECT_TRUE(polys_equal(poly, io::deserialize_poly(io::serialize(poly), rt_->ctx())));

  // 2-part ciphertext and 3-part (pre-relinearization) ciphertext.
  const Ciphertext ct = rt_->encrypt(slots);
  EXPECT_TRUE(ciphertexts_equal(ct, io::deserialize_ciphertext(io::serialize(ct),
                                                               rt_->ctx())));
  const Ciphertext prod = rt_->evaluator().multiply(ct, ct);
  EXPECT_EQ(prod.size(), 3);
  const Ciphertext prod2 = io::deserialize_ciphertext(io::serialize(prod), rt_->ctx());
  EXPECT_TRUE(ciphertexts_equal(prod, prod2));
  // The deserialized copy decrypts identically (exact same residues).
  EXPECT_EQ(rt_->decrypt(prod2), rt_->decrypt(prod));
}

TEST_F(WireTest, KeyMaterialRoundTripsBitIdentical) {
  const PublicKey& pk = rt_->public_key();
  const PublicKey pk2 = io::deserialize_public_key(io::serialize(pk), rt_->ctx());
  EXPECT_TRUE(polys_equal(pk.p0, pk2.p0));
  EXPECT_TRUE(polys_equal(pk.p1, pk2.p1));

  const KSwitchKey& relin = rt_->relin_key();
  const KSwitchKey relin2 = io::deserialize_kswitch_key(io::serialize(relin), rt_->ctx());
  ASSERT_EQ(relin2.digits.size(), relin.digits.size());
  for (std::size_t i = 0; i < relin.digits.size(); ++i) {
    EXPECT_TRUE(polys_equal(relin.digits[i][0], relin2.digits[i][0]));
    EXPECT_TRUE(polys_equal(relin.digits[i][1], relin2.digits[i][1]));
  }

  const auto gk_snapshot = rt_->rotation_keys({1, -2, 8});
  const GaloisKeys& gk = *gk_snapshot;
  const GaloisKeys gk2 = io::deserialize_galois_keys(io::serialize(gk), rt_->ctx());
  ASSERT_EQ(gk2.keys.size(), gk.keys.size());
  for (const auto& [elt, key] : gk.keys) {
    const auto it = gk2.keys.find(elt);
    ASSERT_TRUE(it != gk2.keys.end());
    ASSERT_EQ(it->second.digits.size(), key.digits.size());
    for (std::size_t i = 0; i < key.digits.size(); ++i)
      EXPECT_TRUE(polys_equal(key.digits[i][0], it->second.digits[i][0]));
  }

  // Secret keys round trip too (client-side persistence; never ship one).
  KeyGenerator kg(rt_->ctx(), 123);
  const SecretKey& sk = kg.secret_key();
  const SecretKey sk2 = io::deserialize_secret_key(io::serialize(sk), rt_->ctx());
  EXPECT_TRUE(polys_equal(sk.s_ntt, sk2.s_ntt));
  EXPECT_TRUE(polys_equal(sk.s_coeff, sk2.s_coeff));
}

TEST_F(WireTest, SecondParamSetRoundTrips) {
  // A different ring (N = 4096, different chain) gets its own fingerprint
  // and round-trips under it.
  const CkksParams params = CkksParams::for_depth(4096, 5, 35);
  EXPECT_NE(io::params_fingerprint(params),
            io::params_fingerprint(rt_->ctx().params()));
  const CkksParams back = io::deserialize_params(io::serialize(params));
  EXPECT_EQ(back.poly_degree, params.poly_degree);
  EXPECT_EQ(back.q_bits, params.q_bits);
  EXPECT_EQ(back.special_bits, params.special_bits);
  EXPECT_EQ(back.scale, params.scale);

  const CkksContext ctx(params);
  RnsPoly poly(&ctx, 3, /*with_special=*/true, /*ntt_form=*/false);
  sp::Rng rng(17);
  poly.sample_uniform(rng);
  EXPECT_TRUE(polys_equal(poly, io::deserialize_poly(io::serialize(poly), ctx)));
}

TEST_F(WireTest, RunRejectsInconsistentMatmulPlans) {
  // A matmul indexes its input by the layout's block width and builds masks
  // tile by tile; a plan whose layout or pack stride disagrees with the
  // pipeline must be refused at run time, never executed.
  std::vector<double> w(4 * 8);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 0.1 * static_cast<double>(i % 5) - 0.2;
  const auto pipe = smartpaf::FhePipeline::builder().input_width(8).matmul(4, 8, w).build();
  const smartpaf::Plan plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  const Ciphertext x = rt_->encrypt(random_slots(41));
  EXPECT_NO_THROW(pipe.run(*rt_, plan, x));

  for (const std::size_t block_width : {std::size_t{0}, std::size_t{1}}) {
    smartpaf::Plan bad = plan;
    bad.stages[0].layout_in.blocks = 2;
    bad.stages[0].layout_in.block_width = block_width;
    expect_error_containing([&] { pipe.run(*rt_, bad, x); }, "layout does not match");
  }
  // 1000 does not divide the 1024 slots: tiled masks would run off the end.
  smartpaf::Plan bad_stride = plan;
  bad_stride.pack_stride = 1000;
  expect_error_containing([&] { pipe.run(*rt_, bad_stride, x); }, "pack stride");
}

// ---------------------------------------------------------------- rejection --

TEST_F(WireTest, RejectsForeignAndCorruptBlobs) {
  const auto slots = random_slots(21);
  const Ciphertext ct = rt_->encrypt(slots);
  std::vector<std::uint8_t> blob = io::serialize(ct);

  // Wrong magic.
  {
    auto bad = blob;
    bad[0] = 'X';
    expect_error_containing(
        [&] { io::deserialize_ciphertext(bad, rt_->ctx()); }, "magic");
  }
  // Unsupported version.
  {
    auto bad = blob;
    bad[4] = 0x2a;
    expect_error_containing(
        [&] { io::deserialize_ciphertext(bad, rt_->ctx()); }, "version");
  }
  // Right header, wrong kind: a public-key blob is not a ciphertext.
  expect_error_containing(
      [&] { io::deserialize_ciphertext(io::serialize(rt_->public_key()), rt_->ctx()); },
      "expected a Ciphertext");
  // Mismatched ring: blobs from this context are rejected by another chain.
  {
    const CkksContext other(CkksParams::for_depth(4096, 5, 35));
    expect_error_containing([&] { io::deserialize_ciphertext(blob, other); },
                            "fingerprint");
  }
  // Truncation anywhere in the payload.
  {
    auto bad = blob;
    bad.resize(bad.size() - 1);
    expect_error_containing(
        [&] { io::deserialize_ciphertext(bad, rt_->ctx()); }, "truncated");
  }
  // Trailing garbage after the payload.
  {
    auto bad = blob;
    bad.push_back(0);
    expect_error_containing(
        [&] { io::deserialize_ciphertext(bad, rt_->ctx()); }, "trailing");
  }
  // An out-of-range residue (tampered word) is rejected, not accepted as a
  // valid ring element. First residue word starts after the 16-byte header,
  // the 4-byte part count, and the poly prologue (8 n + 4 q_count + 2 bools
  // + 8 span length); its MSB at +7 pushes it far above any 40-bit prime.
  {
    auto bad = blob;
    bad[16 + 4 + 8 + 4 + 2 + 8 + 7] = 0xff;
    expect_error_containing(
        [&] { io::deserialize_ciphertext(bad, rt_->ctx()); }, "residue");
  }
  // A params blob whose fingerprint disagrees with its own payload was
  // stitched or corrupted.
  {
    auto bad = io::serialize(rt_->ctx().params());
    bad[8] ^= 0x01;  // flip one fingerprint bit
    expect_error_containing([&] { io::deserialize_params(bad); }, "fingerprint");
  }
}

// ----------------------------------------------------------- mutation sweep --

/// A residue row inside a serialized blob: the byte offset of its u64
/// length prefix, its index in its polynomial, and whether it is the
/// special-prime row.
struct RowSpan {
  std::size_t offset;
  int row;
  bool special;
};

/// Walks one headerless RnsPoly starting at `offset` by the layout in
/// docs/WIRE.md (n, q_count, two flags, then length-prefixed rows),
/// recording its row spans and advancing `offset` past it.
void add_row_spans(std::vector<RowSpan>& spans, std::size_t& offset, const RnsPoly& p) {
  offset += 8 + 4 + 1 + 1;
  for (int i = 0; i < p.row_count(); ++i) {
    spans.push_back({offset, i, i == p.q_count()});
    offset += 8 + 8 * p.n();
  }
}

/// Adds `delta` to the little-endian unsigned integer of `width` bytes at
/// `offset`.
void add_le(std::vector<std::uint8_t>& bytes, std::size_t offset, int width,
            std::int64_t delta) {
  std::uint64_t v = 0;
  for (int k = 0; k < width; ++k) v |= std::uint64_t{bytes[offset + k]} << (8 * k);
  v += static_cast<std::uint64_t>(delta);
  for (int k = 0; k < width; ++k) bytes[offset + k] = static_cast<std::uint8_t>(v >> (8 * k));
}

/// Decodes one mutant and expects an sp::Error whose message names `cause`.
template <typename Decode>
void expect_mutant_rejected(const Decode& decode, const std::vector<std::uint8_t>& bad,
                            const std::string& cause, const std::string& mutant) {
  std::string what = "(decoded without error)";
  try {
    decode(bad);
  } catch (const sp::Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find(cause), std::string::npos) << mutant << ": " << what;
}

/// Every row of `blob`: an out-of-range first and last residue, a cut at
/// the row's span start and one byte either side, and a span length one
/// word too long. Each mutant must be rejected with its cause named.
template <typename Decode>
void sweep_rows(const std::vector<std::uint8_t>& blob, const std::vector<RowSpan>& spans,
                std::size_t n, const Decode& decode) {
  EXPECT_NO_THROW(decode(blob));
  for (const RowSpan& s : spans) {
    const std::string row = "row " + std::to_string(s.row) + (s.special ? " (special)" : "");
    const std::string at = " at byte " + std::to_string(s.offset);
    for (const std::size_t j : {std::size_t{0}, n - 1}) {
      auto bad = blob;
      bad[s.offset + 8 + 8 * j + 7] = 0xff;  // top byte of the little-endian residue
      expect_mutant_rejected(decode, bad,
                             "residue out of range at " + row + ", index " + std::to_string(j),
                             "residue " + std::to_string(j) + " of " + row + at);
    }
    for (const std::size_t cut : {s.offset - 1, s.offset, s.offset + 1}) {
      const std::vector<std::uint8_t> bad(blob.begin(), blob.begin() + cut);
      expect_mutant_rejected(decode, bad, "truncated", "cut at byte " + std::to_string(cut));
    }
    auto bad = blob;
    add_le(bad, s.offset, 8, 1);
    expect_mutant_rejected(decode, bad, "u64 span", "span length +1 of " + row + at);
  }
  // The last row has no next span start: cut its final byte.
  const std::size_t rows_end = spans.back().offset + 8 + 8 * n;
  const std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + (rows_end - 1));
  expect_mutant_rejected(decode, cut, "truncated", "cut in the last row");
}

// The polynomial-decoder slice of a decoder fuzzer: deterministic
// mutations of a key-switch key and a ciphertext blob at every row.
TEST(WireMutation, PolynomialDecodersRejectEveryMutant) {
  const CkksContext& ctx = small_ctx();

  const KSwitchKey key = formula_kswitch(ctx, 20);
  const auto key_blob = io::serialize(key);
  std::vector<RowSpan> key_spans;
  std::size_t offset = 16 + 8;  // header, digit count
  for (const auto& digit : key.digits)
    for (const RnsPoly& p : digit) add_row_spans(key_spans, offset, p);
  ASSERT_EQ(offset, key_blob.size());
  ASSERT_EQ(key_spans.size(), 24u);  // 3 digits x 2 parts x (3 chain + special) rows
  const auto decode_key = [&](const std::vector<std::uint8_t>& b) {
    io::deserialize_kswitch_key(b, ctx);
  };
  sweep_rows(key_blob, key_spans, ctx.n(), decode_key);
  for (const std::int64_t delta : {-1, 1}) {
    auto bad = key_blob;
    add_le(bad, 16, 8, delta);
    expect_mutant_rejected(decode_key, bad, "digits, chain has 3",
                           "digit count " + std::to_string(delta));
  }

  const Ciphertext ct = formula_ciphertext(ctx, 10);
  const auto ct_blob = io::serialize(ct);
  std::vector<RowSpan> ct_spans;
  offset = 16 + 4;  // header, part count
  for (const RnsPoly& p : ct.parts) add_row_spans(ct_spans, offset, p);
  ASSERT_EQ(offset + 8, ct_blob.size());  // + scale
  ASSERT_EQ(ct_spans.size(), 9u);
  const auto decode_ct = [&](const std::vector<std::uint8_t>& b) {
    io::deserialize_ciphertext(b, ctx);
  };
  sweep_rows(ct_blob, ct_spans, ctx.n(), decode_ct);
  // One part too many is out of range; one too few leaves the third part's
  // bytes behind the scale.
  auto more = ct_blob;
  add_le(more, 16, 4, 1);
  expect_mutant_rejected(decode_ct, more, "ciphertext with 4 parts", "part count +1");
  auto fewer = ct_blob;
  add_le(fewer, 16, 4, -1);
  expect_mutant_rejected(decode_ct, fewer, "trailing bytes", "part count -1");
}

// The rotation-step list is the one planner output that crosses the wire
// (the server's SessionReady): a round trip, then every cut, the count, the
// header fields and a foreign context.
TEST(WireMutation, RotationStepsDecoderRejectsEveryMutant) {
  const CkksContext& ctx = small_ctx();
  const std::vector<int> steps = {-24, -1, 1, 2, 3, 16, 511};
  const auto blob = io::serialize_rotation_steps(steps, ctx);
  ASSERT_EQ(blob.size(), 16 + 8 + 4 * steps.size());  // header, count, steps
  EXPECT_EQ(io::deserialize_rotation_steps(blob, ctx), steps);
  const auto decode = [&](const std::vector<std::uint8_t>& b) {
    io::deserialize_rotation_steps(b, ctx);
  };

  // A cut inside the header or the count is a short read; past them, the
  // count claims more steps than the bytes left.
  for (std::size_t cut = 0; cut < blob.size(); ++cut)
    expect_mutant_rejected(decode, std::vector<std::uint8_t>(blob.begin(), blob.begin() + cut),
                           cut < 16 + 8 ? "truncated" : "length prefix",
                           "cut at byte " + std::to_string(cut));
  // An inflated count is refused before anything is allocated.
  for (const std::int64_t delta : {std::int64_t{1}, std::int64_t{1} << 62}) {
    auto bad = blob;
    add_le(bad, 16, 8, delta);
    expect_mutant_rejected(decode, bad, "length prefix", "count +" + std::to_string(delta));
  }
  auto fewer = blob;
  add_le(fewer, 16, 8, -1);
  expect_mutant_rejected(decode, fewer, "trailing", "count -1");
  auto longer = blob;
  longer.push_back(0);
  expect_mutant_rejected(decode, longer, "trailing", "one trailing byte");

  // Every other kind tag, the retired Plan tag 9 included.
  for (int kind = 1; kind <= 11; ++kind) {
    if (kind == static_cast<int>(io::BlobKind::RotationSteps)) continue;
    auto bad = blob;
    add_le(bad, 6, 2, kind - static_cast<int>(io::BlobKind::RotationSteps));
    expect_mutant_rejected(decode, bad, "expected a RotationSteps",
                           "kind " + std::to_string(kind));
  }
  auto version = blob;
  add_le(version, 4, 2, 1);
  expect_mutant_rejected(decode, version, "version", "version +1");
  auto magic = blob;
  magic[0] ^= 0x01;
  expect_mutant_rejected(decode, magic, "magic", "magic");
  const CkksContext other(CkksParams::for_depth(2048, 3, 40));
  expect_mutant_rejected(
      [&](const std::vector<std::uint8_t>& b) { io::deserialize_rotation_steps(b, other); },
      blob, "fingerprint", "foreign context");
}

// ----------------------------------------------------------------- serving --

/// Runs the serving handshake for `pipe` in one process. The key owner
/// `client` ships params, public and relin keys as bytes; the server builds
/// its context and a keygen-less runtime (no secret key) from them, plans on
/// that context and ships back only the plan's rotation steps; the client
/// mints exactly those Galois keys and ships them with the request blocks.
/// The served blocks must be BIT-identical to the client running its own
/// plan locally, and both plans must describe the same schedule. Returns
/// the served blocks, decoded back on the client.
std::vector<Ciphertext> expect_served_bit_identical(
    smartpaf::FheRuntime& client, const smartpaf::FhePipeline& pipe,
    const std::vector<std::vector<double>>& request_blocks) {
  auto ctx = std::make_unique<CkksContext>(
      io::deserialize_params(io::serialize(client.ctx().params())));
  const CkksContext& server_ctx = *ctx;
  smartpaf::FheRuntime server(
      std::move(ctx),
      io::deserialize_public_key(io::serialize(client.public_key()), server_ctx),
      io::deserialize_kswitch_key(io::serialize(client.relin_key()), server_ctx),
      GaloisKeys{});
  EXPECT_FALSE(server.has_secret_key());
  const smartpaf::Plan server_plan =
      smartpaf::Planner::plan(pipe, server.ctx(), smartpaf::CostModel::heuristic());
  const std::vector<int> steps = io::deserialize_rotation_steps(
      io::serialize_rotation_steps(server_plan.rotation_steps(), server.ctx()), client.ctx());
  server.add_rotation_keys(
      io::deserialize_galois_keys(io::serialize(*client.rotation_keys(steps)), server.ctx()));

  std::vector<Ciphertext> request;
  for (const auto& b : request_blocks) request.push_back(client.encrypt(b));
  std::vector<Ciphertext> server_request;
  for (const Ciphertext& ct : request)
    server_request.push_back(io::deserialize_ciphertext(io::serialize(ct), server.ctx()));

  const smartpaf::Plan plan =
      smartpaf::Planner::plan(pipe, client.ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(server_plan.describe(), plan.describe());
  const std::vector<Ciphertext> local = pipe.run_blocks(client, plan, request);
  const std::vector<Ciphertext> served = pipe.run_blocks(server, server_plan, server_request);
  std::vector<Ciphertext> back;
  EXPECT_EQ(served.size(), local.size());
  for (std::size_t i = 0; i < served.size() && i < local.size(); ++i) {
    back.push_back(io::deserialize_ciphertext(io::serialize(served[i]), client.ctx()));
    EXPECT_TRUE(ciphertexts_equal(local[i], back.back())) << "block " << i;
  }
  return back;
}

TEST_F(WireTest, KeygenlessRuntimeRunsItsOwnPlanBitIdentically) {
  const auto pipe = smartpaf::FhePipeline::builder()
                        .window({0.4, 0.3, 0.2})
                        .linear(0.9, 0.05)
                        .build();
  const auto slots = random_slots(31);
  const auto served = expect_served_bit_identical(*rt_, pipe, {slots});
  ASSERT_EQ(served.size(), 1u);

  // And it decrypts (client side) to the plaintext reference within 2^-20.
  const std::vector<double> got = rt_->decrypt(served[0]);
  const std::vector<double> ref = pipe.reference(slots);
  double worst = 0.0;
  for (std::size_t j = 0; j < got.size(); ++j)
    worst = std::max(worst, std::abs(got[j] - ref[j]));
  EXPECT_LT(worst, kParityTol);
}

TEST(WireServing, KeygenlessRuntimeRunsLenetPlanBitIdentically) {
  // Conv and matmul stages execute from the plan's splits and grid
  // layouts, so the served run only matches when the server's plan makes
  // the same ones from the shipped parameter set.
  smartpaf::FheRuntime client(CkksParams::for_depth(2048, 12, 40), /*seed=*/78);
  const auto pipe = lenet_pipeline();
  const auto layouts = pipe.stage_layouts(client.ctx().slot_count());
  sp::Rng rng(32);
  std::vector<double> image(144);
  for (auto& v : image) v = rng.uniform(-1.0, 1.0);
  const auto served = expect_served_bit_identical(
      client, pipe,
      smartpaf::pack_layout(image, layouts.front().first, client.ctx().slot_count()));
  ASSERT_EQ(served.size(), 1u);
}

TEST_F(WireTest, KeygenlessRuntimeFailsLoudlyOnMissingCapabilities) {
  auto ctx = std::make_unique<CkksContext>(rt_->ctx().params());
  const CkksContext& server_ctx = *ctx;
  const auto gk_snapshot = rt_->rotation_keys({1});
  const GaloisKeys& gk = *gk_snapshot;
  smartpaf::FheRuntime server(
      std::move(ctx),
      io::deserialize_public_key(io::serialize(rt_->public_key()), server_ctx),
      io::deserialize_kswitch_key(io::serialize(rt_->relin_key()), server_ctx),
      io::deserialize_galois_keys(io::serialize(gk), server_ctx));
  EXPECT_FALSE(server.has_secret_key());
  // Decryption is impossible without the secret key.
  expect_error_containing([&] { server.decryptor(); }, "secret");
  expect_error_containing([&] { server.decrypt(server.encrypt({1.0})); }, "secret");
  // Covered steps resolve fine; an uncovered step names itself.
  EXPECT_NO_THROW(server.rotation_keys({1}));
  expect_error_containing([&] { server.rotation_keys({1, 5}); }, "5");
  // Public-key encryption still works server-side; ship the blob back to
  // the key owner to read it (contexts are process-local, bytes are not).
  const Ciphertext aux = server.encrypt(std::vector<double>(4, 0.5));
  const std::vector<double> dec =
      rt_->decrypt(io::deserialize_ciphertext(io::serialize(aux), rt_->ctx()));
  EXPECT_NEAR(dec[0], 0.5, 1e-6);
}

}  // namespace
