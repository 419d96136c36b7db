// Evaluator-level correctness net for the parallel backend work: plaintext
// parity for the elementwise ops and rotations, bit-exact equivalence of
// hoisted vs naive rotation, lazy-relinearization BSGS parity + savings
// against one relinearization per ct-ct mult, and golden digests plus NTT
// counts for the key-switch and rescale paths at several chain lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

/// 2^-20: parity budget vs the plaintext reference, as max-abs error
/// relative to max(1, ||reference||_inf).
const double kParityTol = std::ldexp(1.0, -20);

class EvaluatorOpsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(4096, 6, 40),
                                                 /*seed=*/2026);
    gk_ = std::make_unique<GaloisKeys>();
    // Snapshot of the runtime's deduplicated rotation-key store (the
    // galois_keys() shim was removed; rotation_keys is the one key surface).
    *gk_ = *rt_->rotation_keys({1, -1, 2, -2, 8});
  }
  static void TearDownTestSuite() {
    gk_.reset();
    rt_.reset();
  }

  static std::vector<double> random_vec(std::uint64_t seed, double lo = -1.0,
                                        double hi = 1.0) {
    sp::Rng rng(seed);
    std::vector<double> v(rt_->ctx().slot_count());
    for (auto& x : v) x = rng.uniform(lo, hi);
    return v;
  }

  static double rel_error(const std::vector<double>& got,
                          const std::vector<double>& ref) {
    double worst = 0.0, norm = 1.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      norm = std::max(norm, std::abs(ref[i]));
      worst = std::max(worst, std::abs(got[i] - ref[i]));
    }
    return worst / norm;
  }

  /// Bit-exact ciphertext comparison: same structure and identical residues.
  static bool bit_identical(const Ciphertext& a, const Ciphertext& b) {
    if (a.size() != b.size() || a.q_count() != b.q_count()) return false;
    if (a.scale != b.scale) return false;
    for (int p = 0; p < a.size(); ++p) {
      const RnsPoly& pa = a.parts[static_cast<std::size_t>(p)];
      const RnsPoly& pb = b.parts[static_cast<std::size_t>(p)];
      if (pa.row_count() != pb.row_count() || pa.is_ntt() != pb.is_ntt()) return false;
      for (int r = 0; r < pa.row_count(); ++r)
        for (std::size_t j = 0; j < pa.n(); ++j)
          if (pa.row(r)[j] != pb.row(r)[j]) return false;
    }
    return true;
  }

  static approx::Polynomial dense_poly(int degree, std::uint64_t seed) {
    sp::Rng rng(seed);
    std::vector<double> c(static_cast<std::size_t>(degree) + 1);
    for (auto& v : c) v = rng.uniform(-1.0, 1.0) / (degree + 1);
    if (std::abs(c.back()) < 1e-3) c.back() = 0.25 / (degree + 1);
    return approx::Polynomial(c);
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
  static std::unique_ptr<GaloisKeys> gk_;
};

std::unique_ptr<smartpaf::FheRuntime> EvaluatorOpsTest::rt_;
std::unique_ptr<GaloisKeys> EvaluatorOpsTest::gk_;

TEST_F(EvaluatorOpsTest, AddSubNegateParity) {
  const auto va = random_vec(11), vb = random_vec(12);
  const Ciphertext ca = rt_->encrypt(va), cb = rt_->encrypt(vb);
  Evaluator& ev = rt_->evaluator();

  std::vector<double> sum(va.size()), diff(va.size()), neg(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    sum[i] = va[i] + vb[i];
    diff[i] = va[i] - vb[i];
    neg[i] = -va[i];
  }
  EXPECT_LT(rel_error(rt_->decrypt(ev.add(ca, cb)), sum), kParityTol);
  EXPECT_LT(rel_error(rt_->decrypt(ev.sub(ca, cb)), diff), kParityTol);
  Ciphertext cn = ca;
  ev.negate_inplace(cn);
  EXPECT_LT(rel_error(rt_->decrypt(cn), neg), kParityTol);
}

TEST_F(EvaluatorOpsTest, MultiplyPlainParity) {
  const auto v = random_vec(13);
  Ciphertext ct = rt_->encrypt(v);
  Evaluator& ev = rt_->evaluator();
  ev.multiply_plain_inplace(
      ct, rt_->encoder().encode_scalar(1.75, rt_->ctx().scale(), ct.q_count()));
  ev.rescale_inplace(ct);
  std::vector<double> ref(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) ref[i] = 1.75 * v[i];
  EXPECT_LT(rel_error(rt_->decrypt(ct), ref), kParityTol);
}

TEST_F(EvaluatorOpsTest, RotationParity) {
  const auto v = random_vec(14);
  const Ciphertext ct = rt_->encrypt(v);
  const std::size_t slots = v.size();
  for (int steps : {1, -1, 2, -2, 8}) {
    const Ciphertext r = rt_->evaluator().rotate(ct, steps, *gk_);
    std::vector<double> ref(slots);
    for (std::size_t i = 0; i < slots; ++i)
      ref[i] = v[(i + static_cast<std::size_t>(
                          ((steps % static_cast<int>(slots)) + static_cast<int>(slots)))) %
                 slots];
    EXPECT_LT(rel_error(rt_->decrypt(r), ref), kParityTol) << "steps " << steps;
  }
}

TEST_F(EvaluatorOpsTest, HoistedRotationBitIdenticalToNaive) {
  const auto v = random_vec(15);
  const Ciphertext ct = rt_->encrypt(v);
  Evaluator& ev = rt_->evaluator();
  const std::vector<int> fan = {1, -1, 2, -2, 8};

  ev.counters.reset();
  std::vector<Ciphertext> naive;
  for (int s : fan) naive.push_back(ev.rotate(ct, s, *gk_));
  const std::size_t naive_fwd = ev.counters.ntts_forward;

  ev.counters.reset();
  const std::vector<Ciphertext> hoisted = ev.rotate_hoisted(ct, fan, *gk_);
  const std::size_t hoisted_fwd = ev.counters.ntts_forward;
  EXPECT_EQ(ev.counters.hoisted_rotations.load(), fan.size());

  ASSERT_EQ(naive.size(), hoisted.size());
  for (std::size_t i = 0; i < fan.size(); ++i)
    EXPECT_TRUE(bit_identical(naive[i], hoisted[i])) << "steps " << fan[i];

  // The whole point of hoisting: strictly fewer forward NTTs for the fan.
  EXPECT_LT(hoisted_fwd, naive_fwd);
}

TEST_F(EvaluatorOpsTest, HoistedSingleRotationAlsoSavesNtts) {
  const auto v = random_vec(16);
  const Ciphertext ct = rt_->encrypt(v);
  Evaluator& ev = rt_->evaluator();

  ev.counters.reset();
  const Ciphertext naive = ev.rotate(ct, 2, *gk_);
  const std::size_t naive_fwd = ev.counters.ntts_forward;

  ev.counters.reset();
  const std::vector<Ciphertext> hoisted = ev.rotate_hoisted(ct, {2}, *gk_);
  const std::size_t hoisted_fwd = ev.counters.ntts_forward;

  ASSERT_EQ(hoisted.size(), 1u);
  EXPECT_TRUE(bit_identical(naive, hoisted[0]));
  // rotate() is a one-step fan: the same transforms.
  EXPECT_EQ(hoisted_fwd, naive_fwd);
}

TEST_F(EvaluatorOpsTest, GaloisNttPermutationMatchesCoefficientAutomorphism) {
  // The identity hoisting rests on: applying X -> X^g in the NTT domain is
  // the pure slot permutation of galois_ntt_table, bit for bit.
  const auto v = random_vec(24);
  const Ciphertext ct = rt_->encrypt(v);
  for (int steps : {1, -2, 8}) {
    const u64 g = galois_element(rt_->ctx().n(), steps);
    RnsPoly coeff = ct.parts[1];
    coeff.from_ntt();
    RnsPoly via_coeff = apply_galois(coeff, g);
    via_coeff.to_ntt();
    const RnsPoly via_ntt = apply_galois_ntt(ct.parts[1], g);
    for (int r = 0; r < via_ntt.row_count(); ++r)
      for (std::size_t j = 0; j < via_ntt.n(); ++j)
        ASSERT_EQ(via_ntt.row(r)[j], via_coeff.row(r)[j])
            << "steps " << steps << " row " << r << " slot " << j;
  }
}

TEST_F(EvaluatorOpsTest, MissingGaloisKeyNamesTheStep) {
  // The fixture's keys cover {1, -1, 2, -2, 8}; step 3 is element 5^3 = 125.
  const Ciphertext ct = rt_->encrypt(random_vec(25));
  Evaluator& ev = rt_->evaluator();
  ASSERT_EQ(galois_element(rt_->ctx().n(), 3), 125u);
  const auto expect_named = [](const auto& body) {
    std::string what;
    try {
      body();
    } catch (const sp::Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("step 3"), std::string::npos) << what;
    EXPECT_NE(what.find("125"), std::string::npos) << what;
  };
  expect_named([&] { ev.rotate(ct, 3, *gk_); });
  expect_named([&] { ev.rotate_hoisted(ct, {3}, *gk_); });
  expect_named([&] { ev.rotate_hoisted(ct, {1, 3}, *gk_); });
}

TEST(GaloisElement, SquareAndMultiplyMatchesRepeatedMultiplication) {
  // Reference: r multiplications by 5 mod 2N, where r = steps mod N/2; every
  // step congruent to r (negative ones included) maps to the same element.
  const std::size_t n = 2048;
  const int half = static_cast<int>(n / 2);
  u64 g = 1;
  for (int r = 0; r < half; ++r) {
    for (int steps : {r, r - half, r + half, r - 3 * half})
      EXPECT_EQ(galois_element(n, steps), g) << "steps " << steps;
    g = g * 5 % (2 * n);
  }
  EXPECT_EQ(g, 1u);  // 5 has order N/2 mod 2N
}

TEST_F(EvaluatorOpsTest, HoistedRotationByZeroReturnsInput) {
  const auto v = random_vec(17);
  const Ciphertext ct = rt_->encrypt(v);
  const std::vector<Ciphertext> r = rt_->evaluator().rotate_hoisted(ct, {0}, *gk_);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(bit_identical(ct, r[0]));
}

TEST_F(EvaluatorOpsTest, ThreePartAwareAddInplace) {
  const auto va = random_vec(18), vb = random_vec(19), vc = random_vec(20);
  Evaluator& ev = rt_->evaluator();
  const Ciphertext ca = rt_->encrypt(va), cb = rt_->encrypt(vb);
  Ciphertext cc = rt_->encrypt(vc);

  // 3-part product + 2-part addend accumulate without relinearizing...
  Ciphertext acc = ev.multiply(ca, cb);
  ev.rescale_inplace(acc);
  Ciphertext addend = cc;
  ev.drop_to_level(addend, acc.level());
  addend.scale = acc.scale;  // both ~Delta; adjust exact tracking
  ev.add_inplace(acc, addend);
  EXPECT_EQ(acc.size(), 3);

  // ...and one relinearization at the join lands on the right plaintext.
  ev.relinearize_inplace(acc, rt_->relin_key());
  std::vector<double> ref(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) ref[i] = va[i] * vb[i] + vc[i];
  // The scale fudge above costs a little precision; 1e-4 is plenty to show
  // the 3-part accumulation is algebraically right.
  EXPECT_LT(rel_error(rt_->decrypt(acc), ref), 1e-4);
}

TEST_F(EvaluatorOpsTest, LevelAboveAnOperandThrowsNamingBothLevels) {
  Evaluator& ev = rt_->evaluator();
  const Ciphertext top = rt_->encrypt(random_vec(21));  // level 6
  Ciphertext low = top;
  ev.drop_to_level(low, 3);
  const auto expect_error = [](const auto& body, const std::string& op, int level, int at) {
    std::string what;
    try {
      body();
    } catch (const sp::Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find(op + ": cannot read level " + std::to_string(level) +
                        " of an operand at level " + std::to_string(at)),
              std::string::npos)
        << "message was: '" << what << "'";
  };
  expect_error([&] { ev.multiply(top, low, 4); }, "multiply", 4, 3);
  expect_error([&] { ev.multiply(low, top, 5); }, "multiply", 5, 3);
  expect_error([&] { ev.add(top, low, 4); }, "add", 4, 3);
  expect_error([&] { ev.sub(low, top, 6); }, "sub", 6, 3);
  expect_error([&] { ev.multiply_scalar(low, 0.5, rt_->ctx().scale(), 4); }, "multiply_scalar",
               4, 3);
  expect_error([&] { ev.multiply(top, top, 7); }, "multiply", 7, 6);
  expect_error([&] { ev.add(top, top, -1); }, "add", -1, 6);
  // Without a level the operands must sit at one level: nothing is matched.
  EXPECT_THROW(ev.multiply(top, low), sp::Error);
  EXPECT_THROW(ev.add(top, low), sp::Error);
  EXPECT_THROW(ev.sub(low, top), sp::Error);
}

TEST_F(EvaluatorOpsTest, MaskProductsMatchCopyThenInPlace) {
  Evaluator& ev = rt_->evaluator();
  const double delta = rt_->ctx().scale();
  const Ciphertext x = rt_->encrypt(random_vec(22));
  const Plaintext pt = rt_->encoder().encode(random_vec(23), delta, x.q_count());
  const auto plain_in_place = [&](const Ciphertext& ct) {
    Ciphertext t = ct;
    ev.multiply_plain_inplace(t, pt);
    return t;
  };
  const auto scalar_in_place = [&](const Ciphertext& ct) {
    Ciphertext t = ct;
    ev.multiply_scalar_inplace(t, 0.625, delta);
    return t;
  };
  EXPECT_TRUE(bit_identical(ev.multiply_plain(x, pt), plain_in_place(x)));

  // Accumulating forms: into a 2-part sum and into a 3-part product, each
  // one plain multiplication and one add.
  const Ciphertext y = rt_->encrypt(random_vec(24));
  for (const Ciphertext& start : {plain_in_place(y), ev.multiply(y, y)}) {
    Ciphertext want = start;
    ev.add_inplace(want, plain_in_place(x));
    Ciphertext got = start;
    const OpCounters before = ev.counters;
    ev.multiply_plain_add_inplace(got, x, pt);
    const OpCounters d = ev.counters.delta_since(before);
    EXPECT_EQ(d.plain_mults.load(), 1u);
    EXPECT_EQ(d.adds.load(), 1u);
    EXPECT_TRUE(bit_identical(got, want)) << start.size() << "-part accumulator";
  }
  Ciphertext want = scalar_in_place(y);
  ev.add_inplace(want, scalar_in_place(x));
  Ciphertext got = scalar_in_place(y);
  ev.multiply_scalar_add_inplace(got, x, 0.625, delta);
  EXPECT_TRUE(bit_identical(got, want));

  // An accumulator with fewer parts, another level or another scale is refused.
  Ciphertext two = scalar_in_place(y);
  EXPECT_THROW(ev.multiply_plain_add_inplace(two, ev.multiply(x, x), pt), sp::Error);
  Ciphertext low = two;
  ev.drop_to_level(low, 2);
  EXPECT_THROW(ev.multiply_scalar_add_inplace(low, x, 0.625, delta), sp::Error);
  EXPECT_THROW(ev.multiply_scalar_add_inplace(two, x, 0.625, 2 * delta), sp::Error);
}

/// Lazy-relin BSGS against the bound of one relinearization per ct-ct mult:
/// plaintext parity, the predicted schedule, never more relinearizations
/// than multiplications and strictly fewer for dense degrees >= 9.
class LazyRelinDegree : public EvaluatorOpsTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(LazyRelinDegree, MatchesEagerWithFewerRelins) {
  const int degree = GetParam();
  const approx::Polynomial p = dense_poly(degree, 300 + static_cast<std::uint64_t>(degree));
  const auto inputs = random_vec(21);
  const Ciphertext ct = rt_->encrypt(inputs);
  const PafEvaluator pe(rt_->ctx(), rt_->encoder(), rt_->relin_key());

  EvalStats lazy;
  const Ciphertext out = pe.eval_poly(rt_->evaluator(), ct, p, &lazy);

  std::vector<double> ref(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) ref[i] = p(inputs[i]);
  EXPECT_LT(rel_error(rt_->decrypt(out), ref), kParityTol) << "degree " << degree;

  // The predicted schedule (mults and levels), never more relinearizations
  // than mults — and strictly fewer from degree 9 up. Dense degree 8 is the
  // merge wall: its minimal-mult BSGS plan has exactly one interior product
  // (x^4 * block), so there is no second deferred product to share a join
  // with, and one relinearization per mult is all it can pay.
  const SchedulePrediction pred = PafEvaluator::predict_poly(p, PafEvaluator::Strategy::BSGS);
  EXPECT_EQ(lazy.ct_mults, pred.ct_mults) << "degree " << degree;
  EXPECT_EQ(ct.level() - out.level(), pred.levels) << "degree " << degree;
  EXPECT_GT(lazy.relins_deferred, 0) << "degree " << degree;
  EXPECT_LE(lazy.relins, lazy.ct_mults) << "degree " << degree;
  if (degree >= 9) {
    EXPECT_LT(lazy.relins, lazy.ct_mults) << "degree " << degree;
  }
  // Every deferred relin resolves at some join (or was merged away).
  EXPECT_GE(lazy.relins + lazy.relins_deferred, lazy.ct_mults);
}

INSTANTIATE_TEST_SUITE_P(DenseDegrees, LazyRelinDegree,
                         ::testing::Values(8, 9, 12, 13, 16, 21, 27, 31));

TEST_F(EvaluatorOpsTest, LazyRelinReluParity) {
  // End-to-end PAF-ReLU with lazy relinearization stays within 2^-20 of the
  // plaintext PAF-ReLU.
  // Single odd degree-15 stage: depth 4 + the relu envelope's 2 levels fits
  // the depth-6 chain, and its BSGS plan has joins for lazy relin to merge.
  sp::Rng rng(23);
  std::vector<double> c(16, 0.0);
  for (int k = 1; k <= 15; k += 2) c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 16.0;
  const approx::CompositePaf paf("deg15", {approx::Polynomial(c)});
  const auto v = random_vec(22, -2.0, 2.0);
  const Ciphertext ct = rt_->encrypt(v);
  const PafEvaluator pe(rt_->ctx(), rt_->encoder(), rt_->relin_key());

  const double input_scale = 2.0;
  const auto got = rt_->decrypt(pe.relu(rt_->evaluator(), ct, paf, input_scale));

  double worst = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    worst = std::max(worst, std::abs(got[i] - input_scale * approx::paf_relu(
                                                                paf, v[i] / input_scale)));
  EXPECT_LT(worst, kParityTol);
}

// ------------------------------------------------------------ op pins ------
// Golden FNV digests over the scale and every residue of every output part
// of the key-switch and rescale ops, at several chain lengths c, with the
// forward/inverse NTT counts of each op as closed forms in c. A digest
// change means a ciphertext changed; a count change means an op does a
// different amount of transform work. A missing pin prints the observed row.

struct OpPin {
  const char* name;
  std::uint64_t digest;
};

const OpPin kOpPins[] = {
    {"n2048.c7.rescale2", 0xa77a13b9ab31ddf2ULL},
    {"n2048.c7.rescale3", 0x32aa173b0c93e288ULL},
    {"n2048.c7.relin", 0x11780a4bc5e92907ULL},
    {"n2048.c7.relin_rescale", 0xccb4a589adb90700ULL},
    {"n2048.c7.relin_rescale_fused", 0xccb4a589adb90700ULL},
    {"n2048.c7.rotate", 0x18521e9395414253ULL},
    {"n2048.c7.fan3", 0x41d8c56f5980a4d8ULL},
    {"n2048.c4.rescale2", 0xf297f1ae757fe124ULL},
    {"n2048.c4.rescale3", 0x4491e72b4a5d70b2ULL},
    {"n2048.c4.relin", 0x31a29c879f200d41ULL},
    {"n2048.c4.relin_rescale", 0xcd616f32da30eb86ULL},
    {"n2048.c4.relin_rescale_fused", 0xcd616f32da30eb86ULL},
    {"n2048.c4.rotate", 0x1099fed1f226a79eULL},
    {"n2048.c4.fan3", 0xfd0bbeb51ec4c733ULL},
    {"n2048.c2.rescale2", 0xc54dc6c9b96859c1ULL},
    {"n2048.c2.rescale3", 0x00f78105fd529f29ULL},
    {"n2048.c2.relin", 0x8dc7f6b86b2efbb6ULL},
    {"n2048.c2.relin_rescale", 0x1ef86d71ba5659a0ULL},
    {"n2048.c2.relin_rescale_fused", 0x1ef86d71ba5659a0ULL},
    {"n2048.c2.rotate", 0x8f9199ae503b6994ULL},
    {"n2048.c2.fan3", 0x4559cef43479d743ULL},
    {"n2048.c1.relin", 0xf67c54e11fc605cbULL},
    {"n2048.c1.rotate", 0x23c4f6be6f41ae2dULL},
    {"n2048.c1.fan3", 0x541cd7eea8dd4130ULL},
    {"n8192.c11.rescale2", 0xaaedc61681d82832ULL},
    {"n8192.c11.rescale3", 0xbe8207464bdc7a88ULL},
    {"n8192.c11.relin", 0x0201a50f2ee078d3ULL},
    {"n8192.c11.relin_rescale", 0xc3693a9e953b34bfULL},
    {"n8192.c11.relin_rescale_fused", 0xc3693a9e953b34bfULL},
    {"n8192.c11.rotate", 0xc324d75963f1ca35ULL},
    {"n8192.c11.fan3", 0xbd83cc1ccca6a57bULL},
    {"n2048d20.c21.rescale2", 0x03579741d3bea959ULL},
    {"n2048d20.c21.rescale3", 0xf1fb02673e1c5ac4ULL},
    {"n2048d20.c21.relin", 0x052dd3e35f0bbb0bULL},
    {"n2048d20.c21.relin_rescale", 0x1c582dd955d38537ULL},
    {"n2048d20.c21.relin_rescale_fused", 0x1c582dd955d38537ULL},
    {"n2048d20.c21.rotate", 0x954de245337d0ec7ULL},
    {"n2048d20.c21.fan3", 0x7ea2aba5b5658978ULL},
    {"n2048d20.c19.rescale2", 0x9ff7a2760e75fab3ULL},
    {"n2048d20.c19.rescale3", 0x17fbffb067dcbaf3ULL},
    {"n2048d20.c19.relin", 0x3cc891eea31b9120ULL},
    {"n2048d20.c19.relin_rescale", 0x1e6e1c8ff2021d3cULL},
    {"n2048d20.c19.relin_rescale_fused", 0x1e6e1c8ff2021d3cULL},
    {"n2048d20.c19.rotate", 0xd33d93c08ecffb9eULL},
    {"n2048d20.c19.fan3", 0x87cd298e7a0e50feULL},
};

struct NttCount {
  std::size_t fwd, inv;
};

/// Rescale of a `parts`-part ciphertext over c primes.
/// Only the dropped row is inverse-transformed; its lift into the c - 1
/// surviving primes is transformed forward.
NttCount rescale_ntts(std::size_t c, std::size_t parts) { return {parts * (c - 1), parts}; }
/// Hoisted fan of k steps: one decomposition (c inverse, c^2 forward), then
/// per step a mod-down of two polynomials (2 inverse, 2c forward).
NttCount fan_ntts(std::size_t c, std::size_t k) { return {c * c + 2 * c * k, c + 2 * k}; }
/// Relinearize and rotate each cost one decomposition and one mod-down.
NttCount relin_ntts(std::size_t c) { return fan_ntts(c, 1); }
NttCount rotate_ntts(std::size_t c) { return fan_ntts(c, 1); }
/// Relinearize, then rescale the 2-part result: two exact divisions, by P
/// and then by q_last, each transforming its dropped row's lifts forward.
NttCount relin_rescale_ntts(std::size_t c) {
  const NttCount relin = relin_ntts(c), rescale = rescale_ntts(c, 2);
  return {relin.fwd + rescale.fwd, relin.inv + rescale.inv};
}
/// relinearize_rescale_inplace: the same switch, then one division by
/// P * q_last whose c - 1 surviving rows per part take one forward NTT each.
NttCount relin_rescale_fused_ntts(std::size_t c) { return {c * c + 2 * c - 2, c + 4}; }

std::uint64_t ct_digest(const std::vector<Ciphertext>& cts) {
  std::uint64_t h = kFnvOffset;
  for (const Ciphertext& ct : cts) {
    h = fnv_double(h, ct.scale);
    for (const RnsPoly& p : ct.parts)
      for (int r = 0; r < p.row_count(); ++r)
        for (std::size_t i = 0; i < p.n(); ++i) h = fnv_mix(h, p.row(r)[i]);
  }
  return h;
}

void expect_op_pin(const std::string& name, const std::vector<Ciphertext>& out,
                   const OpCounters& d, NttCount want) {
  const std::uint64_t got = ct_digest(out);
  char row[128];
  std::snprintf(row, sizeof(row), "    {\"%s\", 0x%016" PRIx64 "ULL},", name.c_str(), got);
  const OpPin* pin = nullptr;
  for (const OpPin& p : kOpPins)
    if (name == p.name) pin = &p;
  ASSERT_NE(pin, nullptr) << "no pin for " << name << "; observed:\n" << row;
  EXPECT_EQ(got, pin->digest) << "observed:\n" << row;
  EXPECT_EQ(d.ntts_forward.load(), want.fwd) << name << " forward NTTs";
  EXPECT_EQ(d.ntts_inverse.load(), want.inv) << name << " inverse NTTs";
}

/// The level-read ops against copy, drop_to_level, then the op: for every
/// pair of chain lengths (ca, cb) in `q_counts` and every listed length c at
/// or below both, multiply, add, sub and multiply_scalar read at level c - 1
/// must give the digest, and the tallies, of the copies dropped there.
void expect_level_reads(Evaluator& ev, const Ciphertext& top_a, const Ciphertext& top_b,
                        const std::string& tag, const std::vector<int>& q_counts) {
  const auto at = [&](const Ciphertext& ct, int c) {
    Ciphertext x = ct;
    ev.drop_to_level(x, c - 1);
    return x;
  };
  const double scale = top_a.scale;
  for (int ca : q_counts)
    for (int cb : q_counts)
      for (int c : q_counts) {
        if (c > std::min(ca, cb)) continue;
        const Ciphertext a = at(top_a, ca), b = at(top_b, cb);
        const Ciphertext a_c = at(a, c), b_c = at(b, c);
        const int level = c - 1;
        const std::string where = tag + " a.c" + std::to_string(ca) + " b.c" +
                                  std::to_string(cb) + " at c" + std::to_string(c);
        const auto same = [&](const char* op, const auto& read, const auto& dropped) {
          const OpCounters before = ev.counters;
          const std::uint64_t got = ct_digest({read()});
          const OpCounters read_ops = ev.counters.delta_since(before);
          const OpCounters mid = ev.counters;
          EXPECT_EQ(got, ct_digest({dropped()})) << op << " " << where;
          const OpCounters drop_ops = ev.counters.delta_since(mid);
          EXPECT_EQ(read_ops.ct_mults.load(), drop_ops.ct_mults.load()) << op << " " << where;
          EXPECT_EQ(read_ops.plain_mults.load(), drop_ops.plain_mults.load()) << op << " " << where;
          EXPECT_EQ(read_ops.adds.load(), drop_ops.adds.load()) << op << " " << where;
        };
        same("multiply", [&] { return ev.multiply(a, b, level); },
             [&] { return ev.multiply(a_c, b_c); });
        same("add", [&] { return ev.add(a, b, level); }, [&] { return ev.add(a_c, b_c); });
        same("sub", [&] { return ev.sub(a, b, level); }, [&] { return ev.sub(a_c, b_c); });
        same("multiply_scalar", [&] { return ev.multiply_scalar(a, -0.375, scale, level); },
             [&] {
               Ciphertext x = a_c;
               ev.multiply_scalar_inplace(x, -0.375, scale);
               return x;
             });
      }
}

/// Runs every pinned op on fresh deterministic inputs dropped to each chain
/// length in `q_counts`, then the level-read ops at every pair of those
/// lengths. Rescale needs c >= 2.
void run_op_pins(const std::string& tag, const CkksParams& params,
                 const std::vector<int>& q_counts) {
  smartpaf::FheRuntime rt(params, /*seed=*/515);
  const std::vector<int> fan = {1, -3, 7};
  const auto gk = rt.rotation_keys(fan);
  Encryptor enc(rt.ctx(), rt.public_key(), /*seed=*/616);
  Evaluator& ev = rt.evaluator();
  sp::Rng rng(717);
  const auto fresh = [&] {
    std::vector<double> v(rt.ctx().slot_count());
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return enc.encrypt(rt.encoder().encode(v, rt.ctx().scale(), rt.ctx().q_count()));
  };
  for (int c : q_counts) {
    Ciphertext a = fresh(), b = fresh();
    ev.drop_to_level(a, c - 1);
    ev.drop_to_level(b, c - 1);
    const auto pin = [&](const char* op, NttCount want, const auto& body) {
      const OpCounters before = ev.counters;
      const std::vector<Ciphertext> out = body();
      expect_op_pin(tag + ".c" + std::to_string(c) + "." + op, out,
                    ev.counters.delta_since(before), want);
    };
    const std::size_t cc = static_cast<std::size_t>(c);
    if (c >= 2) {
      pin("rescale2", rescale_ntts(cc, 2), [&] {
        Ciphertext x = a;
        ev.rescale_inplace(x);
        return std::vector<Ciphertext>{x};
      });
      pin("rescale3", rescale_ntts(cc, 3), [&] {
        Ciphertext x = ev.multiply(a, b);
        ev.rescale_inplace(x);
        return std::vector<Ciphertext>{x};
      });
      pin("relin_rescale", relin_rescale_ntts(cc), [&] {
        Ciphertext x = ev.multiply(a, b);
        ev.relinearize_inplace(x, rt.relin_key());
        ev.rescale_inplace(x);
        return std::vector<Ciphertext>{x};
      });
      pin("relin_rescale_fused", relin_rescale_fused_ntts(cc), [&] {
        Ciphertext x = ev.multiply(a, b);
        ev.relinearize_rescale_inplace(x, rt.relin_key());
        return std::vector<Ciphertext>{x};
      });
    }
    pin("relin", relin_ntts(cc), [&] {
      Ciphertext x = ev.multiply(a, b);
      ev.relinearize_inplace(x, rt.relin_key());
      return std::vector<Ciphertext>{x};
    });
    pin("rotate", rotate_ntts(cc),
        [&] { return std::vector<Ciphertext>{ev.rotate(a, fan.back(), *gk)}; });
    pin("fan3", fan_ntts(cc, fan.size()), [&] { return ev.rotate_hoisted(a, fan, *gk); });
  }
  const Ciphertext top_a = fresh(), top_b = fresh();
  expect_level_reads(ev, top_a, top_b, tag, q_counts);
}

TEST(EvaluatorOpPins, ShortChainsAtN2048) {
  run_op_pins("n2048", CkksParams::for_depth(2048, 6, 40), {7, 4, 2, 1});
}

TEST(EvaluatorOpPins, FullChainAtN8192) {
  run_op_pins("n8192", CkksParams::for_depth(8192, 10, 40), {11});
}

// serve_open's chain and lenet_roundtrip's top digit count: the key-switch
// inner product at 19 and 21 digits.
TEST(EvaluatorOpPins, LongChainsAtN2048) {
  run_op_pins("n2048d20", CkksParams::for_depth(2048, 20, 40), {21, 19});
}

// ------------------------------------------------------- key shape ------
// A key switch reads key.digits[i] for every digit i < c and the special
// row at index ctx.q_count(). A key of the wrong shape must be refused
// with a message naming what was found and expected, before any read.

/// Runs `body`, which must throw sp::Error whose message contains every
/// string in `parts`.
template <typename Fn>
void expect_key_error(const Fn& body, const std::vector<std::string>& parts) {
  std::string what;
  try {
    body();
  } catch (const sp::Error& e) {
    what = e.what();
  }
  ASSERT_FALSE(what.empty()) << "expected sp::Error";
  for (const std::string& p : parts)
    EXPECT_NE(what.find(p), std::string::npos) << "'" << p << "' not in: " << what;
}

class KSwitchKeyShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 4, 40), 31);
    short_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 2, 40), 32);
    short_gk_ = short_->rotation_keys({1});
  }
  static void TearDownTestSuite() {
    short_gk_.reset();
    short_.reset();
    rt_.reset();
  }
  static Ciphertext fresh() {
    return rt_->encrypt(std::vector<double>(rt_->ctx().slot_count(), 0.25));
  }
  /// What every refusal names as expected: 5 digits of 5 + 1 rows at n = 2048.
  static std::vector<std::string> expected(const std::string& found) {
    return {found, "expected 5 digits", "5 chain + 1 special rows at n = 2048"};
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_, short_;
  static std::shared_ptr<const GaloisKeys> short_gk_;
};

std::unique_ptr<smartpaf::FheRuntime> KSwitchKeyShape::rt_;
std::unique_ptr<smartpaf::FheRuntime> KSwitchKeyShape::short_;
std::shared_ptr<const GaloisKeys> KSwitchKeyShape::short_gk_;

TEST_F(KSwitchKeyShape, RelinearizeRejectsEmptyKey) {
  const Ciphertext a = fresh();
  Ciphertext x = rt_->evaluator().multiply(a, a);
  expect_key_error([&] { rt_->evaluator().relinearize_inplace(x, KSwitchKey{}); },
                   expected("key has 0 digits"));
  expect_key_error([&] { rt_->evaluator().relinearize_rescale_inplace(x, KSwitchKey{}); },
                   expected("key has 0 digits"));
}

TEST_F(KSwitchKeyShape, RelinearizeRejectsShorterChainKey) {
  const Ciphertext a = fresh();
  Ciphertext x = rt_->evaluator().multiply(a, a);
  expect_key_error([&] { rt_->evaluator().relinearize_inplace(x, short_->relin_key()); },
                   expected("key has 3 digits, a part with 3 chain + 1 special rows at n = 2048"));
  expect_key_error(
      [&] { rt_->evaluator().relinearize_rescale_inplace(x, short_->relin_key()); },
      expected("key has 3 digits, a part with 3 chain + 1 special rows at n = 2048"));
}

TEST_F(KSwitchKeyShape, RelinearizeRescaleRefusesWhatThePairRefuses) {
  Evaluator& ev = rt_->evaluator();
  Ciphertext two_parts = fresh();
  expect_key_error([&] { ev.relinearize_rescale_inplace(two_parts, rt_->relin_key()); },
                   {"relinearize: ciphertext must have 3 parts"});
  Ciphertext a = fresh();
  ev.drop_to_level(a, 0);
  Ciphertext level0 = ev.multiply(a, a);
  expect_key_error([&] { ev.relinearize_rescale_inplace(level0, rt_->relin_key()); },
                   {"rescale: no levels remaining"});
  EXPECT_EQ(level0.size(), 3);  // refused before any work
}

TEST_F(KSwitchKeyShape, RotationsRejectShorterChainGaloisKey) {
  const Ciphertext a = fresh();
  Evaluator& ev = rt_->evaluator();
  const auto found = expected("key has 3 digits, a part with 3 chain + 1 special rows");
  expect_key_error([&] { ev.rotate(a, 1, *short_gk_); }, found);
  expect_key_error([&] { ev.rotate_hoisted(a, {1}, *short_gk_); }, found);
}

}  // namespace
