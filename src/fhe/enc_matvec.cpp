#include "fhe/enc_matvec.h"

#include <algorithm>

#include "common/check.h"

namespace sp::fhe {

Ciphertext scaled_to(Evaluator& ev, const CkksContext& ctx, const Encoder& enc,
                     const Ciphertext& ct, double factor, int target_level,
                     double target_scale) {
  sp::check(ct.level() >= target_level + 1, "scaled_to: out of levels");
  Ciphertext out = ct;
  ev.drop_to_level(out, target_level + 1);
  const u64 q = ctx.q(target_level + 1).value();
  const double cs = target_scale * static_cast<double>(q) / out.scale;
  ev.multiply_plain_inplace(out, enc.encode_scalar(factor, cs, out.q_count()));
  ev.rescale_inplace(out);
  out.scale = target_scale;  // exact by construction
  return out;
}

EncDiagMatVec EncDiagMatVec::encrypt(const CkksContext& ctx, const Encoder& enc,
                                     Encryptor& encryptor, const LtSchedule& schedule,
                                     const std::vector<double>& weights, int rows,
                                     int cols, std::size_t tile, double scale) {
  sp::check(!schedule.terms.empty(), "EncDiagMatVec: schedule has no nonzero diagonals");
  sp::check(weights.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            "EncDiagMatVec: weights must be row-major rows x cols");
  const std::size_t slots = enc.slot_count();
  EncDiagMatVec out;
  out.schedule_ = schedule;
  out.diags_.reserve(schedule.terms.size());
  for (const LtSchedule::Term& t : schedule.terms)
    out.diags_.push_back(encryptor.encrypt(enc.encode(
        extended_diagonal_slots(weights, rows, cols, t.giant + t.baby, t.giant,
                                tile == 0 ? slots : tile, slots),
        scale, ctx.q_count())));
  return out;
}

Ciphertext EncDiagMatVec::apply(Evaluator& ev, const Ciphertext& v, const GaloisKeys& gk,
                                const KSwitchKey& relin, bool hoist_babies) const {
  sp::check(!diags_.empty(), "EncDiagMatVec::apply: no diagonals packed");
  // Meet at the lower of the two chains, and keep one level for the rescale.
  const int qc = std::min(v.q_count(), diags_.front().q_count());
  sp::check(qc >= 2, "EncDiagMatVec::apply: no level left for the rescale");
  Ciphertext x = v;
  ev.drop_to_level(x, qc - 1);
  LinearTransform lt(1, 1, schedule_.n1);
  lt.schedule = schedule_;
  for (const Ciphertext& d : diags_) lt.masks.emplace_back(&d);
  return std::move(lt.apply(ev, {x}, gk, hoist_babies, nullptr, 0.0, &relin)[0]);
}

}  // namespace sp::fhe
