#include "fhe/enc_matvec.h"

#include <algorithm>

#include "common/check.h"

namespace sp::fhe {

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
                                const KSwitchKey& relin) const {
  sp::check(!diags_.empty(), "EncDiagMatVec::apply: no diagonals packed");
  // Meet at the lower of the two chains, and keep one level for the rescale.
  const int qc = std::min(v.q_count(), diags_.front().q_count());
  sp::check(qc >= 2, "EncDiagMatVec::apply: no level left for the rescale");
  Ciphertext x = v;
  ev.drop_to_level(x, qc - 1);
  LinearTransform lt(1, 1, schedule_.n1);
  lt.schedule = schedule_;
  for (const Ciphertext& d : diags_) lt.masks.emplace_back(&d);
  return std::move(lt.apply(ev, &x, 1, gk, /*hoist=*/true, nullptr, 0.0, &relin)[0]);
}

}  // namespace sp::fhe
