#include "train/batch.h"

#include "common/check.h"

namespace sp::train {

std::vector<MiniBatch> make_batches(const data::DesignMatrix& dm, int batch) {
  sp::check(batch >= 1, "make_batches: need at least 1 row per batch");
  sp::check_fmt(dm.rows >= batch, "make_batches: ", dm.rows,
                " rows cannot fill a batch of ", batch);
  std::vector<MiniBatch> out;
  out.reserve(static_cast<std::size_t>(dm.rows / batch));
  for (int start = 0; start + batch <= dm.rows; start += batch) {
    MiniBatch mb;
    mb.x.assign(dm.x.begin() + static_cast<std::ptrdiff_t>(start) * dm.cols,
                dm.x.begin() + static_cast<std::ptrdiff_t>(start + batch) * dm.cols);
    mb.y.assign(dm.y.begin() + start, dm.y.begin() + start + batch);
    out.push_back(std::move(mb));
  }
  return out;
}

EncryptedBatch EncryptedBatch::pack(const MiniBatch& mb, const TrainPlan& plan,
                                    smartpaf::FheRuntime& rt) {
  const int b = plan.config.batch;
  const int d = plan.config.features;
  sp::check(mb.x.size() == static_cast<std::size_t>(b) * static_cast<std::size_t>(d),
            "EncryptedBatch: batch shape does not match the plan");
  sp::check(mb.y.size() == static_cast<std::size_t>(b),
            "EncryptedBatch: label count does not match the plan");

  // Gradient matrix: (lr *) X^T, row-major d x B.
  const double fold =
      plan.config.optimizer == Optimizer::SgdMomentum ? plan.config.lr : 1.0;
  std::vector<double> xt(static_cast<std::size_t>(d) * static_cast<std::size_t>(b));
  for (int i = 0; i < b; ++i)
    for (int j = 0; j < d; ++j)
      xt[static_cast<std::size_t>(j) * b + i] =
          fold * mb.x[static_cast<std::size_t>(i) * d + j];

  const auto& ctx = rt.ctx();
  EncryptedBatch out{
      fhe::EncDiagMatVec::encrypt(ctx, rt.encoder(), rt.encryptor(), plan.forward,
                                  mb.x, b, d, 0, ctx.scale()),
      fhe::EncDiagMatVec::encrypt(ctx, rt.encoder(), rt.encryptor(), plan.transpose,
                                  xt, d, b, 0, ctx.scale()),
      fhe::Ciphertext{}};

  std::vector<double> yb(static_cast<std::size_t>(b));
  for (int i = 0; i < b; ++i) {
    sp::check(mb.y[static_cast<std::size_t>(i)] == 0 ||
                  mb.y[static_cast<std::size_t>(i)] == 1,
              "EncryptedBatch: labels must be 0/1");
    yb[static_cast<std::size_t>(i)] =
        static_cast<double>(mb.y[static_cast<std::size_t>(i)]) / b;
  }
  out.labels = rt.encrypt(yb);
  return out;
}

}  // namespace sp::train
