#include "smartpaf/fhe_deploy.h"

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace sp::smartpaf {

FheRuntime::FheRuntime(const fhe::CkksParams& params, std::uint64_t seed) {
  ctx_ = std::make_unique<fhe::CkksContext>(params);
  encoder_ = std::make_unique<fhe::Encoder>(*ctx_);
  keygen_ = std::make_unique<fhe::KeyGenerator>(*ctx_, seed);
  relin_ = std::make_unique<fhe::KSwitchKey>(keygen_->relin_key());
  // Stored (not just handed to the encryptor) so the wire path can ship it:
  // public_key() draws fresh randomness on every KeyGenerator call, so the
  // serialized key must be the same object the encryptor uses.
  pk_ = keygen_->public_key();
  encryptor_ = std::make_unique<fhe::Encryptor>(*ctx_, pk_, seed + 1);
  decryptor_ = std::make_unique<fhe::Decryptor>(*ctx_, keygen_->secret_key());
  evaluator_ = std::make_unique<fhe::Evaluator>(*ctx_);
  paf_eval_ = std::make_unique<fhe::PafEvaluator>(*ctx_, *encoder_, *relin_);
}

FheRuntime::FheRuntime(std::unique_ptr<fhe::CkksContext> ctx, fhe::PublicKey pk,
                       fhe::KSwitchKey relin, fhe::GaloisKeys galois) {
  sp::check(ctx != nullptr, "FheRuntime: null context");
  ctx_ = std::move(ctx);
  encoder_ = std::make_unique<fhe::Encoder>(*ctx_);
  relin_ = std::make_unique<fhe::KSwitchKey>(std::move(relin));
  pk_ = std::move(pk);
  // Entropy-seeded: a server encrypting auxiliary plaintexts must not share
  // a randomness stream with any other process.
  encryptor_ = std::make_unique<fhe::Encryptor>(*ctx_, pk_);
  evaluator_ = std::make_unique<fhe::Evaluator>(*ctx_);
  paf_eval_ = std::make_unique<fhe::PafEvaluator>(*ctx_, *encoder_, *relin_);
  rot_keys_ = std::make_shared<const fhe::GaloisKeys>(std::move(galois));
}

fhe::Decryptor& FheRuntime::decryptor() {
  sp::check(decryptor_ != nullptr,
            "FheRuntime::decryptor: this runtime was reconstructed from public "
            "key material only; the secret key never leaves the client");
  return *decryptor_;
}

std::shared_ptr<const fhe::GaloisKeys> FheRuntime::rotation_keys(
    const std::vector<int>& steps) {
  std::unique_lock<std::mutex> lock(rot_mu_);
  std::vector<int> missing;
  for (int s : steps) {
    if (s == 0) continue;  // identity rotation needs no key
    if (!rot_keys_ || rot_keys_->keys.count(fhe::galois_element(ctx_->n(), s)) == 0)
      missing.push_back(s);
  }
  if (!missing.empty()) {
    if (!keygen_) {
      std::ostringstream os;
      os << "FheRuntime::rotation_keys: runtime holds no secret key and the "
            "deserialized Galois keys do not cover step(s)";
      for (int s : missing) os << ' ' << s;
      os << "; ask the key owner for keys covering the plan";
      throw sp::Error(os.str());
    }
    // Keygen outside the lock would be nicer for latency, but two threads
    // minting the same step would duplicate the (expensive) work; extension
    // is a once-per-step-set event, so hold the lock through keygen and the
    // copy-on-write snapshot swap.
    fhe::GaloisKeys fresh = keygen_->galois_keys(missing);
    auto next = std::make_shared<fhe::GaloisKeys>();
    if (rot_keys_) next->keys = rot_keys_->keys;
    for (auto& kv : fresh.keys) next->keys.emplace(kv.first, std::move(kv.second));
    rot_keys_ = std::move(next);
  }
  if (!rot_keys_) rot_keys_ = std::make_shared<const fhe::GaloisKeys>();
  return rot_keys_;
}

void FheRuntime::add_rotation_keys(fhe::GaloisKeys keys) {
  std::unique_lock<std::mutex> lock(rot_mu_);
  auto next = std::make_shared<fhe::GaloisKeys>();
  if (rot_keys_) next->keys = rot_keys_->keys;
  for (auto& kv : keys.keys) next->keys.insert_or_assign(kv.first, std::move(kv.second));
  rot_keys_ = std::move(next);
}

std::size_t FheRuntime::rotation_key_count() const {
  std::unique_lock<std::mutex> lock(rot_mu_);
  return rot_keys_ ? rot_keys_->keys.size() : 0;
}

int FheRuntime::threads() const { return sp::ThreadPool::global().threads(); }

fhe::Ciphertext FheRuntime::encrypt(const std::vector<double>& values) {
  return encryptor_->encrypt(encoder_->encode(values, ctx_->scale(), ctx_->q_count()));
}

std::vector<double> FheRuntime::decrypt(const fhe::Ciphertext& ct) {
  return encoder_->decode(decryptor().decrypt(ct));
}

PafLatencyResult measure_paf_relu(FheRuntime& rt, const approx::CompositePaf& paf,
                                  double input_scale, int repeats, std::uint64_t seed) {
  sp::check_fmt(repeats >= 1, "measure_paf_relu: repeats must be >= 1, got ", repeats);
  const FhePipeline pipe = FhePipeline::builder().paf_relu(paf, input_scale).build();
  const Plan plan = Planner::plan(pipe, rt.ctx(), CostModel::heuristic());
  sp::Rng rng(seed);
  std::vector<double> values(rt.ctx().slot_count());
  for (auto& v : values) v = rng.uniform(-input_scale, input_scale);
  const fhe::Ciphertext ct = rt.encrypt(values);

  PafLatencyResult out;
  std::vector<double> times;
  fhe::Ciphertext result;
  for (int r = 0; r < repeats; ++r) {
    const sp::Timer timer;
    result = pipe.run(rt, plan, ct, r == 0 ? &out.stats : nullptr);
    times.push_back(timer.ms());
  }
  out.ms_median = sp::median(times);

  const std::vector<double> got = rt.decrypt(result);
  const std::vector<double> want = pipe.reference(values);
  for (std::size_t i = 0; i < values.size(); ++i)
    out.max_error = std::max(out.max_error, std::abs(got[i] - want[i]));
  return out;
}

std::vector<DeployRow> deployment_report(nn::Model& model, FheRuntime& rt, int repeats) {
  std::vector<DeployRow> rows;
  for (PafLayerBase* layer : find_paf_layers(model)) {
    DeployRow row;
    row.path = layer->name();
    row.depth = layer->paf().mult_depth();
    row.static_scale = layer->static_scale();
    const double scale = std::max<double>(layer->static_scale(), 1e-3);
    const PafLatencyResult r = measure_paf_relu(rt, layer->paf(), scale, repeats);
    if (auto* pool = dynamic_cast<PafMaxTournament*>(layer))
      row.paf_calls = pool->windows().window_inputs() - 1;
    row.ms = r.ms_median * row.paf_calls;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace sp::smartpaf
