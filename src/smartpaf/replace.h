#pragma once

#include <vector>

#include "approx/presets.h"
#include "nn/container.h"
#include "smartpaf/paf_layers.h"

namespace sp::smartpaf {

/// Kind of non-polynomial operator at a replacement site.
enum class SiteKind { ReLU, MaxPool };

/// One non-polynomial operator in inference order, with the owning slot so
/// the replacement pass can swap the layer in place.
struct NonPolySite {
  std::size_t index = 0;
  SiteKind kind = SiteKind::ReLU;
  std::string path;
  std::unique_ptr<nn::Layer>* slot = nullptr;
};

/// Enumerates the model's remaining non-polynomial operators (ReLU/MaxPool)
/// in inference order. Pointers are invalidated by structural changes.
std::vector<NonPolySite> find_nonpoly_sites(nn::Model& model);

/// Enumerates the model's PAF layers in inference order (after replacement).
std::vector<PafLayerBase*> find_paf_layers(nn::Model& model);

/// Replaces one site with the matching PAF layer (PafActivation for ReLU,
/// PafMaxPool for MaxPool, inheriting kernel geometry). Returns the new
/// layer. Invalidate-params is handled internally.
PafLayerBase* replace_site(nn::Model& model, const NonPolySite& site,
                           const approx::CompositePaf& paf,
                           ScaleMode mode = ScaleMode::Dynamic);

/// Options for whole-model replacement.
struct ReplaceOptions {
  approx::PafForm form = approx::PafForm::F1SQ_G1SQ;
  bool replace_maxpool = true;
  ScaleMode mode = ScaleMode::Dynamic;
  /// Optional per-site coefficient overrides (from Coefficient Tuning),
  /// indexed by site order; empty entries fall back to the form's initial
  /// coefficients.
  std::vector<std::vector<double>> per_site_coeffs;
};

/// Replaces every matching non-polynomial operator at once ("direct
/// replacement", the prior-works baseline).
std::vector<PafLayerBase*> replace_all(nn::Model& model, const ReplaceOptions& opts);

/// DS -> SS conversion across the whole model (paper §4.5): freezes every
/// PAF layer's scale to its training running max.
void convert_to_static_scaling(nn::Model& model);

/// Freeze-only overlay: marks parameters of all layers strictly *after* the
/// `site_index`-th PAF/non-poly site (inference order) as frozen
/// (Progressive Approximation trains only the replacement point and what
/// precedes it). Negative index is a no-op. Compose with group freezing by
/// applying the group pass first.
void freeze_after_site(nn::Model& model, long site_index);

/// Clears every parameter's frozen flag.
void unfreeze_all(nn::Model& model);

}  // namespace sp::smartpaf
