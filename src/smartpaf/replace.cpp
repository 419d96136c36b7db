#include "smartpaf/replace.h"

#include "common/check.h"
#include "nn/layers.h"

namespace sp::smartpaf {
namespace {

/// Depth-first traversal over layer slots in execution order.
void walk_slots(nn::Layer& layer,
                const std::function<void(std::unique_ptr<nn::Layer>&)>& fn) {
  layer.visit_children([&](std::unique_ptr<nn::Layer>& slot) {
    fn(slot);
    walk_slots(*slot, fn);
  });
}

}  // namespace

std::vector<NonPolySite> find_nonpoly_sites(nn::Model& model) {
  std::vector<NonPolySite> sites;
  walk_slots(model.root(), [&](std::unique_ptr<nn::Layer>& slot) {
    if (!slot->is_nonpoly()) return;
    NonPolySite s;
    s.index = sites.size();
    const bool is_pool = dynamic_cast<nn::ExactMaxPool*>(slot.get()) != nullptr;
    s.kind = is_pool ? SiteKind::MaxPool : SiteKind::ReLU;
    s.path = slot->name();
    s.slot = &slot;
    sites.push_back(s);
  });
  return sites;
}

std::vector<PafLayerBase*> find_paf_layers(nn::Model& model) {
  std::vector<PafLayerBase*> out;
  walk_slots(model.root(), [&](std::unique_ptr<nn::Layer>& slot) {
    if (auto* p = dynamic_cast<PafLayerBase*>(slot.get())) out.push_back(p);
  });
  return out;
}

PafLayerBase* replace_site(nn::Model& model, const NonPolySite& site,
                           const approx::CompositePaf& paf, ScaleMode mode) {
  sp::check(site.slot != nullptr && *site.slot != nullptr, "replace_site: stale site");
  PafLayerBase* created = nullptr;
  if (site.kind == SiteKind::MaxPool) {
    if (auto* pool1d = dynamic_cast<nn::MaxPool1d*>(site.slot->get())) {
      auto repl = std::make_unique<PafMaxPool1d>(paf, pool1d->window(),
                                                 pool1d->stride(),
                                                 site.path + ".pafmax", mode);
      created = repl.get();
      *site.slot = std::move(repl);
      model.invalidate_params();
      return created;
    }
    auto* pool = dynamic_cast<nn::MaxPool2d*>(site.slot->get());
    sp::check(pool != nullptr, "replace_site: site is not a MaxPool1d/MaxPool2d");
    auto repl = std::make_unique<PafMaxPool>(paf, pool->kernel(), pool->stride(),
                                             pool->pad(), site.path + ".pafmax", mode);
    created = repl.get();
    *site.slot = std::move(repl);
  } else {
    auto repl = std::make_unique<PafActivation>(paf, site.path + ".paf", mode);
    created = repl.get();
    *site.slot = std::move(repl);
  }
  model.invalidate_params();
  return created;
}

std::vector<PafLayerBase*> replace_all(nn::Model& model, const ReplaceOptions& opts) {
  // Replacement assigns into existing slots, so the other slot pointers from
  // a single enumeration remain valid throughout.
  const auto sites = find_nonpoly_sites(model);
  std::vector<PafLayerBase*> created;
  for (const auto& site : sites) {
    if (site.kind == SiteKind::MaxPool && !opts.replace_maxpool) continue;
    approx::CompositePaf paf = approx::make_paf(opts.form);
    // per_site_coeffs is indexed by the site's position among *all*
    // non-polynomial sites (the Coefficient Tuning enumeration).
    if (site.index < opts.per_site_coeffs.size() &&
        !opts.per_site_coeffs[site.index].empty())
      paf.load_coeffs(opts.per_site_coeffs[site.index]);
    created.push_back(replace_site(model, site, paf, opts.mode));
  }
  return created;
}

void convert_to_static_scaling(nn::Model& model) {
  for (PafLayerBase* p : find_paf_layers(model)) p->convert_to_static();
}

void freeze_after_site(nn::Model& model, long site_index) {
  if (site_index < 0) return;
  long seen = 0;
  walk_slots(model.root(), [&](std::unique_ptr<nn::Layer>& slot) {
    const bool is_site = slot->is_nonpoly() || dynamic_cast<PafLayerBase*>(slot.get());
    // Freeze-only overlay: leaves strictly after the site lose trainability;
    // earlier layers keep whatever group-level freeze they already have.
    if (seen > site_index) {
      bool has_children = false;
      slot->visit_children([&](std::unique_ptr<nn::Layer>&) { has_children = true; });
      if (!has_children) {
        std::vector<nn::Param*> ps;
        slot->collect_params(ps);
        for (nn::Param* p : ps) p->frozen = true;
      }
    }
    if (is_site) ++seen;
  });
}

void unfreeze_all(nn::Model& model) {
  for (nn::Param* p : model.params()) p->frozen = false;
}

}  // namespace sp::smartpaf
