#pragma once

#include "nn/container.h"
#include "smartpaf/replace.h"

namespace sp::smartpaf {

/// Which parameter group trains during a phase. Alternate Training (§4.4)
/// toggles between PafOnly and OtherOnly; the prior-work baseline trains
/// OtherOnly ("trains other layers, excluding the PAFs", §5.3); PA without
/// AT trains Both.
enum class TrainTarget { Both, PafOnly, OtherOnly };

/// Applies group-level freezing for a target (positional freezing composes
/// on top via freeze_after_site).
void apply_train_target(nn::Model& model, TrainTarget target);

}  // namespace sp::smartpaf
