#include "smartpaf/techniques.h"

namespace sp::smartpaf {

void apply_train_target(nn::Model& model, TrainTarget target) {
  for (nn::Param* p : model.params()) {
    switch (target) {
      case TrainTarget::Both: p->frozen = false; break;
      case TrainTarget::PafOnly: p->frozen = p->group != nn::ParamGroup::PafCoeff; break;
      case TrainTarget::OtherOnly: p->frozen = p->group != nn::ParamGroup::Other; break;
    }
  }
}

}  // namespace sp::smartpaf
