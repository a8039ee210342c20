// SGD with momentum — the paper's Equations (8) and (9):
//
//   V_{t+1} = mu * V_t - eta * dW_t
//   W_{t+1} = W_t + V_{t+1}
//
// mu = 0 recovers plain SGD (the paper notes the update rule "becomes the
// original version if mu = 0", which the tests assert).
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "dnn/layers.hpp"

namespace ls {

/// Momentum-SGD optimiser over a fixed set of parameter blobs.
class SgdOptimizer {
 public:
  /// `params` must stay alive and stable for the optimiser's lifetime.
  SgdOptimizer(std::vector<ParamBlob*> params, real_t learning_rate,
               real_t momentum)
      : params_(std::move(params)), eta_(learning_rate), mu_(momentum) {
    LS_CHECK(eta_ > 0, "learning rate must be positive");
    LS_CHECK(mu_ >= 0 && mu_ < 1, "momentum must be in [0, 1)");
    velocity_.resize(params_.size());
    for (std::size_t k = 0; k < params_.size(); ++k) {
      velocity_[k].assign(params_[k]->value.size(), 0.0);
    }
  }

  /// Applies one update from the currently accumulated gradients.
  void step() {
    for (std::size_t k = 0; k < params_.size(); ++k) {
      ParamBlob& p = *params_[k];
      std::vector<real_t>& v = velocity_[k];
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = mu_ * v[i] - eta_ * p.grad[i];  // Eq. (8)
        p.value[i] += v[i];                    // Eq. (9)
      }
    }
  }

 private:
  std::vector<ParamBlob*> params_;
  real_t eta_;
  real_t mu_;
  std::vector<std::vector<real_t>> velocity_;
};

}  // namespace ls
