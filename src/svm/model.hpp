// Trained SVM model and prediction.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "data/dataset.hpp"
#include "formats/any_matrix.hpp"
#include "formats/sparse_vector.hpp"
#include "svm/kernel.hpp"

namespace ls {

/// Binary SVM model: decision(x) = sum_i coef_i K(sv_i, x) - rho, where
/// coef_i = alpha_i y_i. Support vectors are stored sparsely so prediction
/// cost scales with their nonzeros, independent of the training layout.
struct SvmModel {
  KernelParams kernel;
  real_t rho = 0.0;
  index_t num_features = 0;
  std::vector<SparseVector> support_vectors;
  std::vector<real_t> coef;  ///< alpha_i * y_i per support vector

  /// Raw decision value for a sparse sample.
  real_t decision(const SparseVector& x) const;

  /// Predicted label (+1 / -1) for a sparse sample.
  real_t predict(const SparseVector& x) const {
    return decision(x) >= 0 ? 1.0 : -1.0;
  }

  /// True when `x` is dimensionally compatible with the model: every
  /// feature index lies in [0, num_features). Indices are sorted, so only
  /// the two ends need checking — an O(1) gate the batch-scoring paths run
  /// before scattering a request into a num_features-wide dense workspace,
  /// where an oversized index would otherwise write out of bounds. The
  /// serving layer maps a failure to a protocol error (kBadDimension).
  bool accepts(const SparseVector& x) const {
    return x.empty() || (x.indices().front() >= 0 &&
                         x.indices().back() < num_features);
  }

  /// Fraction of correctly classified rows of `ds` (labels must be +-1).
  double accuracy(const Dataset& ds) const;
};

/// Extracts the model from solver output: rows with alpha_i > 0 become
/// support vectors (gathered from the training matrix).
SvmModel build_model(const AnyMatrix& x, std::span<const real_t> y,
                     std::span<const real_t> alpha, real_t rho,
                     const KernelParams& kernel);

/// The model's support vectors assembled as a canonical #SV x num_features
/// COO matrix — the thing the layout scheduler decides over. Shared by
/// BatchPredictor (which materialises it in the chosen format) and the
/// serving-side rescheduler (which extracts the nine influencing
/// parameters from it to seed bandit arm priors).
CooMatrix support_vector_matrix(const SvmModel& model);

}  // namespace ls
