#include "svm/model.hpp"

#include "common/error.hpp"

namespace ls {

real_t SvmModel::decision(const SparseVector& x) const {
  const real_t norm_x = x.squared_norm();
  real_t sum = 0.0;
  for (std::size_t k = 0; k < support_vectors.size(); ++k) {
    const SparseVector& sv = support_vectors[k];
    const real_t dot = sv.dot_sparse(x);
    sum += coef[k] * kernel_from_dot(kernel, dot, sv.squared_norm(), norm_x);
  }
  return sum - rho;
}

double SvmModel::accuracy(const Dataset& ds) const {
  ds.validate();
  LS_CHECK(ds.rows() > 0, "cannot score an empty dataset");
  index_t correct = 0;
  SparseVector row;
  for (index_t i = 0; i < ds.rows(); ++i) {
    ds.X.gather_row(i, row);
    if (predict(row) == ds.y[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ds.rows());
}

SvmModel build_model(const AnyMatrix& x, std::span<const real_t> y,
                     std::span<const real_t> alpha, real_t rho,
                     const KernelParams& kernel) {
  LS_CHECK(y.size() == alpha.size(), "label/alpha size mismatch");
  LS_CHECK(static_cast<index_t>(y.size()) == x.rows(),
           "label count does not match matrix rows");
  SvmModel model;
  model.kernel = kernel;
  model.rho = rho;
  model.num_features = x.cols();
  SparseVector row;
  for (index_t i = 0; i < x.rows(); ++i) {
    const real_t a = alpha[static_cast<std::size_t>(i)];
    if (a <= 0) continue;
    x.gather_row(i, row);
    model.support_vectors.push_back(row);
    model.coef.push_back(a * y[static_cast<std::size_t>(i)]);
  }
  return model;
}

CooMatrix support_vector_matrix(const SvmModel& model) {
  std::vector<Triplet> triplets;
  for (std::size_t k = 0; k < model.support_vectors.size(); ++k) {
    const SparseVector& sv = model.support_vectors[k];
    const auto idx = sv.indices();
    const auto val = sv.values();
    for (index_t e = 0; e < sv.nnz(); ++e) {
      triplets.push_back({static_cast<index_t>(k),
                          idx[static_cast<std::size_t>(e)],
                          val[static_cast<std::size_t>(e)]});
    }
  }
  return CooMatrix(static_cast<index_t>(model.support_vectors.size()),
                   model.num_features, std::move(triplets));
}

}  // namespace ls
