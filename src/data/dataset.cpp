#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>

namespace ls {

Dataset Dataset::subset(const std::vector<index_t>& row_ids,
                        const std::string& suffix) const {
  validate();
  std::vector<Triplet> triplets;
  std::vector<real_t> labels;
  labels.reserve(row_ids.size());

  // Map original row id -> new row id.
  SparseVector row;
  for (std::size_t new_i = 0; new_i < row_ids.size(); ++new_i) {
    const index_t old_i = row_ids[new_i];
    LS_CHECK(old_i >= 0 && old_i < rows(),
             "subset row " << old_i << " out of range");
    X.gather_row(old_i, row);
    const auto idx = row.indices();
    const auto val = row.values();
    for (index_t k = 0; k < row.nnz(); ++k) {
      triplets.push_back({static_cast<index_t>(new_i),
                          idx[static_cast<std::size_t>(k)],
                          val[static_cast<std::size_t>(k)]});
    }
    labels.push_back(y[static_cast<std::size_t>(old_i)]);
  }

  Dataset out;
  out.name = name + suffix;
  out.X = CooMatrix(static_cast<index_t>(row_ids.size()), cols(),
                    std::move(triplets));
  out.y = std::move(labels);
  return out;
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           std::uint64_t seed) const {
  validate();
  LS_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
           "train_fraction must be in (0, 1), got " << train_fraction);
  std::vector<index_t> ids(static_cast<std::size_t>(rows()));
  std::iota(ids.begin(), ids.end(), index_t{0});
  Rng rng(seed);
  shuffle(ids.begin(), ids.end(), rng);

  const auto n_train = static_cast<std::size_t>(
      train_fraction * static_cast<double>(rows()) + 0.5);
  LS_CHECK(n_train >= 1 && n_train < ids.size(),
           "split leaves an empty train or test set");

  std::vector<index_t> train_ids(ids.begin(),
                                 ids.begin() + static_cast<std::ptrdiff_t>(n_train));
  std::vector<index_t> test_ids(ids.begin() + static_cast<std::ptrdiff_t>(n_train),
                                ids.end());
  return {subset(train_ids, ".train"), subset(test_ids, ".test")};
}

}  // namespace ls
