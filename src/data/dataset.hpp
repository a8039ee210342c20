// A labelled machine-learning dataset: the n x d matrix X plus the label
// vector y from the paper's Section II. X is held in canonical COO (the
// conversion hub); the layout scheduler decides its materialised format.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "formats/coo.hpp"

namespace ls {

/// Labelled dataset. Labels are +1 / -1 (binary classification).
struct Dataset {
  std::string name;
  CooMatrix X;
  std::vector<real_t> y;

  index_t rows() const { return X.rows(); }
  index_t cols() const { return X.cols(); }

  /// Throws unless X and y agree and labels are present.
  void validate() const {
    LS_CHECK(static_cast<index_t>(y.size()) == X.rows(),
             "dataset '" << name << "': " << y.size() << " labels for "
                         << X.rows() << " samples");
  }

  /// Splits into train/test by a deterministic shuffled partition.
  /// `train_fraction` of the rows go to the first returned dataset.
  std::pair<Dataset, Dataset> split(double train_fraction,
                                    std::uint64_t seed = 42) const;

  /// Returns a new dataset containing the given rows (in order).
  Dataset subset(const std::vector<index_t>& row_ids,
                 const std::string& suffix) const;
};

}  // namespace ls
