// Text serialization for trained SVM models (LIBSVM-inspired layout):
// a header of scalar fields followed by one "coef idx:val idx:val ..."
// line per support vector. Round-trips at full double precision.
#pragma once

#include <iosfwd>
#include <string>

#include "svm/model.hpp"

namespace ls {

/// Writes a binary model.
void save_model(std::ostream& out, const SvmModel& model);
void save_model_file(const std::string& path, const SvmModel& model);

/// Reads a binary model; throws ls::Error on malformed input.
SvmModel load_model(std::istream& in);
SvmModel load_model_file(const std::string& path);

}  // namespace ls
