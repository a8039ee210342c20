#include "svm/serialize.hpp"

#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/fs_atomic.hpp"

namespace ls {

namespace {

constexpr const char* kModelMagic = "ls_svm_model v1";

const char* kernel_tag(KernelType t) { return kernel_name(t); }

void expect_line(std::istream& in, const std::string& expected,
                 const char* what) {
  std::string line;
  LS_CHECK(std::getline(in, line), "model stream truncated before " << what);
  LS_CHECK(line == expected,
           "bad " << what << ": expected '" << expected << "', got '" << line
                  << "'");
}

template <class T>
T read_field(std::istream& in, const char* name) {
  std::string line;
  LS_CHECK(std::getline(in, line), "model stream truncated at " << name);
  std::istringstream ls(line);
  std::string key;
  T value{};
  LS_CHECK(static_cast<bool>(ls >> key >> value) && key == name,
           "bad model field: expected '" << name << "', got '" << line << "'");
  return value;
}

}  // namespace

void save_model(std::ostream& out, const SvmModel& model) {
  out.precision(17);
  out << kModelMagic << '\n';
  out << "kernel " << kernel_tag(model.kernel.type) << '\n';
  out << "gamma " << model.kernel.gamma << '\n';
  out << "coef0 " << model.kernel.coef0 << '\n';
  out << "degree " << model.kernel.degree << '\n';
  out << "rho " << model.rho << '\n';
  out << "num_features " << model.num_features << '\n';
  out << "num_sv " << model.support_vectors.size() << '\n';
  for (std::size_t k = 0; k < model.support_vectors.size(); ++k) {
    out << model.coef[k];
    const SparseVector& sv = model.support_vectors[k];
    const auto idx = sv.indices();
    const auto val = sv.values();
    for (index_t e = 0; e < sv.nnz(); ++e) {
      out << ' ' << idx[static_cast<std::size_t>(e)] << ':'
          << val[static_cast<std::size_t>(e)];
    }
    out << '\n';
  }
}

SvmModel load_model(std::istream& in) {
  expect_line(in, kModelMagic, "model magic");
  SvmModel model;
  model.kernel.type = parse_kernel(read_field<std::string>(in, "kernel"));
  model.kernel.gamma = read_field<real_t>(in, "gamma");
  model.kernel.coef0 = read_field<real_t>(in, "coef0");
  model.kernel.degree = static_cast<int>(read_field<long long>(in, "degree"));
  model.rho = read_field<real_t>(in, "rho");
  model.num_features = read_field<index_t>(in, "num_features");
  const auto num_sv = read_field<long long>(in, "num_sv");
  LS_CHECK(num_sv >= 0, "negative support vector count");

  for (long long k = 0; k < num_sv; ++k) {
    std::string line;
    LS_CHECK(std::getline(in, line),
             "model stream truncated at support vector " << k);
    std::istringstream ls(line);
    real_t coef = 0.0;
    LS_CHECK(static_cast<bool>(ls >> coef),
             "bad support vector line: '" << line << "'");
    SparseVector sv;
    std::string token;
    index_t prev = -1;
    while (ls >> token) {
      const auto colon = token.find(':');
      LS_CHECK(colon != std::string::npos && colon > 0,
               "bad sv entry '" << token << "'");
      // strtoll/strtod with end-pointer checks: corrupt tokens (e.g. from a
      // truncated file) must surface as ls::Error, never std::stoll's
      // std::invalid_argument or a silently half-parsed number.
      char* end = nullptr;
      const index_t idx =
          static_cast<index_t>(std::strtoll(token.c_str(), &end, 10));
      LS_CHECK(end == token.c_str() + colon,
               "bad sv index in '" << token << "'");
      const char* vbegin = token.c_str() + colon + 1;
      const real_t val = std::strtod(vbegin, &end);
      LS_CHECK(end != vbegin && *end == '\0',
               "bad sv value in '" << token << "'");
      LS_CHECK(idx > prev, "sv indices must be strictly increasing");
      LS_CHECK(idx >= 0 && idx < model.num_features,
               "sv index " << idx << " out of feature range");
      prev = idx;
      sv.push_back(idx, val);
    }
    model.coef.push_back(coef);
    model.support_vectors.push_back(std::move(sv));
  }
  return model;
}

void save_model_file(const std::string& path, const SvmModel& model) {
  LS_FAILPOINT("svm.serialize.save");
  atomic_write_file(path, [&](std::ostream& out) { save_model(out, model); });
}

SvmModel load_model_file(const std::string& path) {
  LS_FAILPOINT("svm.serialize.load");
  std::istringstream in(read_file_verified(path));
  return load_model(in);
}

}  // namespace ls
