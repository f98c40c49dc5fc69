#include "lp/basis.h"

#include <cmath>

#include "common/error.h"

namespace sb::lp {
namespace {

/// Update pivots smaller than this force a refactorization instead of an
/// eta append (product-form updates amplify error by 1/|pivot|).
constexpr double kUpdatePivotTol = 1e-9;
/// Eta entries below this are dropped: FTRAN images carry long tails of
/// roundoff-scale fill that would otherwise dominate every later
/// ftran/btran through the eta file.
constexpr double kEtaDropTol = 1e-12;

}  // namespace

Basis::LoadResult Basis::load(const SparseStore& a,
                              const std::vector<int>& ids, std::size_t m) {
  updates_.clear();
  update_nnz_ = 0;
  ++factorizations_;
  LoadResult result;
  result.rejected = lu_.factorize(a, ids, m);
  result.unpivoted_rows = lu_.unpivoted_rows();
  return result;
}

void Basis::ftran(IndexedVector& x) const {
  lu_.ftran(x);
  for (const UpdateEta& eta : updates_) {
    const double xp = x.values[static_cast<std::size_t>(eta.position)];
    if (xp == 0.0) continue;
    const double t = xp / eta.pivot;
    x.set(eta.position, t);
    for (const auto& [i, w] : eta.entries) x.add(i, -w * t);
  }
}

void Basis::btran(IndexedVector& x) const {
  for (std::size_t k = updates_.size(); k-- > 0;) {
    const UpdateEta& eta = updates_[k];
    double acc = x.values[static_cast<std::size_t>(eta.position)];
    bool any = acc != 0.0;
    for (const auto& [i, w] : eta.entries) {
      const double v = x.values[static_cast<std::size_t>(i)];
      if (v != 0.0) {
        acc -= w * v;
        any = true;
      }
    }
    if (any) x.set(eta.position, acc / eta.pivot);
  }
  lu_.btran(x);
}

bool Basis::update(int position, const IndexedVector& w) {
  const double pivot = w.values[static_cast<std::size_t>(position)];
  if (std::abs(pivot) < kUpdatePivotTol) return false;
  UpdateEta eta;
  eta.position = position;
  eta.pivot = pivot;
  eta.entries.reserve(w.nz.size());
  for (int i : w.nz) {
    if (i == position) continue;
    const double v = w.values[static_cast<std::size_t>(i)];
    if (std::abs(v) > kEtaDropTol) eta.entries.emplace_back(i, v);
  }
  update_nnz_ += eta.entries.size() + 1;
  updates_.push_back(std::move(eta));
  return true;
}

}  // namespace sb::lp
