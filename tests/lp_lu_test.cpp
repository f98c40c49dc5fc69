// Kernel tests for the sparse LU factorization (lp/lu_factor.h) and the
// product-form basis built on it (lp/basis.h), below the simplex engines:
// FTRAN/BTRAN residuals on seeded random sparse bases and on bases of
// provisioning-shaped LPs, with unit and dense right-hand sides; dependent
// and singular column sets, whose rejected positions and unpivoted rows are
// pinned; one LuFactor refactorized on bases of different sizes and
// patterns, and on bases picked by id out of wider column stores, which
// must answer bit for bit like fresh objects on stores of just those
// columns (its reused storage must never leak an earlier factor);
// Basis::update chains, which must agree with a fresh load of the updated
// column set; and the simplex's flat column and row stores
// (lp/simplex_core.h): their layout with empty columns and rows, and the
// guard on entry counts past int.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "invalid_what.h"
#include "lp/basis.h"
#include "lp/dual_simplex.h"
#include "lp/lu_factor.h"
#include "lp/revised_simplex.h"
#include "lp/simplex_core.h"
#include "lp/standard_form.h"
#include "lp_models.h"

namespace sb::lp {
namespace {

/// A test column: (row, value) pairs.
using SparseCol = std::vector<std::pair<std::size_t, double>>;
using Columns = std::vector<SparseCol>;

/// `cols` flattened into a CSC store, as the simplex keeps its columns, and
/// the ids that pick them in order.
struct Flat {
  SparseStore store;
  std::vector<int> ids;
};

Flat flatten(const Columns& cols) {
  Flat out;
  for (const SparseCol& c : cols) {
    for (const auto& [r, v] : c) {
      out.store.index.push_back(static_cast<int>(r));
      out.store.value.push_back(v);
    }
    out.store.start.push_back(static_cast<int>(out.store.index.size()));
    out.ids.push_back(static_cast<int>(out.ids.size()));
  }
  return out;
}

std::vector<int> factorize(LuFactor& lu, const Columns& cols, std::size_t m) {
  const Flat flat = flatten(cols);
  return lu.factorize(flat.store, flat.ids, m);
}

Basis::LoadResult load(Basis& basis, const Columns& cols, std::size_t m) {
  const Flat flat = flatten(cols);
  return basis.load(flat.store, flat.ids, m);
}

/// Largest absolute column sum: the norm residuals are scaled by.
double column_norm(const Columns& cols) {
  double norm = 0.0;
  for (const SparseCol& c : cols) {
    double sum = 0.0;
    for (const auto& [r, v] : c) sum += std::abs(v);
    norm = std::max(norm, sum);
  }
  return norm;
}

bool has_row(const SparseCol& col, std::size_t r) {
  return std::any_of(col.begin(), col.end(),
                     [&](const auto& t) { return t.first == r; });
}

/// A nonsingular m x m sparse basis: column p carries up to `extra`
/// off-diagonal entries in random rows plus an entry at row perm[p] larger
/// than their sum, so the row-permuted matrix is strictly column diagonally
/// dominant. The permutation makes the factorization find its pivots, and
/// the off-diagonal entries leave it a nucleus to factorize numerically.
Columns random_basis(std::uint64_t seed, std::size_t m, std::size_t extra) {
  Rng rng(seed);
  std::vector<std::size_t> perm(m);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.shuffle(perm);
  Columns cols(m);
  for (std::size_t p = 0; p < m; ++p) {
    SparseCol& col = cols[p];
    double off = 0.0;
    for (std::size_t e = 0; e < extra; ++e) {
      const auto r = static_cast<std::size_t>(rng.uniform_index(m));
      if (r == perm[p] || has_row(col, r)) continue;
      const double v = rng.uniform(-1.0, 1.0);
      col.emplace_back(r, v);
      off += std::abs(v);
    }
    const double sign = rng.chance(0.5) ? 1.0 : -1.0;
    col.emplace_back(perm[p], sign * (1.0 + off) * rng.uniform(1.0, 2.0));
    std::sort(col.begin(), col.end());
  }
  return cols;
}

/// A random sparse column with `nnz` entries in distinct rows.
SparseCol random_column(Rng& rng, std::size_t m, std::size_t nnz) {
  SparseCol col;
  while (col.size() < std::min(nnz, m)) {
    const auto r = static_cast<std::size_t>(rng.uniform_index(m));
    if (!has_row(col, r)) col.emplace_back(r, rng.uniform(-2.0, 2.0));
  }
  std::sort(col.begin(), col.end());
  return col;
}

IndexedVector load_vector(const std::vector<double>& dense) {
  IndexedVector x;
  x.resize(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) x.set(static_cast<int>(i), dense[i]);
  }
  return x;
}

std::vector<double> unit(std::size_t m, std::size_t i) {
  std::vector<double> e(m, 0.0);
  e[i] = 1.0;
  return e;
}

std::vector<double> dense_rhs(Rng& rng, std::size_t m) {
  std::vector<double> b(m);
  for (double& v : b) v = rng.uniform(-10.0, 10.0);
  return b;
}

/// Right-hand sides every residual check runs: three unit vectors (first,
/// middle and last index) and two dense ones.
std::vector<std::vector<double>> rhs_set(std::uint64_t seed, std::size_t m) {
  Rng rng(seed);
  std::vector<std::vector<double>> out = {unit(m, 0), unit(m, m / 2),
                                          unit(m, m - 1)};
  out.push_back(dense_rhs(rng, m));
  out.push_back(dense_rhs(rng, m));
  return out;
}

/// ||B w - b||_inf for w = ftran(b), against 1e-9 times the scale a
/// backward-stable solve's residual grows with.
template <typename Solver>
void expect_ftran_solves(const Solver& solver, const Columns& cols,
                         const std::vector<double>& b,
                         const std::string& where) {
  const std::size_t m = b.size();
  IndexedVector x = load_vector(b);
  solver.ftran(x);
  std::vector<double> bw(m, 0.0);
  double w_max = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    const double w = x.values[p];
    w_max = std::max(w_max, std::abs(w));
    for (const auto& [r, v] : cols[p]) bw[r] += v * w;
  }
  double residual = 0.0;
  double b_max = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    residual = std::max(residual, std::abs(bw[i] - b[i]));
    b_max = std::max(b_max, std::abs(b[i]));
  }
  const double scale = std::max({1.0, b_max, column_norm(cols) * w_max});
  EXPECT_LE(residual, 1e-9 * scale) << where << ": ftran";
}

/// ||B^T y - c||_inf for y = btran(c), scaled likewise.
template <typename Solver>
void expect_btran_solves(const Solver& solver, const Columns& cols,
                         const std::vector<double>& c,
                         const std::string& where) {
  const std::size_t m = c.size();
  IndexedVector x = load_vector(c);
  solver.btran(x);
  double y_max = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    y_max = std::max(y_max, std::abs(x.values[i]));
  }
  double residual = 0.0;
  double c_max = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    double dot = 0.0;
    for (const auto& [r, v] : cols[p]) dot += v * x.values[r];
    residual = std::max(residual, std::abs(dot - c[p]));
    c_max = std::max(c_max, std::abs(c[p]));
  }
  double row_norm = 0.0;
  std::vector<double> row_sum(m, 0.0);
  for (const SparseCol& col : cols) {
    for (const auto& [r, v] : col) row_sum[r] += std::abs(v);
  }
  for (double s : row_sum) row_norm = std::max(row_norm, s);
  const double scale = std::max({1.0, c_max, row_norm * y_max});
  EXPECT_LE(residual, 1e-9 * scale) << where << ": btran";
}

template <typename Solver>
void expect_solves(const Solver& solver, const Columns& cols,
                   std::uint64_t seed, const std::string& where) {
  const auto rhs = rhs_set(seed, cols.size());
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    const std::string at = where + " rhs " + std::to_string(k);
    expect_ftran_solves(solver, cols, rhs[k], at);
    expect_btran_solves(solver, cols, rhs[k], at);
  }
}

TEST(LuFactorTest, RandomSparseBasesSolveWithSmallResiduals) {
  std::uint64_t seed = 100;
  for (std::size_t m : {1u, 7u, 40u, 150u}) {
    for (std::size_t extra : {0u, 2u, 4u}) {
      for (int rep = 0; rep < 3; ++rep, ++seed) {
        const Columns cols = random_basis(seed, m, extra);
        LuFactor lu;
        const std::vector<int> rejected = factorize(lu, cols, m);
        const std::string where = "seed " + std::to_string(seed) + " m " +
                                  std::to_string(m) + " extra " +
                                  std::to_string(extra);
        ASSERT_TRUE(rejected.empty()) << where;
        ASSERT_TRUE(lu.unpivoted_rows().empty()) << where;
        EXPECT_EQ(lu.size(), m);
        expect_solves(lu, cols, seed, where);
      }
    }
  }
}

/// The bases the simplex factorizes on provisioning LPs: a standard form's
/// structural columns and unit logicals, restricted to the columns marked
/// basic by a sparse solve (to optimality, and cut off halfway).
std::vector<Columns> provisioning_bases(const Model& model) {
  const StandardForm sf = to_standard_form(model, BoundPolicy::kInline);
  const std::size_t n = sf.var_count();
  const std::size_t m = sf.rows.size();
  Columns all(n + m);
  for (std::size_t r = 0; r < m; ++r) {
    for (const Term& t : sf.rows[r].terms) {
      all[static_cast<std::size_t>(t.var)].emplace_back(r, t.coeff);
    }
    all[n + r].emplace_back(r, 1.0);
  }
  SimplexOptions options;
  const SfSolution optimal = solve_sparse(sf, options);
  EXPECT_EQ(optimal.status, SolveStatus::kOptimal);
  options.max_iterations = std::max<std::size_t>(1, optimal.iterations / 2);
  const SfSolution halfway = solve_sparse(sf, options);
  std::vector<Columns> bases;
  for (const SfSolution* sol : {&optimal, &halfway}) {
    Columns basis;
    for (std::size_t j = 0; j < sol->statuses.size(); ++j) {
      if (sol->statuses[j] == VarStatus::kBasic) basis.push_back(all[j]);
    }
    EXPECT_EQ(basis.size(), m);
    bases.push_back(std::move(basis));
  }
  return bases;
}

TEST(LuFactorTest, ProvisioningBasesSolveWithSmallResiduals) {
  struct Shape {
    std::size_t slots, configs, dcs;
    std::uint64_t seed;
  };
  for (const Shape& s : {Shape{4, 6, 3, 41}, Shape{8, 10, 5, 42},
                         Shape{12, 16, 5, 43}, Shape{24, 12, 8, 44}}) {
    const Model model =
        test::make_provisioning_lp(s.slots, s.configs, s.dcs, s.seed);
    const std::vector<Columns> bases = provisioning_bases(model);
    for (std::size_t b = 0; b < bases.size(); ++b) {
      const Columns& cols = bases[b];
      const std::string where = "shape seed " + std::to_string(s.seed) +
                                (b == 0 ? " optimal" : " halfway");
      LuFactor lu;
      ASSERT_TRUE(factorize(lu, cols, cols.size()).empty()) << where;
      expect_solves(lu, cols, s.seed, where);
    }
  }
}

struct Factored {
  std::vector<int> rejected;
  std::vector<int> unpivoted;
};

Factored factor(const Columns& cols, std::size_t m) {
  LuFactor lu;
  Factored out;
  out.rejected = factorize(lu, cols, m);
  out.unpivoted = lu.unpivoted_rows();
  return out;
}

TEST(LuFactorTest, DependentColumnsAreRejectedAtPinnedPositions) {
  using V = std::vector<int>;
  // A column twice another's, and a row no column reaches.
  {
    const Columns cols = {{{0, 1.0}, {1, 1.0}},
                          {{0, 2.0}, {1, 2.0}},
                          {{2, 1.0}},
                          {{2, 3.0}}};
    const Factored f = factor(cols, 4);
    EXPECT_EQ(f.rejected, (V{1, 2}));
    EXPECT_EQ(f.unpivoted, (V{1, 3}));
  }
  // An empty column.
  {
    const Columns cols = {{{0, 1.0}}, {}, {{2, 1.0}}};
    const Factored f = factor(cols, 3);
    EXPECT_EQ(f.rejected, (V{1}));
    EXPECT_EQ(f.unpivoted, (V{1}));
  }
  // A column within roundoff of another's multiple is numerically
  // dependent.
  {
    const Columns cols = {{{0, 1.0}, {1, 2.0}, {2, 1.0}},
                          {{0, 3.0}, {1, 6.0 + 1e-13}, {2, 3.0}},
                          {{1, 1.0}, {2, -1.0}}};
    const Factored f = factor(cols, 3);
    EXPECT_EQ(f.rejected, (V{1}));
    EXPECT_EQ(f.unpivoted, (V{0}));
  }
  // Fewer columns than rows: the rows left over are reported.
  {
    const Columns cols = {{{1, 1.0}, {3, 2.0}}, {{3, 1.0}}};
    const Factored f = factor(cols, 5);
    EXPECT_TRUE(f.rejected.empty());
    EXPECT_EQ(f.unpivoted, (V{0, 2, 4}));
  }
  // A random basis with two columns replaced by combinations of others.
  {
    Columns cols = random_basis(7, 30, 3);
    SparseCol combo = cols[1];
    for (auto& [r, v] : combo) v *= 0.5;
    for (const auto& [r, v] : cols[9]) combo.emplace_back(r, 2.0 * v);
    cols[4] = combo;
    SparseCol diff = cols[3];
    for (const auto& [r, v] : cols[20]) diff.emplace_back(r, -v);
    cols[17] = diff;
    const Factored f = factor(cols, 30);
    EXPECT_EQ(f.rejected, (V{4, 17}));
    EXPECT_EQ(f.unpivoted, (V{0, 13}));
  }
}

/// Everything a solve returns, kept for byte comparison.
struct Answer {
  std::vector<double> values;
  std::vector<int> nz;
};

Answer answer(const IndexedVector& x) { return {x.values, x.nz}; }

bool same_bytes(const Answer& a, const Answer& b) {
  return a.nz == b.nz && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(double)) == 0;
}

/// Every rhs of `seed` through both factors' FTRAN and BTRAN, compared
/// byte for byte.
void expect_same_answers(const LuFactor& reused, const LuFactor& fresh,
                         std::size_t m, std::uint64_t seed,
                         const std::string& where) {
  for (const std::vector<double>& rhs : rhs_set(seed, m)) {
    IndexedVector a = load_vector(rhs);
    IndexedVector b = load_vector(rhs);
    reused.ftran(a);
    fresh.ftran(b);
    EXPECT_TRUE(same_bytes(answer(a), answer(b))) << where << ": ftran";
    a = load_vector(rhs);
    b = load_vector(rhs);
    reused.btran(a);
    fresh.btran(b);
    EXPECT_TRUE(same_bytes(answer(a), answer(b))) << where << ": btran";
  }
}

TEST(LuFactorTest, RefactorizingMatchesFreshObjectsBitForBit) {
  // Large, small, large with another pattern, a large dependent set, and
  // the first large basis again: every step through one reused object must
  // answer exactly like a fresh object on the same columns.
  std::vector<Columns> sequence = {random_basis(11, 220, 4),
                                   random_basis(12, 12, 2),
                                   random_basis(13, 240, 3)};
  Columns dependent = random_basis(14, 200, 3);
  dependent[50] = dependent[10];
  dependent[120] = {};
  sequence.push_back(dependent);
  sequence.push_back(sequence.front());

  LuFactor reused;
  for (std::size_t step = 0; step < sequence.size(); ++step) {
    const Columns& cols = sequence[step];
    const std::size_t m = cols.size();
    LuFactor fresh;
    const std::string where = "step " + std::to_string(step);
    EXPECT_EQ(factorize(reused, cols, m), factorize(fresh, cols, m)) << where;
    EXPECT_EQ(reused.unpivoted_rows(), fresh.unpivoted_rows()) << where;
    EXPECT_EQ(reused.fill_nnz(), fresh.fill_nnz()) << where;
    EXPECT_EQ(reused.size(), m) << where;
    expect_same_answers(reused, fresh, m, step, where);
  }
}

TEST(LuFactorTest, SubsetsOfWiderStoresMatchTheirOwnStoresBitForBit) {
  // The simplex factorizes its basis by column id out of a store of every
  // column. One reused object takes bases out of stores of different
  // widths, by ids in shuffled order, and must answer exactly like a fresh
  // object on a store of only those columns in basis order. The last basis
  // holds a repeated and an empty column, so the rejected positions are
  // compared too.
  struct Shape {
    std::size_t m, width;
  };
  LuFactor reused;
  std::uint64_t seed = 400;
  for (const Shape& s : {Shape{30, 90}, Shape{8, 11}, Shape{120, 300},
                         Shape{45, 60}}) {
    ++seed;
    Columns basis = random_basis(seed, s.m, 3);
    if (s.m == 45) {
      basis[20] = basis[7];
      basis[33] = {};
    }
    Rng rng(seed);
    std::vector<int> slot(s.width);
    std::iota(slot.begin(), slot.end(), 0);
    rng.shuffle(slot);
    Columns wide(s.width);
    for (SparseCol& c : wide) {
      c = random_column(rng, s.m, 1 + rng.uniform_index(4));
    }
    std::vector<int> ids(s.m);
    for (std::size_t k = 0; k < s.m; ++k) {
      ids[k] = slot[k];
      wide[static_cast<std::size_t>(slot[k])] = basis[k];
    }
    const Flat store = flatten(wide);
    LuFactor fresh;
    const std::string where = "seed " + std::to_string(seed);
    const std::vector<int> rejected = reused.factorize(store.store, ids, s.m);
    EXPECT_EQ(rejected, factorize(fresh, basis, s.m)) << where;
    EXPECT_EQ(rejected.size(), s.m == 45 ? 2u : 0u) << where;
    EXPECT_EQ(reused.unpivoted_rows(), fresh.unpivoted_rows()) << where;
    EXPECT_EQ(reused.fill_nnz(), fresh.fill_nnz()) << where;
    expect_same_answers(reused, fresh, s.m, seed, where);
  }
}

/// max |a - b| over both solves of every rhs, against 1e-9 times the
/// answers' own scale.
void expect_same_solves(const Basis& updated, const Basis& loaded,
                        std::size_t m, std::uint64_t seed,
                        const std::string& where) {
  for (const std::vector<double>& rhs : rhs_set(seed, m)) {
    for (int transpose = 0; transpose < 2; ++transpose) {
      IndexedVector a = load_vector(rhs);
      IndexedVector b = load_vector(rhs);
      if (transpose != 0) {
        updated.btran(a);
        loaded.btran(b);
      } else {
        updated.ftran(a);
        loaded.ftran(b);
      }
      double gap = 0.0;
      double scale = 1.0;
      for (std::size_t i = 0; i < m; ++i) {
        gap = std::max(gap, std::abs(a.values[i] - b.values[i]));
        scale = std::max(scale, std::abs(b.values[i]));
      }
      EXPECT_LE(gap, 1e-9 * scale)
          << where << (transpose != 0 ? ": btran" : ": ftran");
    }
  }
}

TEST(BasisTest, UpdateChainsMatchFreshLoads) {
  const std::size_t chain = SimplexOptions{}.refactor_interval;
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    const std::size_t m = 30 + 10 * (seed % 3);
    Columns cols = random_basis(seed, m, 3);
    Basis basis;
    ASSERT_TRUE(load(basis, cols, m).clean());
    Rng rng(seed);
    for (std::size_t k = 0; k < chain; ++k) {
      // Enter a random column at the position where its FTRAN image is
      // largest, the best-conditioned swap.
      const SparseCol entering = random_column(rng, m, 2 + k % 4);
      IndexedVector w;
      w.resize(m);
      for (const auto& [r, v] : entering) w.add(static_cast<int>(r), v);
      basis.ftran(w);
      int position = 0;
      for (std::size_t p = 1; p < m; ++p) {
        if (std::abs(w.values[p]) >
            std::abs(w.values[static_cast<std::size_t>(position)])) {
          position = static_cast<int>(p);
        }
      }
      ASSERT_TRUE(basis.update(position, w));
      cols[static_cast<std::size_t>(position)] = entering;
      EXPECT_EQ(basis.update_count(), k + 1);

      Basis fresh;
      const std::string where =
          "seed " + std::to_string(seed) + " update " + std::to_string(k);
      ASSERT_TRUE(load(fresh, cols, m).clean()) << where;
      expect_same_solves(basis, fresh, m, seed + k, where);
    }
    // A reload discards the chain.
    ASSERT_TRUE(load(basis, cols, m).clean());
    EXPECT_EQ(basis.update_count(), 0u);
  }
}

TEST(BasisTest, UpdateRefusesATinyPivot) {
  const Columns cols = random_basis(300, 10, 2);
  Basis basis;
  ASSERT_TRUE(load(basis, cols, 10).clean());
  IndexedVector w;
  w.resize(10);
  w.set(3, 1e-12);
  w.set(5, 1.0);
  EXPECT_FALSE(basis.update(3, w));
  EXPECT_EQ(basis.update_count(), 0u);
  EXPECT_TRUE(basis.update(5, w));
  EXPECT_EQ(basis.update_count(), 1u);
}

TEST(SimplexStoreTest, BuildKeepsEmptyLinesAndEntryOrder) {
  // Column 1 is in no row, row 2 has no terms, and row 3 lists its terms
  // out of column order: columns come out ascending by row, each row keeps
  // its term order, and the unit logicals follow the structurals.
  StandardForm sf;
  sf.cost = {1.0, 2.0, 3.0, 4.0};
  sf.upper.assign(4, kInf);
  sf.rows = {{{{0, 1.0}, {2, 2.0}}, Sense::kLe, 1.0},
             {{{3, 3.0}}, Sense::kGe, 2.0},
             {{}, Sense::kEq, 0.0},
             {{{3, 4.0}, {0, 5.0}, {2, 6.0}}, Sense::kLe, 3.0}};
  SparseStore cols;
  SparseStore rows;
  build_stores(sf, cols, rows);
  using V = std::vector<int>;
  using D = std::vector<double>;
  EXPECT_EQ(cols.start, (V{0, 2, 2, 4, 6, 7, 8, 9, 10}));
  EXPECT_EQ(cols.index, (V{0, 3, 0, 3, 1, 3, 0, 1, 2, 3}));
  EXPECT_EQ(cols.value, (D{1, 5, 2, 6, 3, 4, 1, 1, 1, 1}));
  EXPECT_EQ(rows.start, (V{0, 2, 3, 3, 6}));
  EXPECT_EQ(rows.index, (V{0, 2, 3, 3, 0, 2}));
  EXPECT_EQ(rows.value, (D{1, 2, 3, 4, 5, 6}));
  for (const auto [r, v] : cols.line(1)) {
    ADD_FAILURE() << "empty column 1 holds (" << r << ", " << v << ")";
  }
  for (const auto [j, v] : rows.line(2)) {
    ADD_FAILURE() << "empty row 2 holds (" << j << ", " << v << ")";
  }

  // A rebuild over the same stores leaves nothing of a larger form behind.
  StandardForm small;
  small.cost = {1.0};
  small.upper = {kInf};
  small.rows = {{{{0, 2.0}}, Sense::kGe, 4.0}};
  build_stores(small, cols, rows);
  EXPECT_EQ(cols.start, (V{0, 1, 2}));
  EXPECT_EQ(cols.index, (V{0, 0}));
  EXPECT_EQ(rows.start, (V{0, 1}));

  // Both engines solve the form with its empty column and row: x3 = 2/3
  // meets row 1, every other column rests at zero.
  for (int dual = 0; dual < 2; ++dual) {
    SfSolution sol = dual != 0 ? solve_dual(sf, SimplexOptions{})
                               : solve_sparse(sf, SimplexOptions{});
    if (dual != 0) finish_on_primal(sf, SimplexOptions{}, sol, nullptr);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "dual " << dual;
    ASSERT_EQ(sol.values.size(), 4u);
    EXPECT_NEAR(sol.values[3], 2.0 / 3.0, 1e-12) << "dual " << dual;
    EXPECT_EQ(sol.values[0] + sol.values[1] + sol.values[2], 0.0);
  }
}

TEST(SimplexStoreTest, EntryCountsPastIntThrow) {
  // The guard's arithmetic, without allocating 2^31 entries.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr auto kMax = static_cast<std::size_t>(kIntMax);
  EXPECT_EQ(store_nnz(0, 0), 0);
  EXPECT_EQ(store_nnz(17'672, 1'461), 19'133);
  EXPECT_EQ(store_nnz(kMax - 7, 7), kIntMax);
  EXPECT_EQ(store_nnz(0, kMax), kIntMax);
  using sb::test::invalid_what;
  EXPECT_EQ(invalid_what([&] { (void)store_nnz(kMax - 7, 8); }),
            "simplex: 2147483640 + 8 column entries overflow the store's int "
            "offsets");
  EXPECT_EQ(invalid_what([&] { (void)store_nnz(kMax + 1, 0); }),
            "simplex: 2147483648 + 0 column entries overflow the store's int "
            "offsets");
  EXPECT_EQ(invalid_what([&] { (void)store_nnz(0, kMax + 1); }),
            "simplex: 0 + 2147483648 column entries overflow the store's int "
            "offsets");
  // A sum that wraps std::size_t to a small count must not pass.
  EXPECT_EQ(invalid_what([] {
              (void)store_nnz(std::numeric_limits<std::size_t>::max(), 2);
            }),
            "simplex: 18446744073709551615 + 2 column entries overflow the "
            "store's int offsets");
}

}  // namespace
}  // namespace sb::lp
