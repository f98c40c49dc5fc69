// Seeded LP generators shared by the lp test suites: random feasible LPs
// (free-upward and boxed variables) and the provisioning shape shared with
// bench/micro_lp.cpp (per-DC peaks, per-(slot, config) completeness
// equalities, per-slot capacity rows).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lp/model.h"

namespace sb::lp::test {

struct RandomLpSpec {
  std::uint64_t seed;
  std::size_t vars;
  std::size_t rows;
};

/// Builds a random LP that is feasible by construction: draw a non-negative
/// witness x0, then set each row's rhs from A x0 (loosened for inequalities
/// in the satisfied direction). Costs are non-negative, so with x >= 0 the
/// problem is also bounded.
inline Model make_random_feasible_lp(const RandomLpSpec& spec) {
  Rng rng(spec.seed);
  Model m;
  std::vector<double> witness(spec.vars);
  for (std::size_t i = 0; i < spec.vars; ++i) {
    witness[i] = rng.uniform(0.0, 10.0);
    m.add_variable(0.0, kInf, rng.uniform(0.0, 5.0));
  }
  for (std::size_t r = 0; r < spec.rows; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (std::size_t i = 0; i < spec.vars; ++i) {
      if (!rng.chance(0.4)) continue;
      const double coeff = rng.uniform(-3.0, 3.0);
      terms.push_back({static_cast<int>(i), coeff});
      lhs += coeff * witness[i];
    }
    if (terms.empty()) continue;
    const double pick = rng.uniform();
    if (pick < 0.4) {
      m.add_constraint(std::move(terms), Sense::kLe, lhs + rng.uniform(0.0, 4.0));
    } else if (pick < 0.8) {
      m.add_constraint(std::move(terms), Sense::kGe, lhs - rng.uniform(0.0, 4.0));
    } else {
      m.add_constraint(std::move(terms), Sense::kEq, lhs);
    }
  }
  return m;
}

/// Random LP with BOUNDED variables: every variable gets a lower bound in
/// [0, 2] and, with probability 1/2, a finite upper bound. Variables with a
/// finite upper may take a negative cost (bounded below by the box, so the
/// problem stays bounded); free-upward variables keep non-negative costs.
/// Feasible by construction via an in-box witness.
inline Model make_bounded_random_lp(const RandomLpSpec& spec) {
  Rng rng(spec.seed);
  Model m;
  std::vector<double> witness(spec.vars);
  for (std::size_t i = 0; i < spec.vars; ++i) {
    const double lo = rng.uniform(0.0, 2.0);
    const bool boxed = rng.chance(0.5);
    const double hi = boxed ? lo + rng.uniform(0.5, 8.0) : kInf;
    const double cost =
        boxed ? rng.uniform(-3.0, 4.0) : rng.uniform(0.0, 4.0);
    witness[i] = boxed ? rng.uniform(lo, hi) : lo + rng.uniform(0.0, 6.0);
    m.add_variable(lo, hi, cost);
  }
  for (std::size_t r = 0; r < spec.rows; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (std::size_t i = 0; i < spec.vars; ++i) {
      if (!rng.chance(0.4)) continue;
      const double coeff = rng.uniform(-3.0, 3.0);
      terms.push_back({static_cast<int>(i), coeff});
      lhs += coeff * witness[i];
    }
    if (terms.empty()) continue;
    const double pick = rng.uniform();
    if (pick < 0.4) {
      m.add_constraint(std::move(terms), Sense::kLe,
                       lhs + rng.uniform(0.0, 4.0));
    } else if (pick < 0.8) {
      m.add_constraint(std::move(terms), Sense::kGe,
                       lhs - rng.uniform(0.0, 4.0));
    } else {
      m.add_constraint(std::move(terms), Sense::kEq, lhs);
    }
  }
  return m;
}

/// The provisioning shape at test scale: per-DC capacity-peak variables
/// (coupling), per-(slot, config) completeness equalities and per-slot kLe
/// usage rows linking placements to the peaks (block-local).
/// `demand_scale` scales every completeness rhs, modeling a failure
/// scenario's shifted demand.
inline Model make_provisioning_lp(std::size_t slots, std::size_t configs,
                                  std::size_t dcs, std::uint64_t seed,
                                  double demand_scale = 1.0) {
  Rng rng(seed);
  Model m;
  std::vector<int> cp(dcs);
  for (std::size_t x = 0; x < dcs; ++x) {
    cp[x] = m.add_variable(0.0, kInf, rng.uniform(0.9, 1.4));
  }
  for (std::size_t t = 0; t < slots; ++t) {
    std::vector<std::vector<Term>> dc_rows(dcs);
    for (std::size_t c = 0; c < configs; ++c) {
      std::vector<Term> completeness;
      for (std::size_t x = 0; x < dcs; ++x) {
        const int s = m.add_variable(0.0, kInf, 1e-6 * rng.uniform(5, 100));
        dc_rows[x].push_back({s, rng.uniform(0.01, 0.1)});
        completeness.push_back({s, 1.0});
      }
      m.add_constraint(std::move(completeness), Sense::kEq,
                       demand_scale * rng.uniform(0.0, 50.0));
    }
    for (std::size_t x = 0; x < dcs; ++x) {
      dc_rows[x].push_back({cp[x], -1.0});
      m.add_constraint(std::move(dc_rows[x]), Sense::kLe, 0.0);
    }
  }
  return m;
}

}  // namespace sb::lp::test
