// Allocation guards: paths that must not touch the heap once warm — a
// passing precondition check, the forecast's arrival histories, the
// realtime events (planned, and while a DC is down), the LP's rhs rewrite,
// a repeat LU factorization and a same-shape plan rebind. This binary
// replaces the global operator new and delete with versions that count the
// calling thread's allocations, which is why these tests are a binary of
// their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/controller.h"
#include "geo/world_presets.h"
#include "lp/lu_factor.h"
#include "lp_models.h"
#include "trace/scenario.h"

namespace {

thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  ++t_allocations;
  // aligned_alloc wants a non-zero multiple of the alignment.
  return align == 0 ? std::malloc(std::max<std::size_t>(size, 1))
                    : std::aligned_alloc(align, (size / align + 1) * align);
}

void* counted_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

std::size_t align_of(std::align_val_t align) {
  return static_cast<std::size_t>(align);
}

}  // namespace

// Every replaceable form: under ASan, a form left out would come from the
// sanitizer's runtime and be freed here, which it reports as a mismatch.
void* operator new(std::size_t n) { return counted_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, align_of(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sb {
namespace {

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations(Fn&& fn) {
  const std::size_t before = t_allocations;
  fn();
  return t_allocations - before;
}

TEST(AllocGuard, PassingRequireAllocatesNothing) {
  volatile bool ok = true;  // keeps the checks from folding away
  EXPECT_EQ(allocations([&] {
              for (int i = 0; i < 1000; ++i) {
                require(ok, "a message past std::string's inline buffer");
              }
            }),
            0u);
}

TEST(AllocGuard, ArrivalSeriesAllocatesOnlyItsResult) {
  const Scenario scenario = make_apac_scenario();
  const double history_end = 8 * kSecondsPerWeek;
  std::vector<double> series;
  EXPECT_EQ(allocations([&] {
              series = scenario.trace->arrival_count_series(0, 0.0, history_end);
            }),
            1u);
  EXPECT_EQ(series.size(), 2688u);  // 30-minute buckets
}

TEST(AllocGuard, ModelRhsRewriteAllocatesNothing) {
  lp::Model model = lp::test::make_provisioning_lp(24, 30, 5, 1);
  const auto rows = static_cast<int>(model.constraint_count());
  EXPECT_EQ(allocations([&] {
              for (int r = 0; r < rows; ++r) {
                model.set_rhs(r, 1.1 * model.constraint(r).rhs);
              }
            }),
            0u);
}

TEST(AllocGuard, RepeatFactorizationAllocatesNothing) {
  // A 60 x 60 cyclic basis with no row or column singleton, so all of it
  // is the LU's nucleus: column p holds 4 on the diagonal, 1 in the next
  // row and, on every third column, 0.5 seven rows on. Columns of two and
  // three entries give the nucleus order something to sort.
  constexpr int kM = 60;
  lp::SparseStore store;
  std::vector<int> ids;
  for (int p = 0; p < kM; ++p) {
    std::vector<std::pair<int, double>> col = {{p, 4.0}, {(p + 1) % kM, 1.0}};
    if (p % 3 == 0) col.emplace_back((p + 7) % kM, 0.5);
    std::sort(col.begin(), col.end());
    for (const auto& [row, value] : col) {
      store.index.push_back(row);
      store.value.push_back(value);
    }
    store.start.push_back(static_cast<int>(store.index.size()));
    ids.push_back(p);
  }
  lp::LuFactor lu;
  ASSERT_TRUE(lu.factorize(store, ids, kM).empty());  // sizes its arrays
  std::vector<int> rejected;
  EXPECT_EQ(allocations([&] { rejected = lu.factorize(store, ids, kM); }), 0u);
  EXPECT_TRUE(rejected.empty());
}

/// The APAC design day (top 30 configs, x1.3 cushion) provisioned and
/// planned on a uniform fleet of 8 servers per DC, and a busy half hour of
/// the scenario's calls to replay against it.
struct PlannedApac {
  static constexpr double kPlanStart = kSecondsPerDay;

  Scenario scenario = fleet_scenario();
  LoadModel loads = LoadModel::paper_default();
  Switchboard controller{EvalContext{&scenario.world(), &scenario.topology(),
                                     &scenario.latency(),
                                     scenario.registry.get(), &loads},
                         options()};
  CallRecordDatabase calls;

  PlannedApac() {
    const DemandMatrix demand = design_day_demand(scenario, 3600.0, 30, 1.3);
    controller.provision(demand);
    controller.build_allocation_plan(demand, kPlanStart);
    const double start = kPlanStart + 2.0 * kSecondsPerHour;
    calls = scenario.trace->generate(start, start + 0.5 * kSecondsPerHour);
  }

  static Scenario fleet_scenario() {
    Scenario s = make_apac_scenario();
    add_uniform_fleet(s.geo->world, 8, 16.0);
    return s;
  }
  static ControllerOptions options() {
    ControllerOptions o;
    o.provision.include_link_failures = false;
    o.slot_s = 3600.0;
    return o;
  }
};

/// Allocations per event type over one replay that starts, then freezes,
/// then ends every call.
struct EventAllocations {
  std::vector<std::size_t> started;  ///< per call_started
  std::size_t frozen = 0;
  std::size_t ended = 0;

  [[nodiscard]] std::size_t started_total() const {
    std::size_t n = 0;
    for (std::size_t a : started) n += a;
    return n;
  }
};

EventAllocations replay(PlannedApac& apac, std::span<const CallRecord> calls) {
  EventAllocations out;
  for (const CallRecord& r : calls) {
    out.started.push_back(allocations([&] {
      apac.controller.call_started(r.id, r.legs.front().location, r.start_s);
    }));
  }
  for (const CallRecord& r : calls) {
    out.frozen += allocations([&] {
      apac.controller.config_frozen(
          r.id, apac.scenario.registry->get(r.config), r.start_s + 60.0);
    });
  }
  for (const CallRecord& r : calls) {
    out.ended += allocations(
        [&] { apac.controller.call_ended(r.id, r.start_s + r.duration_s); });
  }
  return out;
}

TEST(AllocGuard, RealtimeEventsAllocateNothingOnAPlannedSwitchboard) {
  PlannedApac apac;
  const std::vector<CallRecord>& calls = apac.calls.records();
  ASSERT_GT(calls.size(), 100u);
  replay(apac, {calls.data(), 1});  // the thread's span ring
  // Cold call tables: a call_started allocates only when its shard's table
  // grows, and a rehash allocates the slot and the flag array.
  const EventAllocations cold = replay(apac, calls);
  const auto growths = std::count(cold.started.begin(), cold.started.end(), 2);
  EXPECT_EQ(std::count(cold.started.begin(), cold.started.end(), 0) + growths,
            static_cast<std::ptrdiff_t>(calls.size()));
  EXPECT_LE(static_cast<double>(growths),
            static_cast<double>(RealtimeOptions{}.shard_count) *
                std::ceil(std::log2(static_cast<double>(calls.size()))));
  EXPECT_EQ(cold.frozen, 0u);
  EXPECT_EQ(cold.ended, 0u);
  // Grown tables: nothing at all.
  const EventAllocations warm = replay(apac, calls);
  EXPECT_EQ(warm.started_total(), 0u);
  EXPECT_EQ(warm.frozen, 0u);
  EXPECT_EQ(warm.ended, 0u);
}

TEST(AllocGuard, RealtimeEventsAllocateNothingWhileADcIsDown) {
  PlannedApac apac;
  const std::vector<CallRecord>& calls = apac.calls.records();
  replay(apac, calls);  // grows the call tables
  apac.controller.dc_failed(DcId(0), calls.front().start_s);
  ASSERT_FALSE(apac.controller.health().all_up());
  const EventAllocations down = replay(apac, calls);
  EXPECT_EQ(down.started_total(), 0u);
  EXPECT_EQ(down.frozen, 0u);
  EXPECT_EQ(down.ended, 0u);
}

TEST(AllocGuard, SameShapePlanRebindAllocatesNothing) {
  // Every closed-loop replan installs a plan of the old one's (config, DC)
  // shape; the selector then zeroes its quota table in place.
  PlannedApac apac;
  const DemandMatrix demand =
      design_day_demand(apac.scenario, 3600.0, 30, 1.3);
  const AllocationPlan first =
      apac.controller.build_allocation_plan(demand, PlannedApac::kPlanStart);
  const AllocationPlan second = first;
  RealtimeSelector selector(
      EvalContext{&apac.scenario.world(), &apac.scenario.topology(),
                  &apac.scenario.latency(), apac.scenario.registry.get(),
                  &apac.loads},
      &first, RealtimeOptions{}, PlannedApac::kPlanStart);
  const SimTime now = PlannedApac::kPlanStart + kSecondsPerHour;
  // The first rebind also sets up the thread's span ring.
  selector.rebind_plan(first, &second, PlannedApac::kPlanStart, now);
  EXPECT_EQ(allocations([&] {
              selector.rebind_plan(second, &first, PlannedApac::kPlanStart,
                                   now);
            }),
            0u);
}

}  // namespace
}  // namespace sb
