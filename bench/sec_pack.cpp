// Server packing (the intra-DC layer beneath the DC selector): replay the
// same APAC trace window twice — once against the classic fungible per-DC
// core pool, once against a packed media-server fleet sized from the
// fungible run's realized per-DC peaks, with one deliberately undersized
// straggler server per DC (the heterogeneity that makes bin packing
// non-trivial). Mid-window the first DC's straggler fails, exercising the
// drain_server tier ladder. The claims under test:
//  - DC-level outcomes are unchanged: same calls, same drops, same mean ACL
//    (packing nests *beneath* DC selection; it never overrides it);
//  - the straggler's realized peak stays at its (small) capacity while its
//    siblings absorb the rest — best-fit admits respect per-server bounds,
//    with overcommit only as fail-open (counted);
//  - at quiescence every server's occupancy returns to zero exactly.
// A final defragmentation showcase freezes a batch of calls, ends
// alternating ones to shred the free space, and runs defragment_dc — the
// pack.repack spans land in --trace-out for Perfetto.
//
// The bench prints its claim values through bench::emit_json and exits 1
// (ctest sec_pack_claim, label paper) unless the packed run drops what the
// fungible run drops at the same mean ACL, admits nothing over a server's
// capacity, leaks no millicore and keeps every straggler's peak within its
// capacity.
//
// Flags: --servers=4 --straggler=0.25 --headroom=1.15 --window_h=4
//        --rate_scale=1.0 --outage_min=30 --trace-out=trace.json
// A bad flag prints usage to stderr and exits 2.
#include <algorithm>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "core/controller.h"
#include "fault/fault_schedule.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "pack/packer.h"
#include "sim/allocator.h"
#include "sim/simulator.h"

namespace {

constexpr const char* kUsage =
    "usage: sec_pack [--servers=1..256] [--straggler=0.01..1]\n"
    "                [--headroom=0.01..100] [--window_h=0.01..168]\n"
    "                [--rate_scale=0.01..100] [--outage_min=0.01..10080]\n"
    "                [--trace-out=PATH]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const auto servers =
      static_cast<std::size_t>(flags.number("servers", 4, 1, 256));
  const double straggler = flags.number("straggler", 0.25, 0.01, 1.0);
  const double headroom = flags.number("headroom", 1.15, 0.01, 100.0);
  const double window_s =
      flags.number("window_h", 4.0, 0.01, 168.0) * kSecondsPerHour;
  const double rate_scale = flags.number("rate_scale", 1.0, 0.01, 100.0);
  const double outage_s =
      flags.number("outage_min", 30.0, 0.01, 10080.0) * 60.0;
  const std::string trace_out = flags.text("trace-out", "");
  flags.finish();
  obs::SpanRecorder::global().set_enabled(!trace_out.empty());

  ScenarioParams sp;
  sp.rate_scale = rate_scale;
  Scenario scenario = make_apac_scenario(sp);
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const std::size_t dc_count = scenario.world().dc_count();

  // A weekday daytime window (the plan day starts at kSecondsPerDay).
  const double t0 = kSecondsPerDay + 9.0 * kSecondsPerHour;
  const double t1 = t0 + window_s;
  const CallRecordDatabase db = scenario.trace->generate(t0, t1);

  // --- Fungible baseline: the pre-fleet world, plan-less controller. Must
  // run before any server is registered (the world is mutated below).
  Simulator sim(ctx);
  Switchboard fungible_controller(ctx, {});
  ControllerAllocator fungible_alloc(fungible_controller);
  const SimReport fungible = sim.run(db, fungible_alloc, 300.0);

  // --- Fleet: size each DC's servers from the fungible run's realized
  // peak (headroom on top), one straggler getting `straggler` of an equal
  // share — small enough that big calls cannot land there.
  for (std::size_t x = 0; x < dc_count; ++x) {
    const DcId dc(static_cast<std::uint32_t>(x));
    const double peak = std::max(fungible.dc_peak_cores[x], 1.0);
    const double total = peak * headroom;
    const double equal = total / static_cast<double>(servers);
    const double small = equal * straggler;
    const double big = servers > 1
                           ? (total - small) / static_cast<double>(servers - 1)
                           : small;
    for (std::size_t s = 0; s < servers; ++s) {
      scenario.geo->world.add_server(
          {scenario.world().datacenter(dc).name + "-ms" + std::to_string(s),
           dc, s == 0 ? small : big});
    }
  }

  // --- Packed run: same trace, same DC-level policy, fleet beneath it.
  // The first DC's straggler fails mid-window (drain_server tier ladder).
  Switchboard packed_controller(ctx, {});
  ControllerAllocator packed_alloc(packed_controller);
  fault::FaultSchedule faults;
  faults.fail_server(ServerId(0), t0 + window_s / 2.0, outage_s);
  const SimReport packed = sim.run(db, packed_alloc, 300.0, &faults);

  std::cout << "server packing: " << db.size() << " calls over "
            << window_s / kSecondsPerHour << " h, " << servers
            << " servers/DC (straggler x" << straggler << "), straggler of "
            << scenario.world().datacenter(DcId(0)).name
            << " down mid-window\n\n";

  TextTable dc_table({"DC", "fungible peak", "fleet cores", "straggler cap",
                      "straggler peak", "max server peak"});
  for (std::size_t x = 0; x < dc_count; ++x) {
    const DcId dc(static_cast<std::uint32_t>(x));
    double fleet_cores = 0.0;
    double straggler_cap = 0.0;
    double straggler_peak = 0.0;
    double max_peak = 0.0;
    bool first = true;
    for (const ServerId s : scenario.world().servers_in_dc(dc)) {
      fleet_cores += scenario.world().server(s).cores;
      max_peak = std::max(max_peak, packed.server_peak_cores[s.value()]);
      if (first) {
        straggler_cap = scenario.world().server(s).cores;
        straggler_peak = packed.server_peak_cores[s.value()];
        first = false;
      }
    }
    dc_table.row()
        .cell(scenario.world().datacenter(dc).name)
        .cell(fungible.dc_peak_cores[x], 1)
        .cell(fleet_cores, 1)
        .cell(straggler_cap, 2)
        .cell(straggler_peak, 2)
        .cell(max_peak, 1);
  }
  std::cout << dc_table << "\n";

  TextTable run_table({"scheme", "calls", "dropped", "moved", "mean ACL ms",
                       "overcommit admits"});
  run_table.row()
      .cell("fungible")
      .cell(fungible.calls)
      .cell(fungible.dropped_calls)
      .cell(fungible.failover_migrations)
      .cell(fungible.mean_acl_ms, 2)
      .cell(std::uint64_t{0});
  const pack::ServerPacker& packer = *packed_controller.packer();
  const std::uint64_t overcommit = packer.overcommit_admits();
  run_table.row()
      .cell("packed")
      .cell(packed.calls)
      .cell(packed.dropped_calls)
      .cell(packed.failover_migrations)
      .cell(packed.mean_acl_ms, 2)
      .cell(overcommit);
  std::cout << run_table << "\n";

  // Quiescence: the packer's cumulative counters must balance exactly.
  std::int64_t leaked_mc = 0;
  std::uint64_t admits = 0;
  std::uint64_t releases = 0;
  for (const pack::ServerStats& s : packer.stats()) {
    leaked_mc += s.admitted_mc - s.released_mc;
    admits += s.admits;
    releases += s.releases;
  }
  std::cout << "sb.pack.admits=" << admits << " sb.pack.releases=" << releases
            << " leaked_mc=" << leaked_mc << "\n\n";

  // --- Defragmentation showcase: freeze a batch at one instant, end
  // alternating calls to shred the free space, then consolidate.
  Switchboard defrag_controller(ctx, {});
  const std::size_t batch = std::min<std::size_t>(db.size(), 400);
  for (std::size_t i = 0; i < batch; ++i) {
    const CallRecord& rec = db.records()[i];
    defrag_controller.call_started(rec.id, rec.legs.front().location, 0.0);
    defrag_controller.config_frozen(rec.id,
                                    scenario.registry->get(rec.config), 300.0);
  }
  for (std::size_t i = 0; i < batch; i += 2) {
    defrag_controller.call_ended(db.records()[i].id, 400.0);
  }
  double frag_gain = 0.0;
  std::size_t defrag_moves = 0;
  TextTable defrag_table({"DC", "repack moves", "frag before", "frag after"});
  for (std::size_t x = 0; x < dc_count; ++x) {
    const DcId dc(static_cast<std::uint32_t>(x));
    const pack::DefragResult r = defrag_controller.defragment_dc(
        dc, std::numeric_limits<std::size_t>::max());
    defrag_table.row()
        .cell(scenario.world().datacenter(dc).name)
        .cell(static_cast<std::uint64_t>(r.moves.size()))
        .cell(r.fragmentation_before, 3)
        .cell(r.fragmentation_after, 3);
    frag_gain =
        std::max(frag_gain, r.fragmentation_before - r.fragmentation_after);
    defrag_moves += r.moves.size();
  }
  std::cout << defrag_table << "\n";

  bench::emit_json("sec_pack", "fungible.dropped_calls",
                   static_cast<double>(fungible.dropped_calls));
  bench::emit_json("sec_pack", "packed.dropped_calls",
                   static_cast<double>(packed.dropped_calls));
  bench::emit_json("sec_pack", "packed.failover_moves",
                   static_cast<double>(packed.failover_migrations));
  const double acl_delta_ms = packed.mean_acl_ms - fungible.mean_acl_ms;
  bench::emit_json("sec_pack", "acl_delta_ms", acl_delta_ms);
  bench::emit_json("sec_pack", "packed.overcommit_admits",
                   static_cast<double>(overcommit));
  bench::emit_json("sec_pack", "packed.leaked_mc",
                   static_cast<double>(leaked_mc));
  double worst_straggler_ratio = 0.0;
  for (std::size_t x = 0; x < dc_count; ++x) {
    const ServerId s =
        scenario.world().servers_in_dc(DcId(static_cast<std::uint32_t>(x)))
            .front();
    worst_straggler_ratio = std::max(
        worst_straggler_ratio, packed.server_peak_cores[s.value()] /
                                   std::max(scenario.world().server(s).cores,
                                            1e-9));
  }
  bench::emit_json("sec_pack", "straggler_peak_over_capacity",
                   worst_straggler_ratio);
  bench::emit_json("sec_pack", "defrag.moves",
                   static_cast<double>(defrag_moves));
  bench::emit_json("sec_pack", "defrag.best_frag_gain", frag_gain);

  struct Claim {
    const char* what;
    bool held;
  };
  const Claim claims[] = {
      {"packed drops equal fungible drops",
       packed.dropped_calls == fungible.dropped_calls},
      {"packed mean ACL equals fungible", acl_delta_ms == 0.0},
      {"no overcommit admits", overcommit == 0},
      {"no leaked millicores at quiescence", leaked_mc == 0},
      {"every straggler peaks within its capacity",
       worst_straggler_ratio <= 1.0},
  };
  bool all_held = true;
  for (const Claim& claim : claims) {
    std::cout << (claim.held ? "claim holds: " : "REGRESSION: claim broken: ")
              << claim.what << "\n";
    all_held = all_held && claim.held;
  }

  if (!trace_out.empty() && obs::dump_chrome_trace(trace_out)) {
    std::cout << "trace written to " << trace_out << "\n";
  }
  return all_held ? 0 : 1;
}
