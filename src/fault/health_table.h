// Lock-free runtime availability table: one epoch-stamped atomic word per
// DC and per WAN link. The realtime selector consults it on the hot path
// (call start / config freeze), so reads are single relaxed/acquire loads
// and the common no-fault case short-circuits through all_up() — one load
// of a process-wide down counter, keeping the healthy path bit-identical
// to a selector with no fault domain at all.
//
// Epochs count state flips per entry (monotone, starts at 0), so observers
// can tell "still down" from "went down, recovered, went down again"
// without any lock or history buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/types.h"

namespace sb::fault {

/// Availability state of one DC or link at a point in its flip history.
struct HealthState {
  bool up = true;
  std::uint64_t epoch = 0;  ///< number of up/down flips this entry has seen
};

/// Thread-safe availability table. set_* may be called by a fault driver
/// concurrently with any number of *_up() readers; every operation is a
/// single atomic word access (no mutex anywhere).
class HealthTable {
 public:
  HealthTable(std::size_t dc_count, std::size_t link_count,
              std::size_t server_count = 0, std::size_t worker_count = 0);

  /// Flips the entry's state; a redundant set (already up/down) is a no-op
  /// and does not advance the epoch. Returns the entry's state after the
  /// call.
  HealthState set_dc(DcId dc, bool up);
  HealthState set_link(LinkId link, bool up);
  HealthState set_server(ServerId server, bool up);
  /// Controller-worker rows are tracked separately from the media plane:
  /// a dead worker does NOT flip all_up() (placement must stay bit-identical
  /// while the cluster layer re-adopts the worker's shards).
  HealthState set_worker(WorkerId worker, bool up);

  [[nodiscard]] bool dc_up(DcId dc) const;
  [[nodiscard]] bool link_up(LinkId link) const;
  /// Inline: the packer's best-fit scan reads it per server while any
  /// entry is down.
  [[nodiscard]] bool server_up(ServerId server) const {
    return (servers_[server.value()].word.load(std::memory_order_acquire) &
            1u) == 0;
  }
  [[nodiscard]] bool worker_up(WorkerId worker) const;
  [[nodiscard]] HealthState dc_state(DcId dc) const;
  [[nodiscard]] HealthState link_state(LinkId link) const;
  [[nodiscard]] HealthState server_state(ServerId server) const;
  [[nodiscard]] HealthState worker_state(WorkerId worker) const;

  /// Fast path for the realtime selector: true iff no DC, link, or media
  /// server is currently down (one relaxed load of a shared counter).
  [[nodiscard]] bool all_up() const {
    return down_total_.load(std::memory_order_acquire) == 0;
  }
  [[nodiscard]] std::size_t down_dcs() const;
  [[nodiscard]] std::size_t down_links() const;
  [[nodiscard]] std::size_t down_servers() const;
  /// Down controller workers (own counter, never part of all_up()).
  [[nodiscard]] std::size_t down_workers() const {
    return down_workers_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t dc_count() const { return dc_count_; }
  [[nodiscard]] std::size_t link_count() const { return link_count_; }
  [[nodiscard]] std::size_t server_count() const { return server_count_; }
  [[nodiscard]] std::size_t worker_count() const { return worker_count_; }

 private:
  /// Bit 0: 1 = down; bits 1..63: flip epoch. One word so state + epoch
  /// publish atomically, cache-line padded so flipping one DC never
  /// invalidates a neighbour's line under concurrent readers.
  struct alignas(64) Entry {
    std::atomic<std::uint64_t> word{0};
  };

  static HealthState unpack(std::uint64_t word) {
    return {.up = (word & 1u) == 0, .epoch = word >> 1};
  }
  HealthState flip(Entry& entry, bool up, std::atomic<std::uint32_t>& counter);

  std::size_t dc_count_;
  std::size_t link_count_;
  std::size_t server_count_;
  std::size_t worker_count_;
  std::unique_ptr<Entry[]> dcs_;
  std::unique_ptr<Entry[]> links_;
  std::unique_ptr<Entry[]> servers_;
  std::unique_ptr<Entry[]> workers_;
  /// Total media-plane entries (DCs + links + servers) currently down;
  /// maintained by flip(). Worker rows deliberately use their own counter
  /// so controller crashes never perturb all_up().
  std::atomic<std::uint32_t> down_total_{0};
  std::atomic<std::uint32_t> down_workers_{0};
};

}  // namespace sb::fault
