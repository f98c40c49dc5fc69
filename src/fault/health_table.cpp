#include "fault/health_table.h"

#include "common/error.h"

namespace sb::fault {

HealthTable::HealthTable(std::size_t dc_count, std::size_t link_count,
                         std::size_t server_count, std::size_t worker_count)
    : dc_count_(dc_count), link_count_(link_count),
      server_count_(server_count), worker_count_(worker_count) {
  require(dc_count_ > 0, "HealthTable: no DCs");
  dcs_ = std::make_unique<Entry[]>(dc_count_);
  if (link_count_ > 0) links_ = std::make_unique<Entry[]>(link_count_);
  if (server_count_ > 0) servers_ = std::make_unique<Entry[]>(server_count_);
  if (worker_count_ > 0) workers_ = std::make_unique<Entry[]>(worker_count_);
}

HealthState HealthTable::flip(Entry& entry, bool up,
                              std::atomic<std::uint32_t>& counter) {
  const std::uint64_t want_down = up ? 0 : 1;
  std::uint64_t cur = entry.word.load(std::memory_order_relaxed);
  for (;;) {
    if ((cur & 1u) == want_down) return unpack(cur);  // redundant set
    const std::uint64_t next = (((cur >> 1) + 1) << 1) | want_down;
    if (entry.word.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      // Exactly one thread wins each flip, so the down counter moves once
      // per transition and all_up() stays exact.
      if (up) {
        counter.fetch_sub(1, std::memory_order_acq_rel);
      } else {
        counter.fetch_add(1, std::memory_order_acq_rel);
      }
      return unpack(next);
    }
  }
}

HealthState HealthTable::set_dc(DcId dc, bool up) {
  require(dc.valid() && dc.value() < dc_count_, "HealthTable: bad DC id");
  return flip(dcs_[dc.value()], up, down_total_);
}

HealthState HealthTable::set_link(LinkId link, bool up) {
  require(link.valid() && link.value() < link_count_,
          "HealthTable: bad link id");
  return flip(links_[link.value()], up, down_total_);
}

HealthState HealthTable::set_server(ServerId server, bool up) {
  require(server.valid() && server.value() < server_count_,
          "HealthTable: bad server id");
  return flip(servers_[server.value()], up, down_total_);
}

HealthState HealthTable::set_worker(WorkerId worker, bool up) {
  require(worker.valid() && worker.value() < worker_count_,
          "HealthTable: bad worker id");
  return flip(workers_[worker.value()], up, down_workers_);
}

bool HealthTable::dc_up(DcId dc) const {
  return (dcs_[dc.value()].word.load(std::memory_order_acquire) & 1u) == 0;
}

bool HealthTable::link_up(LinkId link) const {
  return (links_[link.value()].word.load(std::memory_order_acquire) & 1u) == 0;
}

HealthState HealthTable::dc_state(DcId dc) const {
  return unpack(dcs_[dc.value()].word.load(std::memory_order_acquire));
}

HealthState HealthTable::link_state(LinkId link) const {
  return unpack(links_[link.value()].word.load(std::memory_order_acquire));
}

HealthState HealthTable::server_state(ServerId server) const {
  return unpack(servers_[server.value()].word.load(std::memory_order_acquire));
}

bool HealthTable::worker_up(WorkerId worker) const {
  return (workers_[worker.value()].word.load(std::memory_order_acquire) &
          1u) == 0;
}

HealthState HealthTable::worker_state(WorkerId worker) const {
  return unpack(workers_[worker.value()].word.load(std::memory_order_acquire));
}

std::size_t HealthTable::down_dcs() const {
  std::size_t n = 0;
  for (std::size_t x = 0; x < dc_count_; ++x) {
    if (!dc_up(DcId(static_cast<std::uint32_t>(x)))) ++n;
  }
  return n;
}

std::size_t HealthTable::down_links() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < link_count_; ++l) {
    if (!link_up(LinkId(static_cast<std::uint32_t>(l)))) ++n;
  }
  return n;
}

std::size_t HealthTable::down_servers() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < server_count_; ++s) {
    if (!server_up(ServerId(static_cast<std::uint32_t>(s)))) ++n;
  }
  return n;
}

}  // namespace sb::fault
