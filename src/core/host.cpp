#include "core/host.hpp"

#include <stdexcept>

namespace pinsim::core {

net::Nic::Config Host::nic_config(const Config& cfg) {
  net::Nic::Config nic = cfg.nic;
  nic.rx_frame_overhead = cfg.cpu.rx_frame_overhead;
  return nic;
}

Host::Host(sim::Engine& eng, net::Fabric& fabric, Config cfg,
           StackConfig stack)
    : eng_(eng),
      cfg_(std::move(cfg)),
      pm_(cfg_.memory_frames),
      cores_([&] {
        std::vector<std::unique_ptr<cpu::Core>> cores;
        if (cfg_.cores == 0) throw std::invalid_argument("host needs cores");
        for (std::size_t i = 0; i < cfg_.cores; ++i) {
          cores.push_back(std::make_unique<cpu::Core>(
              eng, cfg_.name + "/cpu" + std::to_string(i)));
        }
        return cores;
      }()),
      nic_(eng, fabric, *cores_[0], nic_config(cfg_)),
      dma_(cfg_.with_ioat ? std::make_unique<ioat::DmaEngine>(eng, cfg_.ioat)
                          : nullptr),
      driver_(eng, nic_, cfg_.cpu, dma_.get(), stack) {}

Host::Process::Process(Host& host, cpu::Core& bound_core)
    : as(host.pm_),
      heap(as),
      core(bound_core),
      holder_(host.driver_, as, bound_core),
      ep(holder_.ep),
      lib(ep) {}

Host::Process& Host::spawn_process() {
  std::size_t idx = 0;
  if (cores_.size() > 1) {
    idx = next_core_;
    next_core_ = next_core_ + 1 >= cores_.size() ? 1 : next_core_ + 1;
  }
  return spawn_process_on(idx);
}

Host::Process& Host::spawn_process_on(std::size_t core_idx) {
  processes_.push_back(
      std::make_unique<Process>(*this, *cores_.at(core_idx)));
  process_core_.push_back(core_idx);
  return *processes_.back();
}

void Host::kill_process(std::size_t i) {
  Process& p = *processes_.at(i);
  const std::uint8_t ep_id = p.ep.id();

  // Pinned-page accounting for the kLifeCrash proof: what the host holds
  // now, and how much of it belongs to the victim.
  const std::uint64_t before = pm_.pinned_pages();
  const std::uint64_t victim_pins = p.as.stats().pins - p.as.stats().unpins;

  // 1. Every in-flight request dies locally. No abort packets leave — the
  //    process is gone; peers find out via retry exhaustion or watchdog.
  p.ep.fail_all_inflight();

  // 2. The library's region cache is flushed so cached (idle) regions
  //    undeclare and release their pins through the normal ioctl path.
  p.lib.cache().clear();

  // 3. exit()-style address-space teardown: the MMU notifiers fire for every
  //    VMA, and the pin manager reclaims what is still pinned — the paper's
  //    core claim that a dying process never has to unpin anything itself.
  p.as.release_all();

  const std::uint64_t after = pm_.pinned_pages();
  driver_.note_crash(ep_id, /*reclaimed=*/before - after, /*pinned_after=*/after,
                     /*baseline=*/before - victim_pins);

  // 4. Destroy the process object; ~EndpointHolder closes the endpoint,
  //    which bumps the slot epoch for fencing.
  processes_[i].reset();
}

Host::Process& Host::restart_process(std::size_t i) {
  if (processes_.at(i) != nullptr) {
    throw std::logic_error("restarting a live process");
  }
  processes_[i] =
      std::make_unique<Process>(*this, *cores_.at(process_core_.at(i)));
  return *processes_[i];
}

net::Watchdog& Host::enable_watchdog(net::Watchdog::Config cfg) {
  watchdog_ = std::make_unique<net::Watchdog>(eng_, nic_, cfg);
  driver_.attach_watchdog(*watchdog_);
  return *watchdog_;
}

}  // namespace pinsim::core
