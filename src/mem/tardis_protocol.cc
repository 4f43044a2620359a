// Timestamp/lease coherence (PAPERS.md: Tardis), adapted to PLATINUM's
// physical-copy model.
//
// The directory protocol takes translations away with shootdown rounds:
// Cmap messages plus synchronous IPIs. Tardis instead charges *leases* in
// simulated time. Every successful read mapping extends the page's
// aggregate read lease, every write mapping stamps a write lease, and a
// transition that must destroy copies or downgrade the writer first waits
// (AdvanceTo on the faulting fiber) until the victims' leases have expired,
// then reclaims the translations host-side — no messages, no interrupts, no
// interrupted-processor cost. The wait is the protocol's entire
// communication cost, which is what the abl_protocol ablation measures
// against the directory's IPI bill.
//
// Strict single-writer/multiple-reader over physical copies is preserved
// exactly as in the directory protocol (the scrubs produce the same
// structural end state a shootdown round would), so final memory contents
// are identical under either protocol; only timing and the event mix
// differ. Two deliberate simplifications, both conservative:
//
//   * the read lease is an aggregate max over all copies, so a collapse
//     waits for the newest lease anywhere rather than per-victim leases;
//   * a read fault on a modified page with no local copy always downgrades
//     the writer (lease-restrict) before mapping — a Tardis read must not
//     observe a page with a live write lease. This adds the
//     (read, modified -> present1) spec row the directory protocol lacks.
//
// Tardis never freezes pages: freezing exists to batch invalidation traffic
// the lease mechanism does not generate (UsesFreezing() == false; the thaw
// trigger has no rows in protocol_spec_tardis.json).
#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/mem/coherent_memory.h"
#include "src/mem/protocol.h"

namespace platinum::mem {

sim::SimTime DoublingLeasePolicy::NextLease(uint32_t cpage_id, bool is_write) {
  if (current_.size() <= cpage_id) {
    current_.resize(cpage_id + 1, 0);
  }
  if (current_[cpage_id] == 0) {
    current_[cpage_id] = base_ns_;
  }
  if (is_write) {
    current_[cpage_id] = base_ns_;
    return base_ns_;
  }
  sim::SimTime lease = current_[cpage_id];
  current_[cpage_id] = std::min(lease * 2, max_ns_);
  return lease;
}

TardisProtocol::TardisProtocol(std::unique_ptr<LeasePolicy> lease_policy)
    : lease_policy_(std::move(lease_policy)) {
  PLAT_CHECK(lease_policy_ != nullptr);
}

TardisProtocol::PageLease& TardisProtocol::lease(uint32_t cpage_id) {
  if (leases_.size() <= cpage_id) {
    leases_.resize(cpage_id + 1);
  }
  return leases_[cpage_id];
}

void TardisProtocol::WaitForLeaseExpiry(Cpage& page, sim::SimTime until) {
  sim::Scheduler& sched = memory_->machine_->scheduler();
  sim::SimTime now = sched.now();
  if (until <= now) {
    return;
  }
  sched.AdvanceTo(until);
  sim::MachineStats& stats = memory_->machine_->stats();
  stats.lease_wait_ns += until - now;
  ++stats.lease_waits;
  ++page.stats().lease_waits;
}

void TardisProtocol::GrantReadLease(Cpage& page) {
  PageLease& l = lease(page.id());
  sim::SimTime now = memory_->machine_->scheduler().now();
  l.read_until =
      std::max(l.read_until, now + lease_policy_->NextLease(page.id(), /*is_write=*/false));
}

void TardisProtocol::GrantWriteLease(Cpage& page) {
  PageLease& l = lease(page.id());
  sim::SimTime now = memory_->machine_->scheduler().now();
  l.write_until = now + lease_policy_->NextLease(page.id(), /*is_write=*/true);
}

void TardisProtocol::OnReadFault(Cmap& cm, CmapEntry& entry, Cpage& page, uint32_t vpn,
                                 int processor) {
  CoherentMemory& m = *memory_;
  sim::Scheduler& sched = m.machine_->scheduler();
  const sim::MachineParams& params = m.machine_->params();

  if (page.state() == CpageState::kEmpty) {
    PhysicalCopy copy = m.InitialFill(page, processor);
    page.AddCopy(copy);
    page.SetState(CpageState::kPresent1);  // protocol: read-fill empty -> present1
    ++m.machine_->stats().initial_fills;
    ++m.machine_->obs().cpu(processor).initial_fills;
    m.Trace(TraceEventType::kFill, page, processor, static_cast<uint32_t>(copy.module));
    m.EnterMapping(cm, entry, page, vpn, processor, copy, hw::Rights::kRead);
    GrantReadLease(page);
    return;
  }

  if (page.HasCopyOn(processor)) {
    // A local copy already exists (e.g. through another address space);
    // locate it through the local inverted page table. On the writer's own
    // node this is the (read, modified -> modified) self-edge: the read
    // shares the single writable copy.
    auto probe = m.machine_->module(processor).FindFrame(page.id());
    PLAT_CHECK(probe.has_value()) << "directory says module " << processor
                                  << " backs cpage " << page.id() << " but no frame found";
    m.machine_->Compute(static_cast<sim::SimTime>(probe->probes) * params.local_read_ns);
    m.EnterMapping(cm, entry, page, vpn, processor,
                   PhysicalCopy{static_cast<int16_t>(processor), probe->frame},
                   hw::Rights::kRead);
    GrantReadLease(page);
    return;
  }

  FaultInfo info{cm.as_id(), vpn, processor, /*is_write=*/false};
  bool cache = m.DecideCache(page, info, sched.now());
  std::optional<PhysicalCopy> frame =
      cache ? m.AllocateFrame(page, processor) : std::nullopt;

  // A remote read must not run under a live write lease: downgrade the
  // writer first (wait out its lease, then scrub the write mappings).
  if (page.state() == CpageState::kModified) {
    DowngradeToRead(page, processor);
  }

  if (frame.has_value()) {
    m.CopyInto(page, *frame);
    page.AddCopy(*frame);
    page.SetState(CpageState::kPresentPlus);  // protocol: replicate present1|present+ -> present+
    ++page.stats().replications;
    ++m.machine_->stats().replications;
    ++m.machine_->obs().cpu(processor).replications;
    m.Trace(TraceEventType::kReplicate, page, processor, static_cast<uint32_t>(frame->module));
    m.EnterMapping(cm, entry, page, vpn, processor, *frame, hw::Rights::kRead);
    GrantReadLease(page);
    return;
  }

  // Remote mapping to an existing copy.
  const PhysicalCopy& copy = page.PrimaryCopy();
  m.EnterMapping(cm, entry, page, vpn, processor, copy, hw::Rights::kRead);
  ++page.stats().remote_maps;
  ++m.machine_->stats().remote_maps;
  ++m.machine_->obs().cpu(processor).remote_maps;
  m.Trace(TraceEventType::kRemoteMap, page, processor, static_cast<uint32_t>(copy.module));
  GrantReadLease(page);
}

void TardisProtocol::OnWriteFault(Cmap& cm, CmapEntry& entry, Cpage& page, uint32_t vpn,
                                  int processor) {
  CoherentMemory& m = *memory_;
  sim::Scheduler& sched = m.machine_->scheduler();
  const sim::MachineParams& params = m.machine_->params();

  if (page.state() == CpageState::kEmpty) {
    PhysicalCopy copy = m.InitialFill(page, processor);
    page.AddCopy(copy);
    page.SetState(CpageState::kModified);  // protocol: write-fill empty -> modified
    ++m.machine_->stats().initial_fills;
    ++m.machine_->obs().cpu(processor).initial_fills;
    m.Trace(TraceEventType::kFill, page, processor, static_cast<uint32_t>(copy.module));
    m.EnterMapping(cm, entry, page, vpn, processor, copy, hw::Rights::kReadWrite);
    GrantWriteLease(page);
    return;
  }

  if (page.HasCopyOn(processor)) {
    auto probe = m.machine_->module(processor).FindFrame(page.id());
    PLAT_CHECK(probe.has_value());
    m.machine_->Compute(static_cast<sim::SimTime>(probe->probes) * params.local_read_ns);
    PhysicalCopy local{static_cast<int16_t>(processor), probe->frame};

    if (page.state() == CpageState::kPresentPlus) {
      // present+ -> present1: wait out the readers' leases, then reclaim the
      // remote copies host-side. Like the directory's collapse this is
      // coherence interference the replication policy should know about.
      std::vector<int> victims;
      for (const PhysicalCopy& copy : page.copies()) {
        if (copy.module != processor) {
          victims.push_back(copy.module);
        }
      }
      ReleaseCopyMappings(page, victims, processor);
      for (int module : victims) {
        m.FreeCopy(page, module);
      }
      page.RecordInvalidation(sched.now());
      ++page.stats().invalidation_rounds;
      page.SetState(CpageState::kPresent1);  // protocol: lease-collapse present+ -> present1
    }
    // present1 -> modified needs no wait: the readers keep mapping the one
    // surviving physical copy, exactly as under the directory protocol.
    m.EnterMapping(cm, entry, page, vpn, processor, local, hw::Rights::kReadWrite);
    page.SetState(CpageState::kModified);  // protocol: upgrade present1|modified -> modified
    GrantWriteLease(page);
    return;
  }

  // No local copy: migrate or map the remote copy for writing.
  FaultInfo info{cm.as_id(), vpn, processor, /*is_write=*/true};
  bool cache = m.DecideCache(page, info, sched.now());
  std::optional<PhysicalCopy> frame =
      cache ? m.AllocateFrame(page, processor) : std::nullopt;

  if (frame.has_value()) {
    // Migrate: wait for every lease on the page (reads and write), scrub all
    // translations, block-transfer the data, reclaim the old frames.
    const PageLease& l = lease(page.id());
    WaitForLeaseExpiry(page, std::max(l.read_until, l.write_until));
    uint32_t scrubbed = m.ScrubAllMappings(page);
    if (scrubbed > 0) {
      m.Trace(TraceEventType::kLeaseExpire, page, processor, scrubbed);
    }
    std::vector<int> victims;
    for (const PhysicalCopy& copy : page.copies()) {
      victims.push_back(copy.module);
    }
    m.CopyInto(page, *frame);
    for (int module : victims) {
      m.FreeCopy(page, module);
    }
    if (scrubbed > 0) {
      // Someone else lost a translation: interprocessor interference the
      // replication policy should know about.
      page.RecordInvalidation(sched.now());
      ++page.stats().invalidation_rounds;
    }
    page.AddCopy(*frame);
    // protocol: migrate present1|present+|modified -> modified
    page.SetState(CpageState::kModified);
    ++page.stats().migrations;
    ++m.machine_->stats().migrations;
    ++m.machine_->obs().cpu(processor).migrations;
    m.Trace(TraceEventType::kMigrate, page, processor, static_cast<uint32_t>(frame->module));
    m.EnterMapping(cm, entry, page, vpn, processor, *frame, hw::Rights::kReadWrite);
    GrantWriteLease(page);
    return;
  }

  // Remote write mapping. Writes require a single physical copy, so a
  // replicated page first collapses to one.
  if (page.state() == CpageState::kPresentPlus) {
    const PhysicalCopy keep = page.PrimaryCopy();
    std::vector<int> victims;
    for (const PhysicalCopy& copy : page.copies()) {
      if (copy.module != keep.module) {
        victims.push_back(copy.module);
      }
    }
    WaitForLeaseExpiry(page, lease(page.id()).read_until);
    uint32_t scrubbed = 0;
    for (int module : victims) {
      scrubbed += m.ScrubMappingsToCopy(page, module);
    }
    if (scrubbed > 0) {
      m.Trace(TraceEventType::kLeaseExpire, page, processor, scrubbed);
    }
    for (int module : victims) {
      m.FreeCopy(page, module);
    }
    if (scrubbed > 0) {
      page.RecordInvalidation(sched.now());
      ++page.stats().invalidation_rounds;
    }
    page.SetState(CpageState::kPresent1);  // protocol: lease-collapse present+ -> present1
  }
  const PhysicalCopy& copy = page.PrimaryCopy();
  m.EnterMapping(cm, entry, page, vpn, processor, copy, hw::Rights::kReadWrite);
  page.SetState(CpageState::kModified);  // protocol: upgrade present1|modified -> modified
  ++page.stats().remote_maps;
  ++m.machine_->stats().remote_maps;
  ++m.machine_->obs().cpu(processor).remote_maps;
  m.Trace(TraceEventType::kRemoteMap, page, processor, static_cast<uint32_t>(copy.module));
  GrantWriteLease(page);
}

void TardisProtocol::DowngradeToRead(Cpage& page, int initiator) {
  CoherentMemory& m = *memory_;
  WaitForLeaseExpiry(page, lease(page.id()).write_until);
  uint32_t scrubbed = m.ScrubWriteMappings(page);
  if (scrubbed > 0) {
    m.Trace(TraceEventType::kLeaseExpire, page, initiator, scrubbed);
  }
  page.SetState(CpageState::kPresent1);  // protocol: lease-restrict modified -> present1
}

void TardisProtocol::ReleaseAllMappings(Cpage& page, int initiator) {
  CoherentMemory& m = *memory_;
  const PageLease& l = lease(page.id());
  WaitForLeaseExpiry(page, std::max(l.read_until, l.write_until));
  uint32_t scrubbed = m.ScrubAllMappings(page);
  if (scrubbed > 0) {
    m.Trace(TraceEventType::kLeaseExpire, page, initiator, scrubbed);
  }
}

void TardisProtocol::ReleaseCopyMappings(Cpage& page, const std::vector<int>& modules,
                                         int initiator) {
  CoherentMemory& m = *memory_;
  // Victim copies of a collapse are read copies: the read lease bounds them.
  WaitForLeaseExpiry(page, lease(page.id()).read_until);
  uint32_t scrubbed = 0;
  for (int module : modules) {
    scrubbed += m.ScrubMappingsToCopy(page, module);
  }
  if (scrubbed > 0) {
    m.Trace(TraceEventType::kLeaseExpire, page, initiator, scrubbed);
  }
}

}  // namespace platinum::mem
