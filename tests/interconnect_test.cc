// Unit tests for the interconnect timing/contention model.
#include "src/sim/interconnect.h"

#include <gtest/gtest.h>

#include "src/sim/params.h"

namespace platinum::sim {
namespace {

class InterconnectTest : public ::testing::Test {
 protected:
  InterconnectTest() : params_(ButterflyPlusParams(4)), obs_(4) {
    params_.frames_per_module = 8;
    for (int i = 0; i < 4; ++i) {
      modules_.emplace_back(i, params_);
    }
    net_ = std::make_unique<Interconnect>(params_, &modules_, &stats_, &obs_);
  }

  MachineParams params_;
  std::vector<MemoryModule> modules_;
  MachineStats stats_;
  obs::Observability obs_;
  std::unique_ptr<Interconnect> net_;
};

TEST_F(InterconnectTest, LocalReadLatency) {
  EXPECT_EQ(net_->Reference(0, 0, AccessKind::kRead, 0), params_.local_read_ns);
  EXPECT_EQ(stats_.local_reads, 1u);
}

TEST_F(InterconnectTest, RemoteReadLatency) {
  EXPECT_EQ(net_->Reference(0, 1, AccessKind::kRead, 0), params_.remote_read_ns);
  EXPECT_EQ(stats_.remote_reads, 1u);
}

TEST_F(InterconnectTest, RemoteWritesAreCheaperThanReads) {
  SimTime write = net_->Reference(0, 1, AccessKind::kWrite, 0);
  EXPECT_LT(write, params_.remote_read_ns);
  EXPECT_EQ(write, params_.remote_write_ns);
}

TEST_F(InterconnectTest, ContentionQueuesAtTargetModule) {
  // Two processors hit module 2 at the same instant; the second one waits for
  // the first's bus occupancy.
  SimTime first = net_->Reference(0, 2, AccessKind::kRead, 0);
  SimTime second = net_->Reference(1, 2, AccessKind::kRead, 0);
  EXPECT_EQ(first, params_.remote_read_ns);
  EXPECT_EQ(second, params_.remote_read_ns + params_.module_occupancy_remote_ns);
  EXPECT_GT(stats_.module_wait_ns, SimTime{0});
}

TEST_F(InterconnectTest, NoContentionAcrossModules) {
  net_->Reference(0, 1, AccessKind::kRead, 0);
  SimTime other = net_->Reference(2, 3, AccessKind::kRead, 0);
  EXPECT_EQ(other, params_.remote_read_ns);
}

TEST_F(InterconnectTest, ContentionDrainsOverTime) {
  net_->Reference(0, 2, AccessKind::kRead, 0);
  // Arriving after the first reference's occupancy window: no wait.
  SimTime later = net_->Reference(1, 2, AccessKind::kRead, 10 * kMicrosecond);
  EXPECT_EQ(later, params_.remote_read_ns);
}

TEST_F(InterconnectTest, BlockTransferTakesPaperPageCopyTime) {
  SimTime done = net_->BlockTransfer(0, 1, params_.words_per_page(), 0);
  // Section 4: 1.11 ms for a 4 KB page.
  EXPECT_NEAR(ToMilliseconds(done), 1.11, 0.01);
  EXPECT_EQ(stats_.block_transfers, 1u);
  EXPECT_EQ(stats_.block_words_copied, params_.words_per_page());
}

TEST_F(InterconnectTest, BlockTransferStealsBothBuses) {
  SimTime done = net_->BlockTransfer(0, 1, 1024, 0);
  SimTime duration = done;
  // A reference to either module now queues behind ~75% of the transfer.
  SimTime src_ref = net_->Reference(2, 0, AccessKind::kRead, 0);
  SimTime dst_ref = net_->Reference(3, 1, AccessKind::kRead, 0);
  SimTime steal = duration * params_.block_bus_steal_permille / 1000;
  EXPECT_GE(src_ref, steal);
  EXPECT_GE(dst_ref, steal);
}

TEST_F(InterconnectTest, BackToBackBlockTransfersSerialize) {
  SimTime first = net_->BlockTransfer(0, 1, 1024, 0);
  SimTime second = net_->BlockTransfer(0, 1, 1024, 0);
  EXPECT_GT(second, first);
}

TEST_F(InterconnectTest, QueuedBlockTransferChargesTheBlockingModule) {
  // Module 1's bus is busy with a reference when a transfer into it starts;
  // the transfer's wait is queueing at module 1, the destination.
  net_->Reference(2, 1, AccessKind::kRead, 0);
  SimTime queued = stats_.module_wait_ns;
  SimTime done = net_->BlockTransfer(0, 1, 1024, 0);
  SimTime dst_wait = params_.module_occupancy_remote_ns;
  EXPECT_EQ(done, dst_wait + 1024 * params_.block_copy_word_ns);
  EXPECT_EQ(stats_.module_wait_ns, queued + dst_wait);
  EXPECT_EQ(obs_.module(1).queue_wait_ns, queued + dst_wait);
  EXPECT_EQ(obs_.module(0).queue_wait_ns, SimTime{0});

  // A second transfer out of module 1 waits behind the first one's bus steal
  // there; it is charged to module 1 as the source.
  SimTime steal = (done - dst_wait) * params_.block_bus_steal_permille / 1000;
  net_->BlockTransfer(1, 3, 1024, 0);
  EXPECT_EQ(obs_.module(1).queue_wait_ns, queued + dst_wait + dst_wait + steal);
  EXPECT_EQ(obs_.module(3).queue_wait_ns, SimTime{0});

  SimTime per_module = 0;
  for (int node = 0; node < 4; ++node) {
    per_module += obs_.module(node).queue_wait_ns;
  }
  EXPECT_EQ(per_module, stats_.module_wait_ns);
}

}  // namespace
}  // namespace platinum::sim
