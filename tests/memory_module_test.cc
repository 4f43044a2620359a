// Unit tests for memory modules and their inverted page tables.
#include "src/sim/memory_module.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/machine.h"
#include "src/sim/params.h"
#include "tests/test_util.h"

namespace platinum::sim {
namespace {

// A module owns its frame region outright: copying it would alias or
// duplicate the storage, so only moves (into Machine's vector) are allowed.
static_assert(!std::is_copy_constructible_v<MemoryModule>);
static_assert(!std::is_copy_assignable_v<MemoryModule>);
static_assert(std::is_move_constructible_v<MemoryModule>);

MachineParams SmallParams() {
  MachineParams params = ButterflyPlusParams(2);
  params.frames_per_module = 16;
  return params;
}

TEST(MemoryModuleTest, AllocFindFree) {
  MemoryModule module(0, SmallParams());
  auto alloc = module.AllocFrame(42);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(module.free_frames(), 15u);
  EXPECT_EQ(module.FrameOwner(alloc->frame), 42u);

  auto found = module.FindFrame(42);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->frame, alloc->frame);

  module.FreeFrame(alloc->frame);
  EXPECT_EQ(module.free_frames(), 16u);
  EXPECT_FALSE(module.FindFrame(42).has_value());
  EXPECT_EQ(module.FrameOwner(alloc->frame), kInvalidCpage);
}

TEST(MemoryModuleTest, FindSkipsTombstones) {
  MemoryModule module(0, SmallParams());
  // Fill several entries, free some in the middle, and make sure the
  // survivors are still found despite tombstones in their probe chains.
  std::vector<uint32_t> frames;
  for (uint32_t cpage = 0; cpage < 12; ++cpage) {
    auto alloc = module.AllocFrame(cpage);
    ASSERT_TRUE(alloc.has_value());
    frames.push_back(alloc->frame);
  }
  for (uint32_t cpage = 0; cpage < 12; cpage += 2) {
    module.FreeFrame(frames[cpage]);
  }
  for (uint32_t cpage = 1; cpage < 12; cpage += 2) {
    auto found = module.FindFrame(cpage);
    ASSERT_TRUE(found.has_value()) << "cpage " << cpage;
    EXPECT_EQ(found->frame, frames[cpage]);
  }
}

TEST(MemoryModuleTest, ExhaustionReturnsNullopt) {
  MemoryModule module(0, SmallParams());
  for (uint32_t cpage = 0; cpage < 16; ++cpage) {
    ASSERT_TRUE(module.AllocFrame(cpage).has_value());
  }
  EXPECT_EQ(module.free_frames(), 0u);
  EXPECT_FALSE(module.AllocFrame(100).has_value());
  // Freeing one makes allocation possible again.
  auto found = module.FindFrame(3);
  ASSERT_TRUE(found.has_value());
  module.FreeFrame(found->frame);
  EXPECT_TRUE(module.AllocFrame(100).has_value());
}

TEST(MemoryModuleTest, FramesAreDistinct) {
  MemoryModule module(0, SmallParams());
  std::set<uint32_t> frames;
  for (uint32_t cpage = 0; cpage < 16; ++cpage) {
    auto alloc = module.AllocFrame(cpage);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_TRUE(frames.insert(alloc->frame).second) << "duplicate frame " << alloc->frame;
  }
}

TEST(MemoryModuleTest, DataStorageIsPerFrame) {
  MachineParams params = SmallParams();
  MemoryModule module(0, params);
  auto a = module.AllocFrame(1);
  auto b = module.AllocFrame(2);
  ASSERT_TRUE(a.has_value() && b.has_value());
  module.FrameData(a->frame)[0] = 0xAB;
  module.FrameData(b->frame)[0] = 0xCD;
  EXPECT_EQ(module.FrameData(a->frame)[0], 0xAB);
  EXPECT_EQ(module.FrameData(b->frame)[0], 0xCD);
}

bool FrameIsZero(const MemoryModule& module, uint32_t frame, uint32_t page_size) {
  const uint8_t* data = module.FrameData(frame);
  for (uint32_t i = 0; i < page_size; ++i) {
    if (data[i] != 0) {
      return false;
    }
  }
  return true;
}

TEST(MemoryModuleTest, FreshFramesReadZero) {
  MachineParams params = ButterflyPlusParams(2);
  MemoryModule module(0, params);
  const uint32_t last = module.num_frames() - 1;
  EXPECT_TRUE(FrameIsZero(module, 0, params.page_size_bytes));
  EXPECT_TRUE(FrameIsZero(module, last, params.page_size_bytes));
  EXPECT_EQ(module.LoadWord(last, params.words_per_page() - 1), 0u);
  // The last word of the last frame is writable and reads back.
  module.StoreWord(last, params.words_per_page() - 1, 0x12345678u);
  EXPECT_EQ(module.LoadWord(last, params.words_per_page() - 1), 0x12345678u);
}

TEST(MemoryModuleTest, MovedModuleKeepsItsFrames) {
  MemoryModule module(3, SmallParams());
  module.StoreWord(5, 7, 0xfeedu);
  const uint8_t* storage = module.FrameData(0);
  MemoryModule moved(std::move(module));
  EXPECT_EQ(moved.node(), 3);
  EXPECT_EQ(moved.FrameData(0), storage);
  EXPECT_EQ(moved.LoadWord(5, 7), 0xfeedu);
}

// Building a machine maps its frame storage without touching it: the host
// backs a frame with memory only once the simulation uses it.
TEST(MemoryModuleTest, MachineConstructionLeavesFramesNonResident) {
  Machine machine(ButterflyPlusParams(64));
  const size_t host_page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  for (int node = 0; node < machine.num_nodes(); ++node) {
    MemoryModule& module = machine.module(node);
    const size_t bytes =
        static_cast<size_t>(module.num_frames()) * machine.params().page_size_bytes;
    std::vector<unsigned char> resident((bytes + host_page - 1) / host_page, 1);
    ASSERT_EQ(mincore(module.FrameData(0), bytes, resident.data()), 0) << "node " << node;
    size_t pages = 0;
    for (unsigned char page : resident) {
      pages += page & 1;
    }
    EXPECT_EQ(pages, 0u) << "node " << node;
  }
}

// Fresh host pages read zero, but a frame that is freed and allocated again
// keeps its old bytes; filling an empty page must zero the recycled frame.
TEST(MemoryModuleTest, RecycledFrameIsZeroedOnFirstTouch) {
  MachineParams params = ButterflyPlusParams(2);
  params.frames_per_module = 1;  // one frame per node, so node 0 must reuse it
  test::TestSystem sys(params);
  auto* space = sys.kernel.CreateAddressSpace("recycle", 64);
  rt::ZoneAllocator zone(&sys.kernel, space);
  const size_t words = params.words_per_page();
  auto old_page = rt::SharedArray<uint32_t>::Create(zone, "old", words);
  auto new_page = rt::SharedArray<uint32_t>::Create(zone, "new", words);
  MemoryModule& node0 = sys.machine.module(0);

  test::RunInThread(sys.kernel, space, 0, [&] {
    for (size_t i = 0; i < words; ++i) {
      old_page.Set(i, 0xA5A5A5A5u);
    }
    // Migrate the written page to node 1, freeing node 0's only frame.
    sys.kernel.PinMemory(space, old_page.base_va(), /*node=*/1);
  });
  ASSERT_EQ(node0.free_frames(), 1u);
  ASSERT_EQ(node0.LoadWord(0, 0), 0xA5A5A5A5u) << "the freed frame still holds the old bytes";

  test::RunInThread(sys.kernel, space, 0, [&] {
    for (size_t i = 0; i < words; ++i) {
      ASSERT_EQ(new_page.Get(i), 0u) << "word " << i;
    }
  });
  EXPECT_EQ(node0.free_frames(), 0u);
  EXPECT_TRUE(FrameIsZero(node0, 0, params.page_size_bytes));
  sys.kernel.memory().CheckInvariants();
}

TEST(MemoryModuleTest, ProbeCountsReflectCollisions) {
  MemoryModule module(0, SmallParams());
  // Whatever the hash values, the first allocation probes at least one slot
  // and never more than the table size.
  for (uint32_t cpage = 0; cpage < 16; ++cpage) {
    auto alloc = module.AllocFrame(cpage);
    ASSERT_TRUE(alloc.has_value());
    EXPECT_GE(alloc->probes, 1u);
    EXPECT_LE(alloc->probes, 16u);
  }
}

}  // namespace
}  // namespace platinum::sim
