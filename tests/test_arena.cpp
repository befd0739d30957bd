// Arena allocator: alignment, slab chaining, reset-reuse (the zero-growth
// steady-state contract), oversized requests, the std-allocator adapter, and
// per-worker isolation under the work-stealing pool (the TSan CI job runs
// this file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/arena.hpp"
#include "support/thread_pool.hpp"

namespace dmw {
namespace {

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::size_t>(p) % align == 0;
}

TEST(Arena, AlignmentAndDistinctness) {
  Arena arena(1024);
  std::vector<void*> seen;
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
    for (std::size_t bytes : {1u, 3u, 17u, 100u}) {
      void* p = arena.allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(aligned_to(p, align)) << "align=" << align;
      // Writable for the full extent.
      std::memset(p, 0xAB, bytes);
      for (void* q : seen) EXPECT_NE(p, q);
      seen.push_back(p);
    }
  }
}

TEST(Arena, SlabChainingAndOversizedRequests) {
  Arena arena(256);
  EXPECT_EQ(arena.stats().slabs, 0u);
  arena.allocate(200);
  EXPECT_EQ(arena.stats().slabs, 1u);
  arena.allocate(200);  // does not fit the remainder: chains a second slab
  EXPECT_EQ(arena.stats().slabs, 2u);
  // An oversized request gets a dedicated slab at least as large as asked.
  void* big = arena.allocate(10 * 1024, 64);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5C, 10 * 1024);
  const Arena::Stats s = arena.stats();
  EXPECT_EQ(s.slabs, 3u);
  EXPECT_GE(s.reserved_bytes, 10 * 1024u + 2 * 256u);
  EXPECT_EQ(s.slab_allocations, 3u);
}

TEST(Arena, ResetRewindsWithoutReleasing) {
  Arena arena(512);
  for (int i = 0; i < 8; ++i) arena.allocate(200);
  const Arena::Stats warm = arena.stats();
  EXPECT_GT(warm.slabs, 1u);
  arena.reset();
  EXPECT_EQ(arena.stats().used_bytes, 0u);
  EXPECT_EQ(arena.stats().slabs, warm.slabs);  // memory retained
  // Replaying the same footprint must not touch the heap again.
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 8; ++i) arena.allocate(200);
    arena.reset();
  }
  const Arena::Stats steady = arena.stats();
  EXPECT_EQ(steady.slab_allocations, warm.slab_allocations);
  EXPECT_EQ(steady.resets, 101u);
  EXPECT_GE(steady.high_water_bytes, 8u * 200u);
}

TEST(Arena, ResetRecyclesAddresses) {
  Arena arena(4096);
  void* first = arena.allocate(64, 16);
  arena.reset();
  void* again = arena.allocate(64, 16);
  EXPECT_EQ(first, again);  // bump cursor rewound to the same slab base
}

TEST(Arena, ArenaVectorDrawsFromArena) {
  Arena arena(4096);
  const std::size_t before = arena.stats().slab_allocations;
  {
    ArenaVector<std::uint64_t> v{ArenaAllocator<std::uint64_t>(arena)};
    for (std::uint64_t i = 0; i < 100; ++i) v.push_back(i * i);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i * i);
    EXPECT_GT(arena.stats().used_bytes, 0u);
  }
  arena.reset();
  // A second generation of the same shape reuses the warmed slabs.
  {
    ArenaVector<std::uint64_t> v{ArenaAllocator<std::uint64_t>(arena)};
    for (std::uint64_t i = 0; i < 100; ++i) v.push_back(i);
  }
  EXPECT_EQ(arena.stats().slab_allocations,
            before + 1u);  // one slab covers both generations
}

TEST(WorkerArenas, DriverUsesTrailingSlot) {
  WorkerArenas arenas(4, 1024);
  EXPECT_EQ(arenas.size(), 5u);
  ASSERT_EQ(ThreadPool::current_worker_id(), -1);
  Arena& driver = arenas.local();
  EXPECT_EQ(&driver, &arenas.at(4));
  driver.allocate(100);
  EXPECT_EQ(arenas.at(4).stats().used_bytes, 100u);
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_EQ(arenas.at(w).stats().used_bytes, 0u);
}

// Each worker bumps only its own arena; the pattern written by one job is
// still intact when the same worker's later jobs run, and reset_all() at the
// drain() barrier is race-free (the TSan job runs this).
TEST(WorkerArenas, PerWorkerIsolationUnderStealing) {
  const std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  WorkerArenas arenas(kWorkers, 2048);
  std::atomic<std::size_t> corruptions{0};

  for (int cycle = 0; cycle < 20; ++cycle) {
    pool.parallel_for(256, [&](std::size_t i) {
      const int id = ThreadPool::current_worker_id();
      ASSERT_GE(id, 0);
      Arena& mine = arenas.local();
      ASSERT_EQ(&mine, &arenas.at(static_cast<std::size_t>(id)));
      auto* block = mine.allocate_array<std::uint32_t>(16);
      const std::uint32_t tag =
          static_cast<std::uint32_t>((id << 16) ^ static_cast<int>(i));
      for (int k = 0; k < 16; ++k)
        block[k] = tag + static_cast<std::uint32_t>(k);
      for (int k = 0; k < 16; ++k)
        if (block[k] != tag + static_cast<std::uint32_t>(k))
          corruptions.fetch_add(1, std::memory_order_relaxed);
    });
    arenas.reset_all();  // legal: parallel_for returned, pool is quiescent
  }
  EXPECT_EQ(corruptions.load(), 0u);

  // Warm every slot to the worst case a schedule can produce — one worker
  // absorbing the entire parallel_for. (The 20 cycles above do NOT warm it:
  // stealing redistributes load every cycle, so a worker can exceed its own
  // high-water mark cycles later.) The pool is quiescent, so the test thread
  // may touch the worker slots, same as reset_all().
  for (std::size_t s = 0; s < arenas.size(); ++s)
    for (int i = 0; i < 256; ++i)
      arenas.at(s).allocate_array<std::uint32_t>(16);
  arenas.reset_all();

  // Warmed up: further cycles must not allocate a single new slab.
  const std::size_t warm = arenas.combined_stats().slab_allocations;
  for (int cycle = 0; cycle < 5; ++cycle) {
    pool.parallel_for(256, [&](std::size_t) {
      arenas.local().allocate_array<std::uint32_t>(16);
    });
    arenas.reset_all();
  }
  EXPECT_EQ(arenas.combined_stats().slab_allocations, warm);
}

TEST(WorkerArenas, CombinedStatsSumSlots) {
  WorkerArenas arenas(2, 1024);
  arenas.at(0).allocate(100);
  arenas.at(1).allocate(200);
  arenas.at(2).allocate(300);
  const Arena::Stats total = arenas.combined_stats();
  EXPECT_EQ(total.used_bytes, 600u);
  EXPECT_EQ(total.slabs, 3u);
  EXPECT_EQ(total.slab_allocations, 3u);
}

}  // namespace
}  // namespace dmw
