// Unit tests for the slim Phase B storage primitives: the varint move
// record codec (round-trip + fuzz), the two-level MoveLayout, the
// packed HeightTable, the TwoLevelBitset, the
// disk-spilled record store (round-trip fuzz + hardened error paths), the
// cgroup-aware memory budget, and the projected-memory mode-selection
// guard that replaced the old hard cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "util/packed_bitset.hpp"
#include "util/rng.hpp"
#include "verify/checkers.hpp"
#include "verify/phaseb_store.hpp"
#include "verify/spill_store.hpp"

namespace {

using namespace ssr;
using verify::HeightTable;
using verify::MoveRecordCodec;
using verify::MoveLayout;
using verify::PhaseBStorage;

// --- MoveRecordCodec -------------------------------------------------------

TEST(MoveRecordCodec, RoundTripsHandPickedRecords) {
  const MoveRecordCodec codec(5, 24);  // ssrmin(5, K=6): radix 4K = 24
  EXPECT_EQ(codec.delta_bits(), 6u);   // bit_width(2 * 23) = 6

  struct Case {
    std::uint32_t mask;
    std::vector<std::int32_t> deltas;
  };
  const Case cases[] = {
      {0b00001, {5}},
      {0b10001, {-23, 23}},
      {0b01110, {0, -1, 1}},   // zero delta (state-preserving rule) kept
      {0b11111, {-23, -1, 0, 1, 23}},
  };
  std::uint8_t buf[64];
  for (const Case& c : cases) {
    const std::size_t written = codec.encode(c.mask, c.deltas.data(), buf);
    EXPECT_EQ(written, codec.encoded_size(c.mask));
    EXPECT_LE(written, codec.max_encoded_size());
    std::uint32_t mask = 0;
    std::int32_t deltas[32];
    const std::size_t read = codec.decode(buf, mask, deltas);
    EXPECT_EQ(read, written);
    EXPECT_EQ(mask, c.mask);
    for (std::size_t k = 0; k < c.deltas.size(); ++k) {
      EXPECT_EQ(deltas[k], c.deltas[k]) << "bit " << k;
    }
  }
}

TEST(MoveRecordCodec, FuzzRoundTripAcrossSizesAndRadixes) {
  Rng rng(20260806);
  std::uint8_t buf[64];
  std::int32_t out[32];
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t n = 1 + rng.below(32);
    const std::uint64_t radix = 2 + rng.below(64);
    const MoveRecordCodec codec(n, radix);
    std::uint32_t mask = 0;
    std::vector<std::int32_t> deltas;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.below(2) == 0) continue;
      mask |= std::uint32_t{1} << i;
      deltas.push_back(static_cast<std::int32_t>(rng.below(2 * radix - 1)) -
                       static_cast<std::int32_t>(radix - 1));
    }
    const std::size_t written = codec.encode(mask, deltas.data(), buf);
    ASSERT_EQ(written, codec.encoded_size(mask));
    ASSERT_LE(written, codec.max_encoded_size());
    std::uint32_t got_mask = 0;
    const std::size_t read = codec.decode(buf, got_mask, out);
    ASSERT_EQ(read, written);
    ASSERT_EQ(got_mask, mask);
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      ASSERT_EQ(out[k], deltas[k]) << "iter " << iter << " slot " << k;
    }
  }
}

TEST(MoveRecordCodec, RejectsUnsupportedShapes) {
  EXPECT_THROW(MoveRecordCodec(0, 4), std::invalid_argument);
  EXPECT_THROW(MoveRecordCodec(33, 4), std::invalid_argument);
  EXPECT_THROW(MoveRecordCodec(4, 1), std::invalid_argument);
}

// --- MoveLayout ------------------------------------------------------------

TEST(MoveLayout, TwoLevelOffsetsAddressEveryRecord) {
  const MoveRecordCodec codec(4, 8);
  MoveLayout layout;
  layout.prepare(10000, codec);
  EXPECT_EQ(layout.block_shift(), 12u);

  // Give config c a record of size (c % 5): sizes vary within blocks.
  auto size_of = [](std::uint64_t c) {
    return static_cast<std::uint16_t>(c % 5);
  };
  std::uint64_t want_bytes = 0;
  for (std::uint64_t b = 0; b < layout.block_count(); ++b) {
    std::uint16_t running = 0;
    for (std::uint64_t c = layout.block_begin(b); c < layout.block_end(b);
         ++c) {
      layout.set_local_offset(c, running);
      running = static_cast<std::uint16_t>(running + size_of(c));
    }
    layout.set_block_bytes(b, running);
    want_bytes += running;
  }
  layout.finalize();
  // Records tile the stream: each one starts where the previous one
  // ended, across block boundaries too, and the last one ends the stream.
  EXPECT_EQ(layout.offset_of(0), 0u);
  for (std::uint64_t c = 1; c < 10000; ++c) {
    EXPECT_EQ(layout.offset_of(c), layout.offset_of(c - 1) + size_of(c - 1))
        << "config " << c;
  }
  EXPECT_EQ(layout.total_bytes(), want_bytes);
  EXPECT_EQ(layout.offset_of(9999) + size_of(9999), want_bytes);
  EXPECT_GT(layout.offset_bytes(), 0u);
}

TEST(MoveLayout, ShrinksBlockShiftForHugeRecords) {
  // n = 32, radix 64: delta_bits = 7, max record = 1 + varint(2^32-1 mask
  // bytes)... encoded mask of 32 bits needs 5 varint bytes, deltas 28
  // bytes -> 33 bytes/record. 4096 * 33 > 65535, so the shift must drop.
  const MoveRecordCodec codec(32, 64);
  MoveLayout layout;
  layout.prepare(100000, codec);
  EXPECT_LT(layout.block_shift(), 12u);
  EXPECT_LE((std::uint64_t{1} << layout.block_shift()) *
                codec.max_encoded_size(),
            65535u);
}

// --- SpillMoveStore --------------------------------------------------------

TEST(SpillStore, RoundTripFuzzMirrorsTheCodecFuzz) {
  // The spill pipeline end to end — two-pass layout, double-buffered
  // block writes through the background flusher, fstat-checked mmap,
  // prefetch thread — must hand back byte-identical records for random
  // (n, radix, mask, delta) populations, mirroring the in-RAM codec fuzz.
  Rng rng(20260809);
  std::uint8_t buf[64];
  std::int32_t out[32];
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 1 + rng.below(32);
    const std::uint64_t radix = 2 + rng.below(64);
    const MoveRecordCodec codec(n, radix);
    const std::uint64_t total = 3000 + rng.below(9000);

    std::vector<std::uint32_t> masks(total);
    std::vector<std::vector<std::int32_t>> deltas(total);
    for (std::uint64_t c = 0; c < total; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.below(2) == 0) continue;
        masks[c] |= std::uint32_t{1} << i;
        deltas[c].push_back(
            static_cast<std::int32_t>(rng.below(2 * radix - 1)) -
            static_cast<std::int32_t>(radix - 1));
      }
    }

    verify::SpillMoveStore store;
    store.prepare(total, codec, testing::TempDir(),
                  verify::projected_spill_file_bytes(total, n, radix));
    verify::MoveLayout& layout = store.layout();
    for (std::uint64_t b = 0; b < layout.block_count(); ++b) {
      std::uint16_t running = 0;
      for (std::uint64_t c = layout.block_begin(b); c < layout.block_end(b);
           ++c) {
        layout.set_local_offset(c, running);
        running =
            static_cast<std::uint16_t>(running + codec.encoded_size(masks[c]));
      }
      layout.set_block_bytes(b, running);
    }
    store.finalize_layout();

    verify::SpillBlockWriter writer(store.write_queue(), std::size_t{64} << 10);
    std::uint64_t expected_bytes = 0;
    for (std::uint64_t b = 0; b < layout.block_count(); ++b) {
      const std::uint64_t bbytes = layout.block_bytes(b);
      if (bbytes == 0) continue;
      std::uint8_t* base = writer.begin_block(bbytes);
      for (std::uint64_t c = layout.block_begin(b); c < layout.block_end(b);
           ++c) {
        const std::size_t written =
            codec.encode(masks[c], deltas[c].data(), buf);
        ASSERT_EQ(written, codec.encoded_size(masks[c]));
        std::copy(buf, buf + written, base + layout.local_offset(c));
      }
      writer.end_block(layout.block_base(b), bbytes);
      expected_bytes += bbytes;
    }
    store.seal_for_read(4);
    ASSERT_EQ(store.stream_bytes(), expected_bytes) << "iter " << iter;

    store.begin_round();
    for (std::uint64_t c = 0; c < total; ++c) {
      store.note_progress(layout.offset_of(c));
      std::uint32_t got_mask = 0;
      const std::size_t read = codec.decode(store.record_at(c), got_mask, out);
      ASSERT_EQ(read, codec.encoded_size(masks[c])) << "iter " << iter;
      ASSERT_EQ(got_mask, masks[c]) << "iter " << iter << " config " << c;
      for (std::size_t k = 0; k < deltas[c].size(); ++k) {
        ASSERT_EQ(out[k], deltas[c][k])
            << "iter " << iter << " config " << c << " slot " << k;
      }
    }
    store.release();
  }
}

TEST(SpillStore, UnwritableTmpdirNamesDirAndProjectedBytes) {
  const MoveRecordCodec codec(4, 8);
  verify::SpillMoveStore store;
  store.prepare(100, codec, "/nonexistent-ssring-tmpdir", 12345);
  store.layout().set_block_bytes(0, 16);  // a non-empty stream to create
  try {
    store.finalize_layout();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("/nonexistent-ssring-tmpdir"), std::string::npos) << msg;
    EXPECT_NE(msg.find("projected spill bytes=12345"), std::string::npos)
        << msg;
  }
}

TEST(SpillStore, TruncatedSpillFileIsAnErrorNotASigbus) {
  std::string path = testing::TempDir() + "/ssring-truncated-XXXXXX";
  const int fd = ::mkstemp(path.data());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "abcd", 4), 4);
  ASSERT_EQ(::close(fd), 0);

  verify::SpillFile file;
  file.open_path(path, 999);
  try {
    file.map_readonly(4096);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("4096 expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find("projected spill bytes=999"), std::string::npos) << msg;
  }
  file.close();
  ::unlink(path.c_str());
}

TEST(SpillStore, EnospcMidWriteSurfacesAsRequireError) {
  // /dev/full fails every write with ENOSPC — the direct write path and
  // the background flush queue must both turn that into the named error.
  struct stat st {};
  if (::stat("/dev/full", &st) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  std::uint8_t block[256] = {};
  {
    verify::SpillFile file;
    file.open_path("/dev/full", 777);
    try {
      file.write_at(0, block, sizeof block);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("/dev/full"), std::string::npos) << msg;
      EXPECT_NE(msg.find("write failed"), std::string::npos) << msg;
      EXPECT_NE(msg.find("projected spill bytes=777"), std::string::npos)
          << msg;
    }
  }
  {
    verify::SpillFile file;
    file.open_path("/dev/full", 777);
    verify::SpillWriteQueue queue(file);
    queue.start();
    bool busy = false;
    queue.submit(block, 0, sizeof block, &busy);
    EXPECT_THROW(queue.finish(), std::invalid_argument);
  }
}

// --- HeightTable -----------------------------------------------------------

TEST(HeightTable, AdoptKeepsTheDenseHeights) {
  const HeightTable t = HeightTable::adopt({0, 7, 43, 65534});
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t[2], 43u);
  EXPECT_EQ(t[3], 65534u);
  EXPECT_TRUE(t == HeightTable::adopt({0, 7, 43, 65534}));
  EXPECT_FALSE(t == HeightTable::adopt({0, 7, 42, 65534}));
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(HeightTable().empty());
}

// --- TwoLevelBitset --------------------------------------------------------

TEST(TwoLevelBitset, SetTestClearCountFindFirst) {
  util::TwoLevelBitset bits(100000);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_EQ(bits.find_first(), 100000u);
  for (std::uint64_t i : {0ull, 63ull, 64ull, 4095ull, 4096ull, 99999ull}) {
    bits.set(i);
  }
  EXPECT_EQ(bits.count(), 6u);
  EXPECT_EQ(bits.find_first(), 0u);
  EXPECT_TRUE(bits.test(4095));
  EXPECT_FALSE(bits.test(4094));
  bits.clear(0);
  EXPECT_EQ(bits.find_first(), 63u);
  EXPECT_EQ(bits.count(), 5u);
}

TEST(TwoLevelBitset, ForEachSetVisitsExactlyTheSetBits) {
  util::TwoLevelBitset bits(50000);
  std::vector<std::uint64_t> want;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t idx = rng.below(50000);
    if (!bits.test(idx)) {
      bits.set(idx);
      want.push_back(idx);
    }
  }
  std::sort(want.begin(), want.end());
  std::vector<std::uint64_t> got;
  bits.for_each_set(0, bits.size(), [&](std::uint64_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);

  // Range-restricted scan with unaligned bounds.
  std::vector<std::uint64_t> ranged;
  bits.for_each_set(1000, 49000,
                    [&](std::uint64_t i) { ranged.push_back(i); });
  std::vector<std::uint64_t> want_ranged;
  for (std::uint64_t i : want) {
    if (i >= 1000 && i < 49000) want_ranged.push_back(i);
  }
  EXPECT_EQ(ranged, want_ranged);

  // The peel pattern: clearing while iterating drains the set, and a
  // second sweep over the (summary-reconciled) empty bitset sees nothing.
  bits.for_each_set(0, bits.size(), [&](std::uint64_t i) { bits.clear(i); });
  EXPECT_EQ(bits.count(), 0u);
  bool any = false;
  bits.for_each_set(0, bits.size(), [&](std::uint64_t) { any = true; });
  EXPECT_FALSE(any);
}

// --- projections + mode selection ------------------------------------------

TEST(PhaseBSelection, ProjectionsCountEveryStructure) {
  // ssrmin(5,6)-shaped: n = 5, radix 24, 2^20 configurations. The watch
  // lists hold four bitsets, u32 head + next and u16 heights; csr-free
  // three bitsets, a u32 watch and the heights; spill three bitsets, the
  // record offsets and the heights. All three hold the n * radix^3 u16
  // move table.
  const std::uint64_t total = 1 << 20;
  const std::uint64_t bitset = verify::projected_bitset_bytes(total);
  const std::uint64_t table = verify::move_table_bytes(5, 24);
  EXPECT_EQ(table, 5u * 24 * 24 * 24 * 2);
  EXPECT_EQ(verify::projected_watch_lists_bytes(total, 5, 24),
            4 * bitset + 10 * total + table);
  EXPECT_EQ(verify::projected_csrfree_bytes(total, 5, 24),
            3 * bitset + 6 * total + table);
  const std::uint64_t blocks =
      ((total - 1) >>
       verify::record_block_shift(MoveRecordCodec(5, 24).max_encoded_size())) +
      1;
  EXPECT_EQ(verify::projected_spill_resident_bytes(total, 5, 24),
            3 * bitset + 4 * total + 8 * (blocks + 1) + table);
}

TEST(PhaseBSelection, AutoPicksWatchListsWhenTheyFit) {
  std::uint64_t projected = 0;
  const PhaseBStorage mode = verify::select_phaseb_storage(
      PhaseBStorage::kAuto, 1 << 20, 5, 24, std::uint64_t{1} << 30,
      &projected);
  EXPECT_EQ(mode, PhaseBStorage::kWatchLists);
  EXPECT_EQ(projected, verify::projected_watch_lists_bytes(1 << 20, 5, 24));
  EXPECT_LE(projected, std::uint64_t{1} << 30);
}

TEST(PhaseBSelection, AutoFallsBackToCsrFreeUnderPressure) {
  const std::uint64_t total = 1 << 20;
  // A budget between the two projections forces the fallback.
  const std::uint64_t lists =
      verify::projected_watch_lists_bytes(total, 5, 24);
  const std::uint64_t free = verify::projected_csrfree_bytes(total, 5, 24);
  ASSERT_LT(free, lists);
  std::uint64_t projected = 0;
  const PhaseBStorage mode = verify::select_phaseb_storage(
      PhaseBStorage::kAuto, total, 5, 24, (lists + free) / 2, &projected);
  EXPECT_EQ(mode, PhaseBStorage::kCsrFree);
  EXPECT_EQ(projected, free);
}

TEST(PhaseBSelection, ErrorNamesProjectedBytesAndFittingMode) {
  const std::uint64_t total = 1 << 20;
  const std::uint64_t lists =
      verify::projected_watch_lists_bytes(total, 5, 24);
  const std::uint64_t free = verify::projected_csrfree_bytes(total, 5, 24);
  std::uint64_t projected = 0;
  // Requesting watch lists under a budget only csr-free fits must say so.
  try {
    verify::select_phaseb_storage(PhaseBStorage::kWatchLists, total, 5, 24,
                                  (lists + free) / 2, &projected);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("csr-free mode would fit"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(lists)), std::string::npos) << msg;
  }
  // Nothing fits: the error names both projections and asks to shrink.
  try {
    verify::select_phaseb_storage(PhaseBStorage::kAuto, total, 5, 24,
                                  free / 2, &projected);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no storage mode fits"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reduce n or K"), std::string::npos) << msg;
  }
}

TEST(PhaseBSelection, AutoPicksSpillWhenNoInRamModeFits) {
  const std::uint64_t total = 1 << 20;
  const std::uint64_t free = verify::projected_csrfree_bytes(total, 5, 24);
  const std::uint64_t spill =
      verify::projected_spill_resident_bytes(total, 5, 24);
  // The spill tier only exists below csr-free — that ordering is what the
  // watch-free peel buys.
  ASSERT_LT(spill, free);
  std::uint64_t projected = 0;
  std::uint64_t spill_file = 0;
  const PhaseBStorage mode =
      verify::select_phaseb_storage(PhaseBStorage::kAuto, total, 5, 24,
                                    (spill + free) / 2, &projected,
                                    &spill_file);
  EXPECT_EQ(mode, PhaseBStorage::kSpill);
  EXPECT_EQ(projected, spill);
  EXPECT_EQ(spill_file, verify::projected_spill_file_bytes(total, 5, 24));

  // Below even the spill-resident floor, the error names the disk split.
  try {
    verify::select_phaseb_storage(PhaseBStorage::kSpill, total, 5, 24,
                                  spill / 2, &projected);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("spill resident=" + std::to_string(spill)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("no storage mode fits"), std::string::npos) << msg;
  }
}

// --- memory budget ---------------------------------------------------------

TEST(MemoryBudget, CgroupLimitCapsTheDefault) {
  // An env-injected fake cgroup hierarchy: the default budget must take
  // min(physical RAM, cgroup limit), read v2 then v1, and treat both
  // "unlimited" spellings as no limit.
  std::string root = testing::TempDir() + "/ssring-cgroup-XXXXXX";
  ASSERT_NE(::mkdtemp(root.data()), nullptr);
  ASSERT_EQ(setenv("SSRING_CGROUP_ROOT", root.c_str(), 1), 0);

  const std::uint64_t phys =
      static_cast<std::uint64_t>(sysconf(_SC_PHYS_PAGES)) *
      static_cast<std::uint64_t>(sysconf(_SC_PAGE_SIZE));

  // cgroup v2: a 1 GiB limit.
  const std::uint64_t gib = std::uint64_t{1} << 30;
  { std::ofstream(root + "/memory.max") << gib << "\n"; }
  EXPECT_EQ(verify::cgroup_memory_limit_bytes(), gib);
  EXPECT_EQ(verify::default_memory_budget(), std::min(phys, gib) / 4 * 3);

  // cgroup v2 unlimited: budget falls back to physical RAM.
  { std::ofstream(root + "/memory.max") << "max\n"; }
  EXPECT_EQ(verify::cgroup_memory_limit_bytes(), 0u);
  EXPECT_EQ(verify::default_memory_budget(), phys / 4 * 3);

  // cgroup v1 fallback path.
  ASSERT_EQ(::unlink((root + "/memory.max").c_str()), 0);
  ASSERT_EQ(::mkdir((root + "/memory").c_str(), 0755), 0);
  const std::uint64_t half_gib = gib / 2;
  {
    std::ofstream(root + "/memory/memory.limit_in_bytes") << half_gib << "\n";
  }
  EXPECT_EQ(verify::cgroup_memory_limit_bytes(), half_gib);

  // cgroup v1 spells "no limit" as a near-2^63 page-rounded sentinel.
  {
    std::ofstream(root + "/memory/memory.limit_in_bytes")
        << "9223372036854771712\n";
  }
  EXPECT_EQ(verify::cgroup_memory_limit_bytes(), 0u);

  ASSERT_EQ(unsetenv("SSRING_CGROUP_ROOT"), 0);
  ::unlink((root + "/memory/memory.limit_in_bytes").c_str());
  ::rmdir((root + "/memory").c_str());
  ::rmdir(root.c_str());
}

TEST(PhaseBSelection, CheckerRunHonorsTheBudgetGuard) {
  // End to end: a run with an impossible budget throws the projected-
  // memory error instead of the old hard 2^33 cap, and a sweep-only run
  // (no convergence pass) is exempt.
  auto checker = verify::make_ssrmin_checker(3, 4);
  verify::CheckOptions options;
  options.memory_budget_bytes = 1;  // nothing fits in one byte
  EXPECT_THROW(checker.run(options), std::invalid_argument);
  options.check_convergence = false;
  EXPECT_NO_THROW(checker.run(options));
}

TEST(PhaseBSelection, MeasuredPeakReconcilesWithProjection) {
  // The projection is an upper bound for the mode actually run: measured
  // (resident) peak <= projected peak, for all three slim backends — the
  // spilled stream is disk, not RAM, and must stay out of measured peak.
  // Each mode reports the structures it holds, and only those.
  auto checker = verify::make_ssrmin_checker(4, 5);
  verify::CheckOptions options;
  for (PhaseBStorage storage :
       {PhaseBStorage::kWatchLists, PhaseBStorage::kCsrFree,
        PhaseBStorage::kSpill}) {
    options.storage = storage;
    const verify::CheckReport report = checker.run(options);
    const verify::CheckStats& st = report.stats;
    const char* mode = verify::to_string(storage);
    EXPECT_GT(st.measured_peak_bytes, 0u);
    EXPECT_LE(st.measured_peak_bytes, st.projected_peak_bytes) << mode;
    EXPECT_EQ(st.measured_peak_bytes,
              st.lambda_bytes + st.frontier_bytes + st.fin_bytes +
                  st.wake_bytes + st.list_bytes + st.watch_bytes +
                  st.offsets_bytes + st.heights_bytes + st.move_table_bytes)
        << mode;
    EXPECT_GT(st.edge_count, 0u);
    EXPECT_GT(st.fin_bytes, 0u) << mode;
    EXPECT_EQ(st.move_table_bytes, verify::move_table_bytes(4, 20)) << mode;
    EXPECT_GT(st.rescans, 0u) << mode;
    EXPECT_GE(st.probes, st.rescans) << mode;
    const bool lists = storage == PhaseBStorage::kWatchLists;
    const bool spill = storage == PhaseBStorage::kSpill;
    EXPECT_EQ(st.list_bytes > 0, lists) << mode;
    EXPECT_EQ(st.wake_bytes > 0, lists) << mode;
    EXPECT_EQ(st.watch_bytes > 0, storage == PhaseBStorage::kCsrFree) << mode;
    EXPECT_EQ(st.offsets_bytes > 0, spill) << mode;
    // Only the spill records store edges.
    EXPECT_EQ(st.bytes_per_edge > 0.0, spill) << mode;
    if (spill) {
      EXPECT_GT(st.spill_bytes, 0u);
      EXPECT_GT(st.blocks_read, 0u);
      EXPECT_FALSE(st.spill_path.empty());
    }
  }
}

}  // namespace
