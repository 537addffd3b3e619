// Tests for the million-entity memory layer (DESIGN.md §15): the one
// expiring table fuzzed against std::map, the open-addressing map's
// tombstone compaction fuzzed against std::unordered_map, the expiry wheel
// against the full-scan eviction predicate, and the flat agent-side
// containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/location_table.h"
#include "net/beacons.h"
#include "sim/expiring_table.h"
#include "util/expiry_wheel.h"
#include "util/flat_table.h"

namespace hlsrg {
namespace {

// SplitMix64: a self-contained deterministic stream for fuzz sequences, so
// these tests never touch the simulator's seeded RNG discipline.
struct Mix64 {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

// --- ExpiringTable ---------------------------------------------------------

L1Record l1_record(std::uint32_t vehicle, SimTime time) {
  L1Record rec;
  rec.vehicle = VehicleId{vehicle};
  rec.time = time;
  return rec;
}

// Reference-model fuzz of record (newest wins) / erase / find / purge /
// snapshot against a std::map keyed the same way. Timestamps jitter up to
// 200 s behind `now`, so some records arrive already expired and some lose
// the newest-wins race; purge() must evict exactly the full-scan set
// (time + expiry < now) even though overwrites leave the wheel's items
// stale and fresh surfaced records re-arm.
template <typename Rec, auto KeyField>
void fuzz_against_std_map(std::uint64_t seed) {
  using Table = ExpiringTable<Rec, KeyField>;
  using Key = typename Table::Key;
  Table table;
  std::map<Key, Rec> model;
  Mix64 rng{seed};
  SimTime now = SimTime::from_sec(300.0);
  const SimTime expiry = SimTime::from_sec(132.0);
  const auto expect_same = [](const Rec& got, const Rec& want) {
    EXPECT_EQ(got.*KeyField, want.*KeyField);
    EXPECT_EQ(got.time.us(), want.time.us());
    EXPECT_EQ(got.pos.x, want.pos.x);
  };
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t r = rng.next();
    const Key key{static_cast<std::uint32_t>(r % 400)};
    const std::uint64_t op = (r >> 32) % 20;
    if (op < 10) {
      Rec rec{};
      rec.*KeyField = key;
      rec.time = now - SimTime::from_us(
                           static_cast<std::int64_t>(rng.next() % 200000000));
      rec.pos = Vec2{static_cast<double>(step), 0.0};
      table.record(rec);
      const auto it = model.find(key);
      if (it == model.end()) {
        model.emplace(key, rec);
      } else if (it->second.time < rec.time) {
        it->second = rec;
      }
    } else if (op < 13) {
      ASSERT_EQ(table.erase(key), model.erase(key) == 1);
    } else if (op < 18) {
      const Rec* got = table.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(got != nullptr, it != model.end());
      if (got != nullptr) expect_same(*got, it->second);
    } else {
      now = now + SimTime::from_sec(5.0);
      std::size_t expired = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (it->second.time + expiry < now) {
          it = model.erase(it);
          ++expired;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(table.purge(now, expiry), expired) << "step " << step;
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    if (step % 1000 == 999) {
      // snapshot() is key-sorted, so it must mirror the model's iteration.
      const std::vector<Rec> snap = table.snapshot();
      ASSERT_EQ(snap.size(), model.size());
      std::size_t i = 0;
      for (const auto& [k, rec] : model) expect_same(snap[i++], rec);
    }
  }
}

TEST(ExpiringTableTest, FuzzMatchesStdMapForL1Records) {
  fuzz_against_std_map<L1Record, &L1Record::vehicle>(1234);
}

TEST(ExpiringTableTest, FuzzMatchesStdMapForBeaconEntries) {
  fuzz_against_std_map<BeaconService::Entry, &BeaconService::Entry::node>(21);
}

TEST(ExpiringTableTest, ReleaseReturnsAllMemoryAndTheTableStaysUsable) {
  L1Table table;
  for (std::uint32_t k = 0; k < 1000; ++k) {
    table.record(l1_record(k, SimTime::from_sec(1.0)));
  }
  EXPECT_GT(table.bytes(), 0u);
  table.release();
  EXPECT_TRUE(table.empty());
  // Unlike clear(), release() returns the records, index, and wheel.
  EXPECT_EQ(table.bytes(), 0u);
  table.record(l1_record(42, SimTime::from_sec(2.0)));
  ASSERT_NE(table.find(VehicleId{std::uint32_t{42}}), nullptr);
  EXPECT_EQ(table.find(VehicleId{std::uint32_t{42}})->time.us(), 2000000);
  // A released-then-small table pays a small table's bytes, not its old
  // 1000-record peak.
  EXPECT_LT(table.bytes(), 2048u);
}

TEST(ExpiringTableTest, UnsortedRecordsIsAPermutationOfSnapshot) {
  L1Table table;
  Mix64 rng{5};
  for (int i = 0; i < 700; ++i) {
    table.record(l1_record(static_cast<std::uint32_t>(rng.next() % 900),
                           SimTime::from_us(static_cast<std::int64_t>(
                               rng.next() % 1000000))));
  }
  for (int i = 0; i < 300; ++i) {
    table.erase(VehicleId{static_cast<std::uint32_t>(rng.next() % 900)});
  }
  const auto keys = [](const std::vector<L1Record>& recs) {
    std::vector<std::uint32_t> out;
    for (const L1Record& r : recs) out.push_back(r.vehicle.value());
    return out;
  };
  std::vector<std::uint32_t> dense = keys(table.unsorted_records());
  const std::vector<std::uint32_t> sorted = keys(table.snapshot());
  ASSERT_EQ(dense.size(), table.size());
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  std::sort(dense.begin(), dense.end());
  EXPECT_EQ(dense, sorted);
}

// --- OpenAddressMap --------------------------------------------------------

TEST(OpenAddressMapTest, EraseChurnFuzzMatchesUnorderedMap) {
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> model;
  Mix64 rng{99};
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = r % 300;
    switch ((r >> 40) % 3) {
      case 0: {
        const auto value = static_cast<std::uint32_t>(step);
        // find_or_insert keeps an existing value, like emplace.
        map.find_or_insert(key, value);
        model.emplace(key, value);
        break;
      }
      case 1:
        EXPECT_EQ(map.erase(key), model.erase(key) == 1);
        break;
      default: {
        const std::uint32_t* found = map.find(key);
        const auto it = model.find(key);
        ASSERT_EQ(found != nullptr, it != model.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), model.size());
  }
}

TEST(OpenAddressMapTest, TombstoneChurnCompactsInsteadOfGrowing) {
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  for (std::uint64_t k = 0; k < 64; ++k) map.find_or_insert(k, 0);
  // Steady-state population under heavy insert+erase churn with
  // never-repeating keys: every erase leaves a tombstone on a fresh slot.
  std::size_t warm_capacity = 0;
  for (std::uint64_t round = 0; round < 10000; ++round) {
    map.find_or_insert(1000 + round, 1);
    EXPECT_TRUE(map.erase(1000 + round));
    if (round == 100) warm_capacity = map.capacity();
  }
  EXPECT_EQ(map.size(), 64u);
  // The occupancy trigger must compact tombstones in place, not double the
  // table forever (the pre-PR-10 map leaked dead slots into the load).
  EXPECT_LE(map.capacity(), warm_capacity);
  // And the live entries all survived the compactions.
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_NE(map.find(k), nullptr);
}

TEST(OpenAddressMapTest, ExtremeKeysAreOrdinary) {
  // No reserved sentinel key: 0 and ~0 behave like any other bit pattern
  // (slot liveness lives in the state array, not in the key).
  OpenAddressMap<std::uint64_t, std::uint32_t> map;
  map.find_or_insert(0, 1);
  map.find_or_insert(~std::uint64_t{0}, 2);
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(0), nullptr);
  EXPECT_EQ(*map.find(0), 1u);
  ASSERT_NE(map.find(~std::uint64_t{0}), nullptr);
  EXPECT_EQ(*map.find(~std::uint64_t{0}), 2u);
  EXPECT_TRUE(map.erase(0));
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_NE(map.find(~std::uint64_t{0}), nullptr);
}

// --- ExpiryWheel -----------------------------------------------------------

TEST(ExpiryWheelTest, DrainMatchesFullScanPredicate) {
  // The wheel must evict exactly the full-scan set {time < cutoff}, across
  // bucket boundaries and with out-of-order notes (handoff merges backfill
  // old timestamps).
  ExpiryWheel wheel;
  std::vector<std::pair<std::uint64_t, std::int64_t>> pending;
  Mix64 rng{7};
  for (int round = 1; round <= 40; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t key = rng.next() % 1000;
      const std::int64_t time =
          static_cast<std::int64_t>(rng.next() % 5000000) +
          static_cast<std::int64_t>(round) * 2000000;
      wheel.note(key, time);
      pending.emplace_back(key, time);
    }
    const std::int64_t cutoff = static_cast<std::int64_t>(round) * 2000000;
    std::vector<std::pair<std::uint64_t, std::int64_t>> drained;
    wheel.drain(cutoff, [&](std::uint64_t key, std::int64_t time) {
      drained.emplace_back(key, time);
    });
    std::vector<std::pair<std::uint64_t, std::int64_t>> expected;
    std::vector<std::pair<std::uint64_t, std::int64_t>> survivors;
    for (const auto& item : pending) {
      (item.second < cutoff ? expected : survivors).push_back(item);
    }
    std::sort(drained.begin(), drained.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(drained, expected) << "round " << round;
    pending = std::move(survivors);
    ASSERT_EQ(wheel.pending(), pending.size());
  }
}

// --- SmallFlatMap / SortedIdSet -------------------------------------------

TEST(SmallFlatMapTest, InsertFindEraseMatchesMap) {
  SmallFlatMap<std::uint32_t, int> map;
  std::map<std::uint32_t, int> model;
  Mix64 rng{3};
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t r = rng.next();
    const auto key = static_cast<std::uint32_t>(r % 40);
    if ((r >> 32) % 2 == 0) {
      map[key] = step;
      model[key] = step;
    } else {
      EXPECT_EQ(map.erase(key), model.erase(key) == 1);
    }
    ASSERT_EQ(map.size(), model.size());
    for (const auto& [k, v] : model) {
      const int* got = map.find(k);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, v);
    }
  }
}

TEST(SmallFlatMapTest, OperatorIndexDefaultInserts) {
  SmallFlatMap<std::uint32_t, int> map;
  EXPECT_EQ(map[9], 0);
  EXPECT_EQ(map.size(), 1u);
  map[9] = 4;
  EXPECT_EQ(map[9], 4);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.contains(9));
  EXPECT_FALSE(map.contains(8));
}

TEST(SortedIdSetTest, InsertReportsNoveltyAndContainsAgrees) {
  SortedIdSet<std::uint64_t> set;
  EXPECT_TRUE(set.insert(10));
  EXPECT_TRUE(set.insert(5));
  EXPECT_TRUE(set.insert(20));
  EXPECT_FALSE(set.insert(10));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(10));
  EXPECT_TRUE(set.contains(20));
  EXPECT_FALSE(set.contains(11));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains(5));
}

// --- bytes() accounting ----------------------------------------------------

TEST(MemoryAccountingTest, TableBytesGrowWithPopulation) {
  L1Table table;
  const std::size_t empty_bytes = table.bytes();
  for (std::uint32_t i = 0; i < 5000; ++i) {
    L1Record rec;
    rec.vehicle = VehicleId{i};
    rec.time = SimTime::from_sec(1.0);
    table.record(rec);
  }
  EXPECT_GT(table.bytes(), empty_bytes);
  // 5000 records must account for at least their payload bytes.
  EXPECT_GE(table.bytes(), 5000 * sizeof(L1Record));
}

}  // namespace
}  // namespace hlsrg
