// One expiring keyed table for every protocol (paper 2.2.2).
//
// Every table in the simulator is the same shape: records keyed by an id,
// the newest timestamp wins, and entries older than an expiry are evicted.
// HLSRG's L1/L2/L3 tables, RLSMP's cell and cluster tables, the FLOOD
// cache and the HELLO neighbor tables all instantiate ExpiringTable.
//
// Records live densely in one std::vector<Rec>; erase swap-pops the last
// record into the hole. An OpenAddressMap indexes them by the key's 32-bit
// TaggedId value, so record/find/erase are O(1). Expiry runs off an
// ExpiryWheel armed once per live record (on insert, re-armed lazily at
// purge time when a surfaced record turns out fresh), so a purge costs
// O(surfaced items) instead of O(table). The live record's timestamp
// always decides eviction with the full-scan predicate (time + expiry <
// now), so eviction sets and times are those of a full scan.
//
// Iteration (begin/end) is in dense insertion-and-erase order:
// deterministic, but not sorted. snapshot() is the canonical key-sorted
// view for digests and order-sensitive consumers; unsorted_records() is
// the cheap bulk view for payloads the receiver merges newest-wins.
//
// Record pointers from find() are valid only until the next record(),
// merge(), erase(), purge() or clear() on the same table: growth
// reallocates the vector and erase moves one record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/expiry_wheel.h"
#include "util/flat_table.h"

namespace hlsrg {

// Rec must be trivially copyable and expose a `SimTime time` member; the
// key is the TaggedId member named by KeyField.
template <typename Rec, auto KeyField = &Rec::vehicle>
class ExpiringTable {
  static_assert(std::is_trivially_copyable_v<Rec>);

 public:
  using Key = std::remove_cvref_t<decltype(std::declval<const Rec&>().*KeyField)>;
  using const_iterator = typename std::vector<Rec>::const_iterator;

  // Inserts `rec`, or overwrites the record under its key if `rec` is
  // strictly newer. Only an insert arms the wheel: updates just advance the
  // live timestamp, and purge() re-arms fresh records when their item
  // surfaces. That keeps the wheel at ~one item per live record instead of
  // one per update.
  void record(const Rec& rec) {
    const std::uint32_t key = key_of(rec);
    std::uint32_t& slot = index_.find_or_insert(key, kNoSlot);
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(records_.size());
      records_.push_back(rec);
      wheel_.note(key, rec.time.us());
      return;
    }
    Rec& cur = records_[slot];
    if (cur.time < rec.time) cur = rec;
  }

  void merge(std::span<const Rec> records) {
    for (const Rec& r : records) record(r);
  }

  // Removes the record under `key`; returns true if it existed. Its wheel
  // item goes stale and drops at drain time.
  bool erase(Key key) {
    const std::uint32_t* slot = index_.find(key.value());
    if (slot == nullptr) return false;
    const std::uint32_t hole = *slot;
    index_.erase(key.value());
    if (hole + 1 != records_.size()) {
      records_[hole] = records_.back();
      *index_.find(key_of(records_[hole])) = hole;
    }
    records_.pop_back();
    return true;
  }

  [[nodiscard]] const Rec* find(Key key) const {
    const std::uint32_t* slot = index_.find(key.value());
    return slot == nullptr ? nullptr : &records_[*slot];
  }

  // Evicts records older than `expiry` relative to `now`; returns count.
  // An item surfaces when the cutoff passes the time it was armed at; the
  // LIVE record's timestamp then decides. A record's armed time never
  // exceeds its live time, so `live < cutoff` implies its item surfaces in
  // the same drain. Fresh records re-arm at their current timestamp
  // (outside the drain: note() mutates the bucket list); erased keys'
  // stale items simply drop.
  std::size_t purge(SimTime now, SimTime expiry) {
    const std::int64_t cutoff = (now - expiry).us();
    std::size_t purged = 0;
    rearm_.clear();
    wheel_.drain(cutoff, [&](std::uint64_t key, std::int64_t /*armed*/) {
      const Key k{static_cast<std::uint32_t>(key)};
      const Rec* rec = find(k);
      if (rec == nullptr) return;
      if (rec->time.us() < cutoff) {
        erase(k);
        ++purged;
      } else {
        rearm_.push_back(ExpiryWheel::Item{key, rec->time.us()});
      }
    });
    for (const ExpiryWheel::Item& it : rearm_) wheel_.note(it.key, it.time);
    return purged;
  }

  // Canonical key-sorted copy (digests, order-sensitive consumers).
  [[nodiscard]] std::vector<Rec> snapshot() const {
    std::vector<Rec> out = records_;
    std::sort(out.begin(), out.end(), [](const Rec& a, const Rec& b) {
      return a.*KeyField < b.*KeyField;
    });
    return out;
  }

  // Copy in dense order: no sort (payloads merged newest-wins on receipt).
  [[nodiscard]] std::vector<Rec> unsorted_records() const { return records_; }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  // Drops every record; keeps capacity for reuse.
  void clear() {
    records_.clear();
    index_.clear();
    wheel_.clear();
  }

  // clear() plus returning all capacity to the OS, for tables whose duty
  // has ended (an ex-center vehicle, an ex-leader, a demoted RSU role). At
  // scale most agents are ex-holders, so keeping peak capacity "for reuse"
  // would dominate bytes-per-vehicle.
  void release() {
    records_ = std::vector<Rec>{};
    index_.release();
    wheel_.release();
    rearm_ = std::vector<ExpiryWheel::Item>{};
  }

  // Heap footprint: record array + key index + pending wheel items.
  [[nodiscard]] std::size_t bytes() const {
    return records_.capacity() * sizeof(Rec) + index_.bytes() +
           wheel_.bytes();
  }

  [[nodiscard]] const_iterator begin() const { return records_.begin(); }
  [[nodiscard]] const_iterator end() const { return records_.end(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  static std::uint32_t key_of(const Rec& rec) {
    return (rec.*KeyField).value();
  }

  std::vector<Rec> records_;
  OpenAddressMap<std::uint32_t, std::uint32_t> index_;
  ExpiryWheel wheel_;
  std::vector<ExpiryWheel::Item> rearm_;  // reused purge scratch
};

}  // namespace hlsrg
