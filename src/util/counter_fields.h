// Field tables for plain counter structs.
//
// A counter struct (RunMetrics, RegionCounters) names each std::uint64_t
// counter once, in an X-macro list. The list expands into the struct's
// members and into a constexpr table of CounterField entries; merge, JSON
// and digest code loop over the table instead of repeating the names, so a
// new counter is one list line and no consumer can miss it.
#pragma once

#include <algorithm>
#include <cstdint>

namespace hlsrg {

// How replicas combine a counter: kSum adds event counts, kMax keeps the
// larger value (high-water marks, run-wide markers such as a plan digest).
enum class MergeRule : std::uint8_t { kSum, kMax };

template <class Owner>
struct CounterField {
  const char* name;  // member name, also the JSON key
  std::uint64_t Owner::*member;
  MergeRule merge;
};

// Expands one list entry into its member declaration; extra columns (merge
// rule, digest group) are ignored.
#define HLSRG_COUNTER_MEMBER(name, ...) std::uint64_t name = 0;

// Merges every counter in `fields` from `from` into `into` by its rule.
template <class Owner, class Fields>
void merge_counters(Owner& into, const Owner& from, const Fields& fields) {
  for (const auto& f : fields) {
    std::uint64_t& a = into.*f.member;
    const std::uint64_t b = from.*f.member;
    a = f.merge == MergeRule::kMax ? std::max(a, b) : a + b;
  }
}

}  // namespace hlsrg
