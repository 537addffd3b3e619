// Location tables with per-level schemas and freshness expiry (paper 2.2.2).
//
// L1 tables live on vehicles dwelling at grid centers and hold full records;
// L2/L3 tables live on RSUs and hold thinning summaries. All tables evict
// entries whose last update is older than the level's expiry (2.2 min for
// L1/L2, 4.4 min for L3 — "about 1000 m" / "about 2000 m" of driving).
//
// The three levels are ExpiringTable instances keyed by vehicle (see
// sim/expiring_table.h): newest-wins record(), O(1) find/erase, and
// wheel-driven purge with the full-scan eviction predicate. snapshot() is
// the canonical key-sorted view used for wire payloads and digests;
// unsorted_records() is the cheap bulk view for role handoffs, where the
// receiver thins and re-keys every record anyway.
#pragma once

#include "core/messages.h"
#include "sim/expiring_table.h"

namespace hlsrg {

// L1: full records, keyed by vehicle.
using L1Table = ExpiringTable<L1Record>;

// L2: {vehicle, time, sender L1 grid}.
using L2Table = ExpiringTable<L2Summary>;

// L3: {vehicle, time, sender L2 RSU, owning L3 region}.
using L3Table = ExpiringTable<L3Summary>;

}  // namespace hlsrg
