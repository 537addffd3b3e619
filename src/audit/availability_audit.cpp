#include "audit/availability_audit.h"

#include <string>

#include "core/hlsrg_service.h"
#include "core/location_service.h"

namespace hlsrg {

void AvailabilityAuditor::check(const AuditScope& scope,
                                AuditReport* report) const {
  if (scope.service == nullptr) return;
  const QueryTracker& tracker = scope.service->tracker();
  const std::size_t n = tracker.count();
  for (QueryTracker::QueryId id = 0; id < n; ++id) {
    if (tracker.settled(id)) continue;
    if (!tracker.armed(id)) {
      report->add(name(), "query " + std::to_string(id) +
                              " unsettled with no timer armed at vehicle " +
                              std::to_string(tracker.source_of(id).value()) +
                              " (silently lost)");
      continue;
    }
    // The retry bound is HLSRG's config; RLSMP and FLOOD arm fixed attempts.
    if (scope.hlsrg == nullptr) continue;
    const int max_attempts = scope.hlsrg->cfg().max_attempts;
    if (tracker.attempt(id) > max_attempts) {
      report->add(name(), "query " + std::to_string(id) + " on attempt " +
                              std::to_string(tracker.attempt(id)) +
                              " > max_attempts " +
                              std::to_string(max_attempts));
    }
  }
}

}  // namespace hlsrg
