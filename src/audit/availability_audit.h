// Query-availability auditor: no query is ever silently lost.
//
// Between any two events, every query the tracker still carries as
// unsettled must have its ACK timer armed. The tracker owns that timer for
// every protocol (HLSRG, RLSMP, FLOOD): a fired timer is disarmed only while
// its callback synchronously either fails the query or arms the next
// attempt, so "unsettled with no timer armed" can only mean a dropped
// continuation. Under fault injection (RSU crashes, partitions) this is the
// invariant that separates "the query failed and we counted it" from "the
// query vanished". On HLSRG worlds the armed attempt must also stay within
// the configured max_attempts.
#pragma once

#include "audit/auditor.h"

namespace hlsrg {

class AvailabilityAuditor final : public Auditor {
 public:
  [[nodiscard]] const char* name() const override { return "availability"; }
  void check(const AuditScope& scope, AuditReport* report) const override;
};

}  // namespace hlsrg
