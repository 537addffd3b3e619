// Invariant auditors: structural checks run against a live simulation.
//
// An Auditor inspects one slice of world state (grid geometry, location
// tables, counter conservation) and reports violations instead of crashing,
// so tests can assert both that corrupted worlds are caught and that clean
// worlds stay silent. The AuditRunner (audit_runner.h) composes auditors,
// turns violations into hard failures, and can self-schedule periodically.
//
// The audit library sits between core and harness: it reads protocol state
// through const accessors but never links the harness, so World can own a
// runner. Auditors receive an AuditScope of component pointers rather than a
// World — any subset may be null, and each auditor skips silently when the
// state it audits is absent (e.g. table checks on a non-HLSRG protocol).
#pragma once

#include <string>
#include <vector>

namespace hlsrg {

class Simulator;
class RoadNetwork;
class GridHierarchy;
class MobilityModel;
class LocationService;
class HlsrgService;

// The world slice an audit pass may inspect. All pointers are optional.
struct AuditScope {
  const Simulator* sim = nullptr;
  const RoadNetwork* net = nullptr;
  const GridHierarchy* hierarchy = nullptr;
  const MobilityModel* mobility = nullptr;
  const LocationService* service = nullptr;
  // Set only when the world runs HLSRG; table audits need the agents.
  const HlsrgService* hlsrg = nullptr;
};

// One broken invariant: which auditor found it and what it saw.
struct AuditViolation {
  std::string auditor;
  std::string what;
};

// Violations accumulated across one audit pass.
class AuditReport {
 public:
  void add(std::string auditor, std::string what) {
    violations_.push_back({std::move(auditor), std::move(what)});
  }

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }

  // Multi-line "auditor: what" listing; empty string when clean.
  [[nodiscard]] std::string to_string() const {
    std::string out;
    for (const AuditViolation& v : violations_) {
      out += v.auditor;
      out += ": ";
      out += v.what;
      out += '\n';
    }
    return out;
  }

 private:
  std::vector<AuditViolation> violations_;
};

class Auditor {
 public:
  virtual ~Auditor() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  // Appends a violation to `report` for every invariant found broken; adds
  // nothing when the scope lacks the state this auditor covers.
  virtual void check(const AuditScope& scope, AuditReport* report) const = 0;
};

}  // namespace hlsrg
