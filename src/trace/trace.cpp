#include "trace/trace.h"

#include <cstdio>

namespace hlsrg {
namespace {

// Fixed-precision float -> string that is byte-stable across platforms: the
// C locale may use ',' as the decimal separator, so normalize it back to
// '.' after formatting.
std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  for (char* p = buf; *p != '\0'; ++p) {
    if (*p == ',') *p = '.';
  }
  return buf;
}

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kUpdate:
      return "update";
    case SpanKind::kNotification:
      return "notification";
    case SpanKind::kAckLeg:
      return "ack_leg";
    case SpanKind::kGpsrRoute:
      return "gpsr_route";
    case SpanKind::kRadioHop:
      return "radio_hop";
    case SpanKind::kWiredHop:
      return "wired_hop";
    case SpanKind::kTableLookup:
      return "table_lookup";
    case SpanKind::kRetry:
      return "retry";
    case SpanKind::kFailover:
      return "failover";
    case SpanKind::kBatch:
      return "batch";
    case SpanKind::kCacheHit:
      return "cache_hit";
    case SpanKind::kShed:
      return "shed";
    case SpanKind::kTablePush:
      return "table_push";
    case SpanKind::kTableHandoff:
      return "table_handoff";
  }
  return "unknown";
}

const char* span_status_name(SpanStatus status) {
  switch (status) {
    case SpanStatus::kOpen:
      return "open";
    case SpanStatus::kOk:
      return "ok";
    case SpanStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

SpanId TraceLog::begin_span(Span span, SimTime begin) {
  if (spans_.size() >= max_spans_) {
    ++dropped_spans_;
    return kNoSpan;
  }
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.status = SpanStatus::kOpen;
  span.begin = begin;
  span.end = begin;
  spans_.push_back(span);
  if (span.query_id != kNoQuery) query_spans_[span.query_id].push_back(span.id);
  return span.id;
}

void TraceLog::end_span(SpanId id, SimTime end, SpanStatus status,
                        Vec2 end_pos, std::int32_t value) {
  if (id == kNoSpan || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  if (s.status != SpanStatus::kOpen) return;  // first close wins
  s.status = status;
  s.end = end;
  s.end_pos = end_pos;
  if (value >= 0) s.value = value;
}

void TraceLog::end_open_spans_for_query(std::uint32_t query_id, SimTime end,
                                        SpanStatus status) {
  const auto it = query_spans_.find(query_id);
  if (it == query_spans_.end()) return;
  for (SpanId id : it->second) {
    Span& s = spans_[id - 1];
    if (s.status != SpanStatus::kOpen) continue;
    s.status = status;
    s.end = end;
    s.end_pos = s.begin_pos;
  }
}

std::vector<Span> TraceLog::spans_for_query(std::uint32_t query_id) const {
  std::vector<Span> out;
  const auto it = query_spans_.find(query_id);
  if (it == query_spans_.end()) return out;
  out.reserve(it->second.size());
  for (SpanId id : it->second) out.push_back(spans_[id - 1]);
  return out;
}

namespace {

// children[p] lists the spans whose parent is p (0 = the roots), in begin
// order; a span whose parent id is not in the log is in no list.
using ChildLists = std::vector<std::vector<const Span*>>;

void append_span_line(std::string& out, const ChildLists& children,
                      const Span& s, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += span_kind_name(s.kind);
  out += " [";
  out += span_status_name(s.status);
  out += "] ";
  out += format_fixed(s.begin.sec(), 6);
  out += "s -> ";
  out += format_fixed(s.end.sec(), 6);
  out += 's';
  if (s.subject != kNoQuery) {
    out += " subject=";
    out += std::to_string(s.subject);
  }
  if (s.other != kNoQuery) {
    out += " other=";
    out += std::to_string(s.other);
  }
  if (s.query_id != kNoQuery) {
    out += " query=";
    out += std::to_string(s.query_id);
  }
  if (s.level >= 0) {
    out += " level=";
    out += std::to_string(s.level);
  }
  if (s.value != 0) {
    out += " value=";
    out += std::to_string(s.value);
  }
  if (s.detail != nullptr) {
    out += " detail=";
    out += s.detail;
  }
  out += '\n';
  for (const Span* child : children[s.id]) {
    append_span_line(out, children, *child, depth + 1);
  }
}

}  // namespace

std::string TraceLog::span_tree_text() const {
  ChildLists children(spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent <= spans_.size()) children[s.parent].push_back(&s);
  }
  std::string out;
  for (const Span* root : children[kNoSpan]) {
    append_span_line(out, children, *root, 0);
  }
  return out;
}

}  // namespace hlsrg
