#include "trace/hb_graph.hpp"

namespace lazyhb::trace {

std::string describeEvent(const TraceRecorder& recorder, std::int32_t index) {
  const runtime::EventRecord& ev = recorder.eventRecord(index);
  // Built by appending: GCC 12's -Wrestrict misfires on the inlined
  // `"T" + std::to_string(...)` concatenation in Release builds.
  std::string out = "T";
  out += std::to_string(ev.threadIndex);
  out += '.';
  out += runtime::opKindName(ev.kind);
  if (ev.objectUid != 0) {
    out += '(';
    out += recorder.objectName(ev.objectUid);
    if (ev.mutexUid != 0) {
      out += ',';
      out += recorder.objectName(ev.mutexUid);
    }
    out += ')';
  }
  if (ev.kind == runtime::OpKind::TryLock) {
    out += ev.aux == 1 ? "=ok" : "=busy";
  }
  return out;
}

std::string renderSchedule(const TraceRecorder& recorder, Relation r) {
  std::string out;
  const auto n = static_cast<std::int32_t>(recorder.eventCount());
  for (std::int32_t i = 0; i < n; ++i) {
    out += '[';
    const std::string idx = std::to_string(i);
    for (std::size_t pad = idx.size(); pad < 3; ++pad) out += ' ';
    out += idx;
    out += "] ";
    out += describeEvent(recorder, i);
    std::string edges;
    for (const std::int32_t p : recorder.eventPredecessors(r, i)) {
      if (recorder.eventRecord(p).threadIndex != recorder.eventRecord(i).threadIndex) {
        if (!edges.empty()) edges += ", ";
        edges += std::to_string(p);
      }
    }
    if (!edges.empty()) {
      out += "   <- {";
      out += edges;
      out += '}';
    }
    out += '\n';
  }
  return out;
}

std::string renderDot(const TraceRecorder& recorder, Relation r) {
  std::string out = "digraph hbr {\n  rankdir=TB;\n  node [shape=box,fontname=\"monospace\"];\n";
  const auto n = static_cast<std::int32_t>(recorder.eventCount());
  for (std::int32_t i = 0; i < n; ++i) {
    out += "  e";
    out += std::to_string(i);
    out += " [label=\"";
    out += describeEvent(recorder, i);
    out += "\"];\n";
  }
  for (std::int32_t i = 0; i < n; ++i) {
    for (const std::int32_t p : recorder.eventPredecessors(r, i)) {
      const bool inter =
          recorder.eventRecord(p).threadIndex != recorder.eventRecord(i).threadIndex;
      out += "  e";
      out += std::to_string(p);
      out += " -> e";
      out += std::to_string(i);
      if (inter) out += " [color=red,penwidth=2]";
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

int interThreadEdgeCount(const TraceRecorder& recorder, Relation r) {
  int count = 0;
  const auto n = static_cast<std::int32_t>(recorder.eventCount());
  for (std::int32_t i = 0; i < n; ++i) {
    for (const std::int32_t p : recorder.eventPredecessors(r, i)) {
      if (recorder.eventRecord(p).threadIndex != recorder.eventRecord(i).threadIndex) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace lazyhb::trace
