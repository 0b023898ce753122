#include "obs/export.hpp"

#include <sstream>
#include <vector>

#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "util/json.hpp"

namespace mcb::obs {

namespace {

constexpr int kSpanPid = 1;
constexpr int kChannelPid = 2;

void meta_event(std::ostream& os, int pid, const char* key,
                const std::string& value) {
  os << "    {\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": 1, \"name\": \""
     << key << "\", \"args\": {\"name\": \"" << util::json_escape(value)
     << "\"}}";
}

/// Emits record `idx` and its children depth-first: B, children, E. The
/// records vector is in begin order, so children always follow parents;
/// scanning forward from idx+1 finds them in chronological order.
void emit_span(std::ostream& os, const std::vector<SpanRecord>& records,
               std::size_t idx, bool& first) {
  const SpanRecord& rec = records[idx];
  if (!rec.closed) return;
  os << (first ? "" : ",\n");
  first = false;
  os << "    {\"ph\": \"B\", \"pid\": " << kSpanPid
     << ", \"tid\": 1, \"ts\": " << rec.begin_cycle << ", \"name\": \""
     << util::json_escape(rec.name)
     << "\", \"cat\": \"span\", \"args\": {\"messages_at_begin\": "
     << rec.begin_messages << "}}";
  for (std::size_t j = idx + 1; j < records.size(); ++j) {
    if (records[j].parent == idx) emit_span(os, records, j, first);
  }
  os << ",\n    {\"ph\": \"E\", \"pid\": " << kSpanPid
     << ", \"tid\": 1, \"ts\": " << rec.end_cycle
     << ", \"args\": {\"cycles\": " << rec.cycles()
     << ", \"messages\": " << rec.messages() << "}}";
}

}  // namespace

std::string chrome_trace_json(const RunStats& stats, const SimConfig& cfg,
                              const Recorder* spans, const Timeline* timeline) {
  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\"p\": "
     << cfg.p << ", \"k\": " << cfg.k << ", \"cycles\": " << stats.cycles
     << ", \"messages\": " << stats.messages;
  if (timeline != nullptr) {
    os << ", \"bucket_cycles\": " << timeline->bucket_cycles();
  }
  os << "},\n  \"traceEvents\": [\n";

  bool first = true;
  if (spans != nullptr && !spans->records().empty()) {
    meta_event(os, kSpanPid, "process_name", "phase spans");
    first = false;
    const auto& records = spans->records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].depth == 0) emit_span(os, records, i, first);
    }
  }

  if (timeline != nullptr) {
    if (!first) os << ",\n";
    meta_event(os, kChannelPid, "process_name", "channels");
    first = false;
    const Cycle width = timeline->bucket_cycles();
    const auto& buckets = timeline->buckets();
    for (std::size_t c = 0; c < timeline->k(); ++c) {
      std::string track = "C";
      track += std::to_string(c + 1);
      track += " writes";
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        os << ",\n    {\"ph\": \"C\", \"pid\": " << kChannelPid
           << ", \"tid\": 1, \"ts\": " << static_cast<Cycle>(b) * width
           << ", \"name\": \"" << util::json_escape(track)
           << "\", \"args\": {\"writes\": " << buckets[b].writes[c] << "}}";
      }
      // Terminal zero sample so the counter area closes at run end.
      os << ",\n    {\"ph\": \"C\", \"pid\": " << kChannelPid
         << ", \"tid\": 1, \"ts\": "
         << static_cast<Cycle>(buckets.size()) * width << ", \"name\": \""
         << util::json_escape(track) << "\", \"args\": {\"writes\": 0}}";
    }
  }

  os << "\n  ]\n}\n";
  return os.str();
}

std::string run_stats_json(const RunStats& stats) {
  std::ostringstream os;
  os << "{\"cycles\":" << stats.cycles << ",\"messages\":" << stats.messages
     << ",\"peak_aux_words\":" << stats.max_peak_aux()
     << ",\"proc_resumes\":" << stats.proc_resumes << ",\"phases\":[";
  for (std::size_t i = 0; i < stats.phases.size(); ++i) {
    const auto& ph = stats.phases[i];
    if (i) os << ',';
    os << "{\"name\":\"" << util::json_escape(ph.name)
       << "\",\"first_cycle\":" << ph.first_cycle
       << ",\"cycles\":" << ph.cycles << ",\"messages\":" << ph.messages
       << '}';
  }
  os << "]}";
  return os.str();
}

std::string host_stats_json(const RunStats& stats) {
  std::ostringstream os;
  os << "{\"sim_wall_ns\":" << stats.sim_wall_ns
     << ",\"cycles_per_sec\":" << util::json_double(stats.cycles_per_sec)
     << ",\"frame_allocs\":" << stats.frame_allocs
     << ",\"frame_bytes\":" << stats.frame_bytes << '}';
  return os.str();
}

}  // namespace mcb::obs
