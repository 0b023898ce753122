// Deterministic Markdown run reports from mcbsim's machine-readable output.
//
// `mcbsim report <run.json|sweep.json>` feeds a previously captured
// --json document back through this renderer: phase tables, span
// aggregates, per-channel utilization sparklines (from the --obs timeline)
// and measured-vs-theory ratios recomputed from src/theory. Host telemetry
// lives only in a document's top-level `host` member (present with
// --profile) and only its "Host profile" section reads it, so the report of
// a plain document is byte-identical across repetitions, engines and sweep
// thread counts (tools/ci.sh cmp's two independent invocations to pin this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace mcb::obs {

/// ASCII sparkline of `values` scaled to [0, max(values)], one character
/// per value (10 intensity levels, ' ' = zero). Deterministic.
std::string spark(const std::vector<double>& values);

/// Renders the Markdown report for a parsed mcbsim --json document: either
/// a single run (sort/select) or a sweep. Throws std::invalid_argument when
/// the document is neither.
std::string report_markdown(const util::JsonValue& doc);

/// Renders a `host` member as Markdown bullets, one per member in document
/// order: `- name: value`, an object as `key=value` pairs and an array as
/// its space-separated items. The one renderer of host telemetry — the
/// report's "Host profile" section and mcbsim's `--profile` text output.
std::string host_markdown(const util::JsonValue& host);

}  // namespace mcb::obs
