#include "obs/report.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "theory/bounds.hpp"
#include "util/table.hpp"
#include "util/workload.hpp"

namespace mcb::obs {

namespace {

/// Ten intensity levels; index 0 renders as '.' only for nonzero values so
/// "no activity at all" stays visually blank.
constexpr const char kLevels[] = ".:-=+*#%@@";

double num_or(const util::JsonValue& obj, const std::string& key,
              double fallback) {
  const auto* v = obj.find(key);
  if (v == nullptr || v->kind() != util::JsonValue::Kind::kNumber) {
    return fallback;
  }
  return v->as_number();
}

std::string str_or(const util::JsonValue& obj, const std::string& key,
                   const std::string& fallback) {
  const auto* v = obj.find(key);
  if (v == nullptr || v->kind() != util::JsonValue::Kind::kString) {
    return fallback;
  }
  return v->as_string();
}

std::uint64_t uint_of(double v) {
  return v < 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

util::Shape shape_from_string(const std::string& s) {
  if (s == "zipf") return util::Shape::kZipf;
  if (s == "onehot") return util::Shape::kOneHot;
  if (s == "random") return util::Shape::kRandom;
  if (s == "staircase") return util::Shape::kStaircase;
  return util::Shape::kEven;
}

util::Table::Cell ratio_cell(double measured, double bound) {
  if (bound <= 0.0) return util::Table::txt("n/a");
  return util::Table::num(measured / bound, 2);
}

void fenced(std::ostringstream& os, const std::string& body) {
  os << "```\n" << body << "```\n";
}

void phases_section(std::ostringstream& os, const util::JsonValue& stats) {
  const auto* phases = stats.find("phases");
  if (phases == nullptr || !phases->is_array() || phases->size() == 0) return;
  const double total_cycles = num_or(stats, "cycles", 0.0);
  const double total_messages = num_or(stats, "messages", 0.0);
  os << "\n## Phases\n\n";
  util::Table t;
  t.header({"phase", "first cycle", "cycles", "cyc %", "messages", "msg %"});
  for (const auto& ph : phases->items()) {
    const double cyc = num_or(ph, "cycles", 0.0);
    const double msg = num_or(ph, "messages", 0.0);
    t.row({util::Table::txt(str_or(ph, "name", "?")),
           util::Table::num(uint_of(num_or(ph, "first_cycle", 0.0))),
           util::Table::num(uint_of(cyc)),
           total_cycles > 0.0 ? util::Table::num(100.0 * cyc / total_cycles, 1)
                              : util::Table::txt("n/a"),
           util::Table::num(uint_of(msg)),
           total_messages > 0.0
               ? util::Table::num(100.0 * msg / total_messages, 1)
               : util::Table::txt("n/a")});
  }
  t.row({util::Table::txt("TOTAL"), util::Table::num(0),
         util::Table::num(uint_of(total_cycles)), util::Table::num(100.0, 1),
         util::Table::num(uint_of(total_messages)),
         util::Table::num(100.0, 1)});
  fenced(os, t.str());
}

void spans_section(std::ostringstream& os, const util::JsonValue& doc) {
  const auto* obs = doc.find("obs");
  if (obs == nullptr) return;
  const auto* spans = obs->find("spans");
  if (spans == nullptr || !spans->is_array() || spans->size() == 0) return;
  os << "\n## Spans\n\n";
  util::Table t;
  t.header({"span", "count", "cycles", "messages"});
  for (const auto& s : spans->items()) {
    t.row({util::Table::txt(str_or(s, "name", "?")),
           util::Table::num(uint_of(num_or(s, "count", 0.0))),
           util::Table::num(uint_of(num_or(s, "cycles", 0.0))),
           util::Table::num(uint_of(num_or(s, "messages", 0.0)))});
  }
  fenced(os, t.str());
}

void timeline_section(std::ostringstream& os, const util::JsonValue& doc,
                      double total_cycles) {
  const auto* obs = doc.find("obs");
  if (obs == nullptr) return;
  const auto* tl = obs->find("timeline");
  if (tl == nullptr || !tl->is_object()) return;
  const auto* channels = tl->find("channels");
  if (channels == nullptr || !channels->is_array()) return;

  os << "\n## Channel utilization\n\n";
  os << "bucket width " << uint_of(num_or(*tl, "bucket_cycles", 1.0))
     << " cycles; busy " << uint_of(num_or(*tl, "busy_cycles", 0.0))
     << " / idle " << uint_of(num_or(*tl, "idle_cycles", 0.0))
     << " cycles\n\n";
  util::Table t;
  t.header({"channel", "writes", "write %", "timeline"});
  for (std::size_t c = 0; c < channels->size(); ++c) {
    const auto& ch = channels->at(c);
    const double writes = num_or(ch, "writes", 0.0);
    std::vector<double> buckets;
    const auto* bs = ch.find("buckets");
    if (bs != nullptr && bs->is_array()) {
      for (const auto& b : bs->items()) buckets.push_back(b.as_number());
    }
    std::string label = "C";
    label += std::to_string(c + 1);
    t.row({util::Table::txt(std::move(label)),
           util::Table::num(uint_of(writes)),
           total_cycles > 0.0
               ? util::Table::num(100.0 * writes / total_cycles, 1)
               : util::Table::txt("n/a"),
           util::Table::txt(spark(buckets))});
  }
  fenced(os, t.str());
}

void theory_section(std::ostringstream& os, const util::JsonValue& doc,
                    const util::JsonValue& stats, bool selection) {
  const auto* config = doc.find("config");
  if (config == nullptr || !config->is_object()) return;
  const auto n = static_cast<std::size_t>(num_or(*config, "n", 0.0));
  const auto p = static_cast<std::size_t>(num_or(*config, "p", 0.0));
  const auto k = static_cast<std::size_t>(num_or(*config, "k", 0.0));
  if (n == 0 || p == 0 || k == 0) return;
  const auto seed =
      static_cast<std::uint64_t>(num_or(*config, "seed", 1.0));
  const auto shape = shape_from_string(str_or(*config, "shape", "even"));
  const auto sizes = util::cardinalities(n, p, shape, seed);

  const double cycles = num_or(stats, "cycles", 0.0);
  const double messages = num_or(stats, "messages", 0.0);

  os << "\n## Measured vs theory\n\n";
  util::Table t;
  t.header({"quantity", "measured", "bound", "ratio"});
  if (selection) {
    const auto d = static_cast<std::size_t>(
        num_or(*config, "rank", static_cast<double>((n + 1) / 2)));
    const double msg_lower = theory::selection_messages_lower(sizes);
    const double cyc_lower = theory::selection_cycles_lower(sizes, k);
    const double msg_term = theory::selection_messages_term(p, k, n);
    const double cyc_term = theory::selection_cycles_term(p, k, n);
    t.row({util::Table::txt("messages vs Thm 1 lower"),
           util::Table::num(uint_of(messages)),
           util::Table::num(msg_lower, 1), ratio_cell(messages, msg_lower)});
    t.row({util::Table::txt("messages vs Thm 2 lower (rank " +
                            std::to_string(d) + ")"),
           util::Table::num(uint_of(messages)),
           util::Table::num(theory::selection_messages_lower_rank(sizes, d),
                            1),
           ratio_cell(messages,
                      theory::selection_messages_lower_rank(sizes, d))});
    t.row({util::Table::txt("cycles vs Cor 1/2 lower"),
           util::Table::num(uint_of(cycles)), util::Table::num(cyc_lower, 1),
           ratio_cell(cycles, cyc_lower)});
    t.row({util::Table::txt("messages vs Cor 7 Theta term"),
           util::Table::num(uint_of(messages)), util::Table::num(msg_term, 1),
           ratio_cell(messages, msg_term)});
    t.row({util::Table::txt("cycles vs Cor 7 Theta term"),
           util::Table::num(uint_of(cycles)), util::Table::num(cyc_term, 1),
           ratio_cell(cycles, cyc_term)});
  } else {
    std::size_t n_max = 0;
    for (std::size_t s : sizes) n_max = std::max(n_max, s);
    const double msg_lower = theory::sorting_messages_lower(sizes);
    const double cyc_lower = theory::sorting_cycles_lower(sizes, k);
    const double msg_term = theory::sorting_messages_term(n);
    const double cyc_term = theory::sorting_cycles_term(n, k, n_max);
    t.row({util::Table::txt("messages vs Thm 3 lower"),
           util::Table::num(uint_of(messages)),
           util::Table::num(msg_lower, 1), ratio_cell(messages, msg_lower)});
    t.row({util::Table::txt("cycles vs Cor 3/Thm 5 lower"),
           util::Table::num(uint_of(cycles)), util::Table::num(cyc_lower, 1),
           ratio_cell(cycles, cyc_lower)});
    t.row({util::Table::txt("messages vs Cor 6 Theta term"),
           util::Table::num(uint_of(messages)), util::Table::num(msg_term, 1),
           ratio_cell(messages, msg_term)});
    t.row({util::Table::txt("cycles vs Cor 6 Theta term"),
           util::Table::num(uint_of(cycles)), util::Table::num(cyc_term, 1),
           ratio_cell(cycles, cyc_term)});
  }
  fenced(os, t.str());
}

/// The "Host profile" section: the document's top-level `host` member
/// (present only on documents captured with --profile).
void host_section(std::ostringstream& os, const util::JsonValue& doc) {
  const auto* host = doc.find("host");
  if (host == nullptr || !host->is_object()) return;
  os << "\n## Host profile\n\n"
     << "Host telemetry, outside the determinism contract (`mcbsim "
        "strip-host` removes every `host` member).\n\n"
     << host_markdown(*host);
}

std::string run_report(const util::JsonValue& doc) {
  const auto& stats = doc.at("stats");
  const bool selection = doc.find("filter_phases") != nullptr;
  const std::string algorithm =
      str_or(doc, "algorithm", selection ? "selection" : "?");

  std::ostringstream os;
  os << "# mcbsim run report\n\n";
  os << "- algorithm: `" << algorithm << "`\n";
  if (const auto* config = doc.find("config");
      config != nullptr && config->is_object()) {
    os << "- network: MCB(p=" << uint_of(num_or(*config, "p", 0.0))
       << ", k=" << uint_of(num_or(*config, "k", 0.0))
       << "), n=" << uint_of(num_or(*config, "n", 0.0)) << ", shape="
       << str_or(*config, "shape", "even") << ", seed="
       << uint_of(num_or(*config, "seed", 1.0)) << "\n";
  }
  os << "- cycles: " << uint_of(num_or(stats, "cycles", 0.0)) << "\n";
  os << "- messages: " << uint_of(num_or(stats, "messages", 0.0)) << "\n";
  os << "- peak aux words: "
     << uint_of(num_or(stats, "peak_aux_words", 0.0)) << "\n";
  if (selection) {
    os << "- selected value: " << uint_of(num_or(doc, "value", 0.0))
       << " after " << uint_of(num_or(doc, "filter_phases", 0.0))
       << " filtering phase(s)\n";
  }

  phases_section(os, stats);
  spans_section(os, doc);
  timeline_section(os, doc, num_or(stats, "cycles", 0.0));
  theory_section(os, doc, stats, selection);
  host_section(os, doc);
  return os.str();
}

std::string sweep_report(const util::JsonValue& doc) {
  const auto& header = doc.at("sweep");
  const auto& trials = doc.at("trials");
  const auto& aggregates = doc.at("aggregates");

  std::size_t failed = 0;
  for (const auto& trial : trials.items()) {
    if (!str_or(trial, "error", "").empty()) ++failed;
  }

  std::ostringstream os;
  os << "# mcbsim sweep report\n\n";
  os << "- engine: " << str_or(header, "engine", "?") << ", base seed "
     << uint_of(num_or(header, "base_seed", 0.0)) << ", "
     << uint_of(num_or(header, "seeds", 0.0)) << " seed(s) per point\n";
  os << "- grid points: " << aggregates.size()
     << ", trials: " << trials.size() << ", failed: " << failed << "\n";

  os << "\n## Aggregates\n\n";
  util::Table t;
  t.header({"p", "k", "n", "shape", "algorithm", "trials", "failed",
            "cyc mean", "cyc p95", "msg mean", "msg p95", "cyc/pred",
            "msg/pred"});
  for (const auto& agg : aggregates.items()) {
    t.row({util::Table::num(uint_of(num_or(agg, "p", 0.0))),
           util::Table::num(uint_of(num_or(agg, "k", 0.0))),
           util::Table::num(uint_of(num_or(agg, "n", 0.0))),
           util::Table::txt(str_or(agg, "shape", "?")),
           util::Table::txt(str_or(agg, "algorithm", "?")),
           util::Table::num(uint_of(num_or(agg, "trials", 0.0))),
           util::Table::num(uint_of(num_or(agg, "failed", 0.0))),
           util::Table::num(num_or(agg.at("cycles"), "mean", 0.0), 1),
           util::Table::num(num_or(agg.at("cycles"), "p95", 0.0), 0),
           util::Table::num(num_or(agg.at("messages"), "mean", 0.0), 1),
           util::Table::num(num_or(agg.at("messages"), "p95", 0.0), 0),
           util::Table::num(num_or(agg, "cycles_vs_predicted", 0.0), 2),
           util::Table::num(num_or(agg, "messages_vs_predicted", 0.0), 2)});
  }
  fenced(os, t.str());

  if (failed > 0) {
    os << "\n## Failed trials\n\n";
    for (const auto& trial : trials.items()) {
      const auto err = str_or(trial, "error", "");
      if (err.empty()) continue;
      os << "- trial " << uint_of(num_or(trial, "trial", 0.0)) << " (p="
         << uint_of(num_or(trial, "p", 0.0)) << ", k="
         << uint_of(num_or(trial, "k", 0.0)) << ", "
         << str_or(trial, "algorithm", "?") << "): " << err << "\n";
    }
  }

  // Cross-trial span aggregation (present when the sweep ran with --obs).
  std::vector<std::string> names;
  std::vector<std::uint64_t> counts, cycles, messages;
  for (const auto& trial : trials.items()) {
    const auto* spans = trial.find("spans");
    if (spans == nullptr || !spans->is_array()) continue;
    for (const auto& s : spans->items()) {
      const auto name = str_or(s, "name", "?");
      std::size_t idx = names.size();
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name) {
          idx = i;
          break;
        }
      }
      if (idx == names.size()) {
        names.push_back(name);
        counts.push_back(0);
        cycles.push_back(0);
        messages.push_back(0);
      }
      counts[idx] += uint_of(num_or(s, "count", 0.0));
      cycles[idx] += uint_of(num_or(s, "cycles", 0.0));
      messages[idx] += uint_of(num_or(s, "messages", 0.0));
    }
  }
  if (!names.empty()) {
    os << "\n## Spans (all trials)\n\n";
    util::Table st;
    st.header({"span", "count", "cycles", "messages"});
    for (std::size_t i = 0; i < names.size(); ++i) {
      st.row({util::Table::txt(names[i]), util::Table::num(counts[i]),
              util::Table::num(cycles[i]), util::Table::num(messages[i])});
    }
    fenced(os, st.str());
  }
  return os.str();
}

std::string serve_report(const util::JsonValue& doc) {
  std::ostringstream os;
  os << "# mcbsim serving report\n\n";
  if (const auto* config = doc.find("config");
      config != nullptr && config->is_object()) {
    os << "- network: MCB(p=" << uint_of(num_or(*config, "p", 0.0))
       << ", k=" << uint_of(num_or(*config, "k", 0.0))
       << "), resident n=" << uint_of(num_or(*config, "n", 0.0))
       << ", seed=" << uint_of(num_or(*config, "seed", 1.0)) << "\n";
    os << "- stream: " << uint_of(num_or(*config, "queries", 0.0))
       << " queries, batch<=" << uint_of(num_or(*config, "batch", 0.0))
       << "\n";
  }
  os << "- batches (selection runs): "
     << uint_of(num_or(doc, "batches", 0.0)) << "\n";
  os << "- total simulated cycles: "
     << uint_of(num_or(doc, "total_cycles", 0.0)) << "\n";
  os << "- total messages: "
     << uint_of(num_or(doc, "total_messages", 0.0)) << "\n";
  os << "- churn ops: " << uint_of(num_or(doc, "churn_ops", 0.0))
     << ", filtering phases: "
     << uint_of(num_or(doc, "filter_phases", 0.0)) << "\n";
  os << "- cycles/query: " << num_or(doc, "cycles_per_query", 0.0)
     << ", queries/kcycle: " << num_or(doc, "queries_per_kcycle", 0.0)
     << "\n";

  if (const auto* classes = doc.find("classes");
      classes != nullptr && classes->is_array() && classes->size() > 0) {
    os << "\n## Per-class latency\n\n";
    util::Table t;
    t.header({"class", "ops", "answered", "p50", "p95", "p99",
              "max cycles"});
    for (const auto& cl : classes->items()) {
      const auto* h = cl.find("latency_cycles");
      const bool has = h != nullptr && h->is_object();
      t.row({util::Table::txt(str_or(cl, "name", "?")),
             util::Table::num(uint_of(num_or(cl, "ops", 0.0))),
             has ? util::Table::num(uint_of(num_or(*h, "count", 0.0)))
                 : util::Table::num(0),
             has ? util::Table::num(num_or(*h, "p50", 0.0), 0)
                 : util::Table::txt("n/a"),
             has ? util::Table::num(num_or(*h, "p95", 0.0), 0)
                 : util::Table::txt("n/a"),
             has ? util::Table::num(num_or(*h, "p99", 0.0), 0)
                 : util::Table::txt("n/a"),
             has ? util::Table::num(uint_of(num_or(*h, "max", 0.0)))
                 : util::Table::txt("n/a")});
    }
    fenced(os, t.str());
  }

  // Batch summary: regroup the answered query stream by the flush that
  // answered it (churn ops carry no "batch" member and are skipped).
  if (const auto* queries = doc.find("queries");
      queries != nullptr && queries->is_array()) {
    std::vector<std::uint64_t> ids, counts, latencies;
    for (const auto& q : queries->items()) {
      const auto* b = q.find("batch");
      if (b == nullptr || b->kind() != util::JsonValue::Kind::kNumber) {
        continue;
      }
      const auto id = uint_of(b->as_number());
      std::size_t idx = ids.size();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] == id) {
          idx = i;
          break;
        }
      }
      if (idx == ids.size()) {
        ids.push_back(id);
        counts.push_back(0);
        latencies.push_back(uint_of(num_or(q, "latency_cycles", 0.0)));
      }
      ++counts[idx];
    }
    if (!ids.empty()) {
      os << "\n## Batch summary\n\n";
      util::Table t;
      t.header({"batch", "queries", "run cycles"});
      for (std::size_t i = 0; i < ids.size(); ++i) {
        t.row({util::Table::num(ids[i]), util::Table::num(counts[i]),
               util::Table::num(latencies[i])});
      }
      fenced(os, t.str());
    }
  }

  host_section(os, doc);
  return os.str();
}

}  // namespace

std::string spark(const std::vector<double>& values) {
  double maxv = 0.0;
  for (double v : values) maxv = std::max(maxv, v);
  std::string out;
  out.reserve(values.size());
  for (double v : values) {
    if (v <= 0.0 || maxv <= 0.0) {
      out.push_back(' ');
      continue;
    }
    const auto level = static_cast<std::size_t>(
        std::floor(v / maxv * 9.0));
    out.push_back(kLevels[level > 9 ? 9 : level]);
  }
  return out;
}

std::string host_markdown(const util::JsonValue& host) {
  std::ostringstream os;
  for (const auto& [name, value] : host.members()) {
    os << "- " << name << ':';
    if (value.is_object()) {
      for (const auto& [key, v] : value.members()) {
        os << ' ' << key << '=' << util::json_serialize(v);
      }
    } else if (value.is_array()) {
      for (const auto& v : value.items()) os << ' ' << util::json_serialize(v);
    } else {
      os << ' ' << util::json_serialize(value);
    }
    os << '\n';
  }
  return os.str();
}

std::string report_markdown(const util::JsonValue& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("report input is not a JSON object");
  }
  if (doc.find("trials") != nullptr && doc.find("aggregates") != nullptr) {
    return sweep_report(doc);
  }
  if (doc.find("batches") != nullptr && doc.find("churn_ops") != nullptr) {
    return serve_report(doc);
  }
  if (doc.find("stats") != nullptr) {
    return run_report(doc);
  }
  throw std::invalid_argument(
      "unrecognized document: expected mcbsim sort/select --json output "
      "(a \"stats\" object), sweep --json output (\"trials\" + "
      "\"aggregates\"), or serve --json output (\"batches\" + "
      "\"churn_ops\")");
}

}  // namespace mcb::obs
