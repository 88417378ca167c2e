#include "agree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "metrics.hpp"
#include "stats.hpp"

namespace spmvopt::e2e {

using report::Json;

Expected<Json> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Error(ErrorCategory::Io, "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto doc = Json::parse(text.str());
  if (!doc.ok())
    return Error(ErrorCategory::Format, path + ": " + doc.error().to_string());
  return doc;
}

const char* verdict_name(Verdict v) noexcept {
  switch (v) {
    case Verdict::Within: return "within";
    case Verdict::Worse: return "worse";
    case Verdict::Unresolved: return "unresolved";
  }
  return "?";
}

Expected<std::vector<Bound>> bounds_from(const Json& benchmark) {
  const Json* list = benchmark.find("end_to_end");
  if (list == nullptr || !list->is_array())
    return Error(ErrorCategory::Format, "BENCHMARK.json: no end_to_end list");
  std::vector<Bound> out;
  for (const Json& m : list->items()) {
    const Json* name = m.find("name");
    const Json* bound = m.find("bound");
    const Json* better = m.find("better");
    if (name == nullptr || !name->is_string() || bound == nullptr ||
        !bound->is_number() || better == nullptr || !better->is_string())
      return Error(ErrorCategory::Format, "BENCHMARK.json: malformed end_to_end entry");
    out.push_back({name->as_string(), bound->as_number(),
                   better->as_string() == "higher"});
  }
  return out;
}

std::vector<Bound> per_verb_bounds() {
  std::vector<Bound> out;
  for (const MetricSpec& m : catalogue())
    if (m.kind == MetricKind::PerVerb) out.push_back({m.name, m.bound, m.higher_is_better});
  return out;
}

Verdict judge(const std::vector<double>& a, const std::vector<double>& b,
              const Bound& bound) {
  if (bound.bound == 0.0) {  // absolute: worse when a run of B is worse than every run of A
    const double worst_a = bound.higher_is_better ? *std::min_element(a.begin(), a.end())
                                                  : *std::max_element(a.begin(), a.end());
    const bool worse = bound.higher_is_better
                           ? *std::min_element(b.begin(), b.end()) < worst_a
                           : *std::max_element(b.begin(), b.end()) > worst_a;
    return worse ? Verdict::Worse : Verdict::Within;
  }
  const double med_a = median_of(a);
  const double med_b = median_of(b);
  const double spread = std::max(relative_spread(a), relative_spread(b));
  if (spread > bound.bound) {
    const bool all_better =
        bound.higher_is_better
            ? *std::min_element(b.begin(), b.end()) > *std::max_element(a.begin(), a.end())
            : *std::max_element(b.begin(), b.end()) < *std::min_element(a.begin(), a.end());
    return all_better ? Verdict::Within : Verdict::Unresolved;
  }
  const double worse = bound.higher_is_better ? med_a - med_b : med_b - med_a;
  if (med_a == 0.0) return worse > 0.0 ? Verdict::Worse : Verdict::Within;
  return worse / std::abs(med_a) > bound.bound ? Verdict::Worse : Verdict::Within;
}

namespace {

/// Per workload: its document count and, per metric, one value per document
/// and whether any document measured it on no sample at all (the workload
/// does not produce it).
struct Runs {
  std::size_t docs = 0;
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, bool> unmeasured;
};
using Grouped = std::map<std::string, Runs>;

Expected<Grouped> group(const std::vector<Json>& docs) {
  Grouped g;
  for (const Json& d : docs) {
    const Json* schema = d.find("schema");
    const Json* workload = d.find("workload");
    const Json* metrics = d.find("metrics");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != "spmvopt-e2e/v1" || workload == nullptr ||
        !workload->is_string() || metrics == nullptr || !metrics->is_object())
      return Error(ErrorCategory::Format, "not an spmvopt-e2e/v1 document");
    Runs& runs = g[workload->as_string()];
    ++runs.docs;
    for (const auto& [name, m] : metrics->members()) {
      const Json* v = m.find("value");
      const Json* n = m.find("samples");
      if (v != nullptr && v->is_number()) runs.values[name].push_back(v->as_number());
      if (n != nullptr && n->is_number() && n->as_number() == 0.0)
        runs.unmeasured[name] = true;
    }
  }
  return g;
}

bool is_traced(const Json& doc) {
  const Json* t = doc.find("trace");
  return t != nullptr && t->is_bool() && t->as_bool();
}

bool traced(const std::vector<Json>& docs) {
  return !docs.empty() && std::all_of(docs.begin(), docs.end(), is_traced);
}

/// One side's runs: a baseline bundle ({"runs": [...]}) expands into its
/// documents, and a side holding untraced runs is judged on those alone.
std::vector<Json> runs_of(const std::vector<Json>& loaded) {
  std::vector<Json> runs;
  for (const Json& doc : loaded) {
    const Json* bundle = doc.find("runs");
    if (bundle != nullptr && bundle->is_array())
      runs.insert(runs.end(), bundle->items().begin(), bundle->items().end());
    else
      runs.push_back(doc);
  }
  if (!traced(runs)) std::erase_if(runs, is_traced);
  return runs;
}

}  // namespace

Expected<std::vector<AgreeRow>> compare(const std::vector<Json>& a,
                                        const std::vector<Json>& b,
                                        const std::vector<Bound>& bounds) {
  auto ga = group(a);
  if (!ga.ok()) return ga.error();
  auto gb = group(b);
  if (!gb.ok()) return gb.error();
  std::vector<AgreeRow> rows;
  for (const auto& [workload, ra] : ga.value()) {
    const auto it = gb.value().find(workload);
    if (it == gb.value().end()) continue;
    const Runs& rb = it->second;
    for (const Bound& bound : bounds) {
      const auto va = ra.values.find(bound.name);
      const auto vb = rb.values.find(bound.name);
      if (va == ra.values.end() || vb == rb.values.end() ||
          va->second.size() != ra.docs || vb->second.size() != rb.docs)
        return Error(ErrorCategory::Format,
                     workload + ": a document lacks " + bound.name);
      if (ra.unmeasured.contains(bound.name) || rb.unmeasured.contains(bound.name))
        continue;
      AgreeRow row{workload, bound.name, va->second, vb->second, Verdict::Within};
      row.verdict = judge(row.a, row.b, bound);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

int agree_main(const std::vector<std::string>& args) {
  std::string benchmark = "BENCHMARK.json";
  std::vector<std::string> side_a, side_b;
  bool second = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--benchmark" && i + 1 < args.size()) {
      benchmark = args[++i];
    } else if (args[i] == "--") {
      second = true;
    } else {
      (second ? side_b : side_a).push_back(args[i]);
    }
  }
  if (side_a.empty() || side_b.empty()) {
    std::fprintf(stderr,
                 "usage: spmvopt_bench agree [--benchmark BENCHMARK.json] "
                 "A.json... -- B.json...\n");
    return 64;
  }
  const auto load_all = [](const std::vector<std::string>& paths,
                           std::vector<Json>& out) -> bool {
    for (const std::string& p : paths) {
      auto doc = load_json(p);
      if (!doc.ok()) {
        std::fprintf(stderr, "agree: %s\n", doc.error().to_string().c_str());
        return false;
      }
      out.push_back(std::move(doc.value()));
    }
    return true;
  };
  std::vector<Json> docs_a, docs_b;
  auto bench = load_json(benchmark);
  if (!bench.ok()) {
    std::fprintf(stderr, "agree: %s\n", bench.error().to_string().c_str());
    return 65;
  }
  auto bounds = bounds_from(bench.value());
  if (!bounds.ok() || !load_all(side_a, docs_a) || !load_all(side_b, docs_b)) {
    if (!bounds.ok()) std::fprintf(stderr, "agree: %s\n", bounds.error().to_string().c_str());
    return 65;
  }
  for (Bound& b : per_verb_bounds()) bounds.value().push_back(std::move(b));
  docs_a = runs_of(docs_a);
  docs_b = runs_of(docs_b);
  auto rows = compare(docs_a, docs_b, bounds.value());
  if (!rows.ok()) {
    std::fprintf(stderr, "agree: %s\n", rows.error().to_string().c_str());
    return 65;
  }

  const bool overhead = traced(docs_a) != traced(docs_b);
  if (overhead)
    std::printf("tracing overhead (%s side traced): change of the median\n",
                traced(docs_b) ? "B" : "A");
  std::printf("%-14s %-18s %5s %12s %12s %12s   %5s %12s %12s %12s  %s\n",
              "workload", "metric", "n_a", "q1_a", "median_a", "q3_a", "n_b",
              "q1_b", "median_b", "q3_b", overhead ? "overhead" : "verdict");
  bool any_worse = false;
  for (const AgreeRow& row : rows.value()) {
    const auto qa = quartiles(row.a);
    const auto qb = quartiles(row.b);
    char tail[64];
    if (overhead) {
      const double base = traced(docs_a) ? qb[1] : qa[1];
      const double traced_med = traced(docs_a) ? qa[1] : qb[1];
      std::snprintf(tail, sizeof tail, "%+.1f%%",
                    base != 0.0 ? 100.0 * (traced_med - base) / base : 0.0);
    } else {
      std::snprintf(tail, sizeof tail, "%s", verdict_name(row.verdict));
      any_worse = any_worse || row.verdict == Verdict::Worse;
    }
    std::printf("%-14s %-18s %5zu %12.6g %12.6g %12.6g   %5zu %12.6g %12.6g %12.6g  %s\n",
                row.workload.c_str(), row.metric.c_str(), row.a.size(), qa[0],
                qa[1], qa[2], row.b.size(), qb[0], qb[1], qb[2], tail);
  }
  return any_worse ? 1 : 0;
}

}  // namespace spmvopt::e2e
