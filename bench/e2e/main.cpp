// spmvopt_bench: the repository's end-to-end benchmark (see README.md).
//
//   spmvopt_bench --workload W [--seed S] [--seconds N] [--trace 0|1]
//                 [--out FILE] [--work-dir DIR] [--smoke]
//   spmvopt_bench agree [--benchmark BENCHMARK.json] A.json... -- B.json...
//   spmvopt_bench smoke --benchmark BENCHMARK.json [--work-dir DIR]
//
// A run prints each metric by name with its unit and sample count, writes
// the spmvopt-e2e/v1 document to --out, and ends its standard output with
// one JSON line: {"correct", "attempted", "failed", "metrics"}.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "agree.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace spmvopt;
using namespace spmvopt::e2e;
using report::Json;

int usage() {
  std::fprintf(stderr,
               "usage: spmvopt_bench --workload cg-dram|pagerank-rmat|serve-hot|"
               "serve-churn [--seed S] [--seconds N] [--trace 0|1] [--out FILE]\n"
               "                     [--work-dir DIR] [--smoke]\n"
               "       spmvopt_bench agree [--benchmark BENCHMARK.json] A.json... "
               "-- B.json...\n"
               "       spmvopt_bench smoke --benchmark BENCHMARK.json "
               "[--work-dir DIR]\n");
  return 64;
}

int run_main(const std::vector<std::string>& args) {
  RunOptions opt;
  std::string out;
  bool have_workload = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= args.size()) return usage();
    const std::string& v = args[++i];
    char* end = nullptr;
    if (a == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return usage();
      opt.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (!(opt.seconds > 0.0)) return usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
    } else if (a == "--out") {
      out = v;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (!have_workload) return usage();

  try {
    const Result r = run_workload(opt);
    if (!out.empty()) {
      std::ofstream f(out);
      f << r.document().dump();
      if (!f) {
        std::fprintf(stderr, "spmvopt_bench: cannot write %s\n", out.c_str());
        return 73;
      }
    }
    std::printf("%s%s\n", r.human().c_str(), r.summary_line().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spmvopt_bench: %s: %s\n", workload_name(opt.workload),
                 e.what());
    return 70;
  }
}

/// Run this binary as a child and wait for it; its exit status.
int spawn_self(const std::vector<std::string>& args, const std::string& log) {
  std::vector<char*> argv;
  std::string self = "/proc/self/exe";
  argv.push_back(self.data());
  std::vector<std::string> copy = args;
  for (std::string& a : copy) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Every workload at smoke size, untraced and traced, each in its own
/// process: exit 0, every catalogue metric in the document, no failed
/// operation, a well-formed final line — and BENCHMARK.json listing exactly
/// the catalogue.
int smoke_main(const std::vector<std::string>& args) {
  std::string benchmark, dir = ".";
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    if (args[i] == "--benchmark") benchmark = args[i + 1];
    else if (args[i] == "--work-dir") dir = args[i + 1];
    else return usage();
  }
  if (benchmark.empty() || args.size() % 2 != 0) return usage();
  int problems = 0;
  const auto problem = [&](const std::string& what) {
    std::fprintf(stderr, "smoke: %s\n", what.c_str());
    ++problems;
  };

  auto bench = load_json(benchmark);
  if (!bench.ok()) {
    problem(bench.error().to_string());
    return 1;
  }
  std::vector<const MetricSpec*> listed;
  for (const char* key : {"end_to_end", "per_layer"}) {
    const Json* list = bench.value().find(key);
    if (list == nullptr || !list->is_array()) {
      problem(std::string("BENCHMARK.json has no ") + key);
      continue;
    }
    for (const Json& m : list->items()) {
      const Json* name = m.find("name");
      const Json* unit = m.find("unit");
      const MetricSpec* spec =
          name != nullptr && name->is_string() ? find_metric(name->as_string()) : nullptr;
      if (spec == nullptr || unit == nullptr || !unit->is_string() ||
          unit->as_string() != spec->unit ||
          (spec->kind == MetricKind::EndToEnd) != (std::string(key) == "end_to_end"))
        problem(std::string(key) + " entry does not match the catalogue");
      listed.push_back(spec);
    }
  }
  if (listed.size() != catalogue().size()) problem("BENCHMARK.json and the catalogue differ in length");

  for (Workload w : kWorkloads) {
    for (const char* trace : {"0", "1"}) {
      const std::string stem = dir + "/smoke-" + workload_name(w) + "-" + trace;
      const int rc = spawn_self({"--workload", workload_name(w), "--smoke",
                                 "--seconds", "0.3", "--trace", trace, "--out",
                                 stem + ".json", "--work-dir", dir},
                                stem + ".log");
      if (rc != 0) {
        problem(stem + ": exit " + std::to_string(rc));
        continue;
      }
      auto doc = load_json(stem + ".json");
      if (!doc.ok()) {
        problem(doc.error().to_string());
        continue;
      }
      const Json* metrics = doc.value().find("metrics");
      for (const MetricSpec& m : catalogue())
        if ((m.kind != MetricKind::Layer || trace[0] == '1') &&
            (metrics == nullptr || metrics->find(m.name) == nullptr))
          problem(stem + ": no metric " + m.name);
      const Json* rate = metrics != nullptr ? metrics->find("error_rate") : nullptr;
      rate = rate != nullptr ? rate->find("value") : nullptr;
      if (rate == nullptr || !rate->is_number() || rate->as_number() != 0.0)
        problem(stem + ": error_rate is not 0");

      std::ifstream log(stem + ".log");
      std::string line, last;
      while (std::getline(log, line))
        if (!line.empty()) last = line;
      auto summary = Json::parse(last);
      if (!summary.ok() || !summary.value().is_object() ||
          summary.value().members().size() != 4 ||
          summary.value().find("correct") == nullptr ||
          summary.value().find("attempted") == nullptr ||
          summary.value().find("failed") == nullptr ||
          summary.value().find("metrics") == nullptr)
        problem(stem + ": malformed final line");
    }
  }
  std::printf("smoke: %d problem(s)\n", problems);
  return problems == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "agree")
    return agree_main({args.begin() + 1, args.end()});
  if (!args.empty() && args[0] == "smoke")
    return smoke_main({args.begin() + 1, args.end()});
  return run_main(args);
}
