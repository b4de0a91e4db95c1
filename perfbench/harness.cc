// Campaign benchmark harness: runs the study's jobs in-process through the
// public eval API — Tables 3/4 (`mutation_hunt --threads N`), the fault
// campaigns (`--faults`), the Table 2 spec campaign (`--spec-campaign`) and
// the shard `--merge` path — checks every job's output, and prints every
// metric by name with its unit as one JSON line.
//
//   perfbench_harness --workload W --seed N --seconds S --trace {0,1}
//                     --table metrics.json --expected-dir DIR
//                     [--trace-out FILE]
//   perfbench_harness --record --table metrics.json --expected-dir DIR
//   perfbench_harness --list-corpus-metrics
//   perfbench_harness --selftest-shim
//
// `--trace 0` measures the end-to-end metrics with no instrumentation.
// `--trace 1` is a separate run that installs the counting device shim,
// enables the library's stage histograms, records spans around the calls
// it makes into each layer and prints the per-layer metrics. README.md in
// this directory explains every workload and metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "devil/lexer.h"
#include "devil/parser.h"
#include "devil/sema.h"
#include "eval/campaign_spec.h"
#include "eval/merge.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "eval/spec_campaign.h"
#include "mutation/c_mutator.h"
#include "mutation/devil_mutator.h"
#include "probe.h"
#include "support/json_io.h"
#include "support/metrics.h"
#include "support/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

constexpr uint64_t kDefaultSeed = 20010325;
constexpr unsigned kShards = 3;
const char* const kLabels[2] = {"C", "CDevil"};

enum class Workload { kTables34, kFaults, kSpecs, kMerge };

const std::vector<std::pair<std::string, Workload>>& workloads() {
  static const std::vector<std::pair<std::string, Workload>> all = {
      {"tables34", Workload::kTables34},
      {"faults", Workload::kFaults},
      {"specs", Workload::kSpecs},
      {"merge", Workload::kMerge},
  };
  return all;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string read_file(const std::string& path, bool* found = nullptr) {
  std::ifstream in(path, std::ios::binary);
  if (found != nullptr) *found = static_cast<bool>(in);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Metric key of a Table 2 spec: its file name without ".dil".
std::string spec_key(const corpus::SpecEntry& e) {
  std::string k = e.file;
  if (k.size() > 4 && k.compare(k.size() - 4, 4, ".dil") == 0) {
    k.resize(k.size() - 4);
  }
  return k;
}

// --- set-up -------------------------------------------------------------------

struct DriverPair {
  std::string device;
  eval::DeviceCampaignConfigs cfgs;
};

struct FaultPair {
  std::string device;
  eval::DeviceFaultConfigs cfgs;
};

/// Everything a job needs that set-up derives once: the campaign configs
/// (corpus stubs compiled), and for `merge` the three shard bundles of each
/// of the Tables 3/4 and fault runs.
struct Prepared {
  std::vector<DriverPair> drivers;
  std::vector<FaultPair> faults;
  eval::SpecCampaignConfig spec_config;
  std::vector<eval::ShardBundle> driver_bundles;
  std::vector<eval::ShardBundle> fault_bundles;
};

eval::CampaignSpec campaign_spec(eval::CampaignKind kind, uint64_t seed) {
  eval::CampaignSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  auto diags = eval::validate_campaign_spec(spec);
  if (!diags.empty()) throw std::runtime_error(diags.front());
  return spec;
}

Prepared prepare(Workload w, uint64_t seed, bool count_ports,
                 unsigned setup_threads) {
  Prepared p;
  auto wrap = [count_ports](eval::DeviceBinding& b) {
    if (count_ports) b.make_device = perfbench::counting_factory(b.make_device);
  };
  if (w == Workload::kTables34 || w == Workload::kMerge) {
    auto spec = campaign_spec(eval::CampaignKind::kDriver, seed);
    for (const auto& d : eval::campaign_spec_corpus(spec)) {
      DriverPair pair{d.device, eval::driver_configs_for(spec, d)};
      wrap(pair.cfgs.c.device);
      wrap(pair.cfgs.cdevil.device);
      p.drivers.push_back(std::move(pair));
    }
  }
  if (w == Workload::kFaults || w == Workload::kMerge) {
    auto spec = campaign_spec(eval::CampaignKind::kFault, seed);
    for (const auto& d : eval::campaign_spec_corpus(spec)) {
      FaultPair pair{d.device, eval::fault_configs_for(spec, d)};
      wrap(pair.cfgs.c.base.device);
      wrap(pair.cfgs.cdevil.base.device);
      p.faults.push_back(std::move(pair));
    }
  }
  if (w == Workload::kSpecs) {
    p.spec_config = eval::spec_campaign_config_for(
        campaign_spec(eval::CampaignKind::kSpec, seed));
    // The Table 2 corpus needs no stubs; its set-up is checking that every
    // unmutated spec passes the Devil compiler (the campaign's precondition).
    for (const corpus::SpecEntry& e : corpus::all_specs()) {
      if (!devil::check_spec(e.file, e.text).ok()) {
        throw std::runtime_error("corpus spec " + e.name +
                                 " fails the Devil compiler");
      }
    }
  }
  if (w == Workload::kMerge) {
    for (unsigned i = 1; i <= kShards; ++i) {
      const eval::ShardSpec shard{i, kShards};
      eval::ShardBundle db;
      eval::ShardBundle fb;
      db.shard = fb.shard = shard;
      for (const DriverPair& pair : p.drivers) {
        eval::DriverCampaignConfig c = pair.cfgs.c;
        eval::DriverCampaignConfig d = pair.cfgs.cdevil;
        c.threads = d.threads = setup_threads;
        db.campaigns.push_back(eval::run_campaign_shard(c, "C", shard));
        db.campaigns.push_back(eval::run_campaign_shard(d, "CDevil", shard));
      }
      for (const FaultPair& pair : p.faults) {
        eval::FaultCampaignConfig c = pair.cfgs.c;
        eval::FaultCampaignConfig d = pair.cfgs.cdevil;
        c.base.threads = d.base.threads = setup_threads;
        fb.fault_campaigns.push_back(
            eval::run_fault_campaign_shard(c, "C", shard));
        fb.fault_campaigns.push_back(
            eval::run_fault_campaign_shard(d, "CDevil", shard));
      }
      p.driver_bundles.push_back(std::move(db));
      p.fault_bundles.push_back(std::move(fb));
    }
  }
  return p;
}

// --- jobs ---------------------------------------------------------------------

/// Deterministic counters a job's results expose; the traced run turns them
/// into per-layer metrics.
struct Facts {
  uint64_t steps = 0;           // sum of records[].steps
  uint64_t executed_steps = 0;  // steps of records that booted, + baselines
  uint64_t budget_boots = 0;    // booted records with steps == step budget
  uint64_t burn_steps = 0;      // the steps those boots retired
  uint64_t patch_hits = 0;
  uint64_t patch_fallbacks = 0;
  uint64_t mutants = 0;         // driver campaigns' total_mutants
  uint64_t scenarios = 0;
  uint64_t triggered = 0;
  uint64_t shard_bytes = 0;
  struct SpecRow {
    size_t mutants = 0;
    size_t deduped = 0;
    size_t detected = 0;
  };
  std::vector<SpecRow> spec_rows;
};

struct JobOutput {
  std::string report;   // the CLI's report body (stdout minus its banner)
  std::string metrics;  // eval::deterministic_metrics_json ("" for specs)
  std::vector<std::string> problems;  // invariant violations
  Facts facts;
};

void add_driver_facts(Facts& f, const eval::DriverCampaignResult& r,
                      uint64_t budget) {
  f.mutants += r.total_mutants;
  f.patch_hits += r.patch_hits;
  f.patch_fallbacks += r.patch_fallbacks;
  f.executed_steps += r.baseline_steps;
  for (const eval::MutantRecord& rec : r.records) {
    f.steps += rec.steps;
    if (rec.deduped) continue;
    f.executed_steps += rec.steps;
    if (rec.steps == budget) {
      ++f.budget_boots;
      f.burn_steps += rec.steps;
    }
  }
}

void add_fault_facts(Facts& f, const eval::FaultCampaignResult& r,
                     uint64_t budget) {
  f.scenarios += r.sampled_scenarios;
  f.triggered += r.triggered_scenarios;
  f.executed_steps += r.baseline_steps;
  for (const eval::FaultRecord& rec : r.records) {
    f.steps += rec.steps;
    f.executed_steps += rec.steps;
    if (rec.steps == budget) {
      ++f.budget_boots;
      f.burn_steps += rec.steps;
    }
  }
}

/// The paper's headline: the CDevil driver detects a strictly larger share
/// of its mutants (or injected faults) than the C driver.
void check_detects_more(JobOutput& out, const std::string& what,
                        size_t c_detected, size_t c_total,
                        size_t cdevil_detected, size_t cdevil_total) {
  if (cdevil_detected * c_total > c_detected * cdevil_total) return;
  out.problems.push_back(what + ": CDevil detected " +
                         std::to_string(cdevil_detected) + "/" +
                         std::to_string(cdevil_total) +
                         ", not a larger share than C's " +
                         std::to_string(c_detected) + "/" +
                         std::to_string(c_total));
}

JobOutput run_tables34(const Prepared& p, unsigned threads,
                       SpanRecorder* rec) {
  JobOutput out;
  eval::MetricsArtifact artifact;
  for (const DriverPair& pair : p.drivers) {
    const eval::DriverCampaignConfig* cfgs[2] = {&pair.cfgs.c,
                                                 &pair.cfgs.cdevil};
    eval::DriverCampaignResult r[2];
    for (int k = 0; k < 2; ++k) {
      eval::DriverCampaignConfig cfg = *cfgs[k];
      cfg.threads = threads;
      ScopedSpan span(rec, "campaign", "eval", pair.device + "." + kLabels[k]);
      r[k] = eval::run_driver_campaign(cfg);
    }
    {
      ScopedSpan span(rec, "render", "eval", pair.device);
      out.report += eval::render_device_section(pair.device, r[0], r[1]);
      for (int k = 0; k < 2; ++k) {
        artifact.campaigns.push_back(eval::campaign_metrics_row(
            r[k], kLabels[k], minic::exec_engine_name(cfgs[k]->engine)));
      }
    }
    check_detects_more(out, pair.device, r[0].tally.detected(),
                       r[0].tally.total_mutants, r[1].tally.detected(),
                       r[1].tally.total_mutants);
    for (int k = 0; k < 2; ++k) {
      add_driver_facts(out.facts, r[k], cfgs[k]->step_budget);
    }
  }
  ScopedSpan span(rec, "render", "eval", "metrics");
  out.metrics = eval::deterministic_metrics_json(artifact);
  return out;
}

JobOutput run_faults(const Prepared& p, unsigned threads, SpanRecorder* rec) {
  JobOutput out;
  eval::MetricsArtifact artifact;
  for (const FaultPair& pair : p.faults) {
    const eval::FaultCampaignConfig* cfgs[2] = {&pair.cfgs.c,
                                                &pair.cfgs.cdevil};
    eval::FaultCampaignResult r[2];
    for (int k = 0; k < 2; ++k) {
      eval::FaultCampaignConfig cfg = *cfgs[k];
      cfg.base.threads = threads;
      ScopedSpan span(rec, "campaign", "eval", pair.device + "." + kLabels[k]);
      r[k] = eval::run_fault_campaign(cfg);
    }
    {
      ScopedSpan span(rec, "render", "eval", pair.device);
      out.report += eval::render_fault_section(pair.device, r[0], r[1]);
      for (int k = 0; k < 2; ++k) {
        artifact.fault_campaigns.push_back(eval::fault_metrics_row(
            r[k], kLabels[k], minic::exec_engine_name(cfgs[k]->base.engine)));
      }
    }
    check_detects_more(out, pair.device + " faults", r[0].tally.detected(),
                       r[0].tally.total, r[1].tally.detected(),
                       r[1].tally.total);
    for (int k = 0; k < 2; ++k) {
      add_fault_facts(out.facts, r[k], cfgs[k]->base.step_budget);
    }
  }
  ScopedSpan span(rec, "render", "eval", "metrics");
  out.metrics = eval::deterministic_metrics_json(artifact);
  return out;
}

JobOutput run_specs(const Prepared& p, unsigned threads, SpanRecorder* rec) {
  JobOutput out;
  eval::SpecCampaignConfig cfg = p.spec_config;
  cfg.threads = threads;
  std::vector<eval::SpecCampaignRow> rows;
  for (const corpus::SpecEntry& e : corpus::all_specs()) {
    ScopedSpan span(rec, "spec", "eval", spec_key(e));
    rows.push_back(eval::run_spec_campaign(e, cfg));
  }
  {
    ScopedSpan span(rec, "render", "eval", "table2");
    out.report = eval::render_table2(rows);
  }
  for (const auto& row : rows) {
    out.facts.spec_rows.push_back({row.mutants, row.deduped, row.detected});
  }
  return out;
}

/// serialize -> parse -> merge -> render of the set-up's shard bundles. The
/// report is the Tables 3/4 merge followed by the fault merge, so it must
/// equal the tables34 report followed by the faults report.
JobOutput run_merge(const Prepared& p, SpanRecorder* rec) {
  JobOutput out;
  auto round_trip = [&](const std::vector<eval::ShardBundle>& bundles,
                        const char* kind) {
    std::vector<std::string> texts;
    for (const eval::ShardBundle& b : bundles) {
      ScopedSpan span(rec, "shard.serialize", "eval",
                      std::string(kind) + " " + b.shard.to_string());
      texts.push_back(eval::serialize_shard_bundle(b));
      out.facts.shard_bytes += texts.back().size();
    }
    std::vector<eval::ShardBundle> parsed;
    for (size_t i = 0; i < texts.size(); ++i) {
      ScopedSpan span(rec, "shard.parse", "eval",
                      std::string(kind) + " " + bundles[i].shard.to_string());
      parsed.push_back(eval::parse_shard_bundle(texts[i]));
    }
    return parsed;
  };
  std::vector<eval::ShardBundle> driver_bundles =
      round_trip(p.driver_bundles, "driver");
  std::vector<eval::ShardBundle> fault_bundles =
      round_trip(p.fault_bundles, "fault");

  std::vector<eval::MergedCampaign> merged;
  std::vector<eval::MergedFaultCampaign> fault_merged;
  {
    ScopedSpan span(rec, "merge", "eval", "driver");
    merged = eval::merge_shard_bundles(driver_bundles);
  }
  {
    ScopedSpan span(rec, "merge", "eval", "fault");
    fault_merged = eval::merge_fault_bundles(fault_bundles);
  }
  ScopedSpan span(rec, "render", "eval", "merged");
  out.report = eval::render_merged_report(merged, {}) +
               eval::render_merged_report({}, fault_merged);
  eval::MetricsArtifact driver_artifact;
  for (const auto& m : merged) {
    driver_artifact.campaigns.push_back(
        eval::campaign_metrics_row(m.result, m.label, m.engine));
  }
  eval::MetricsArtifact fault_artifact;
  for (const auto& m : fault_merged) {
    fault_artifact.fault_campaigns.push_back(
        eval::fault_metrics_row(m.result, m.label, m.engine));
  }
  out.metrics = eval::deterministic_metrics_json(driver_artifact) + "\n" +
                eval::deterministic_metrics_json(fault_artifact);
  return out;
}

JobOutput run_job(Workload w, const Prepared& p, unsigned threads,
                  SpanRecorder* rec) {
  switch (w) {
    case Workload::kTables34: return run_tables34(p, threads, rec);
    case Workload::kFaults: return run_faults(p, threads, rec);
    case Workload::kSpecs: return run_specs(p, threads, rec);
    case Workload::kMerge: break;
  }
  // Merging has no thread knob (`mutation_hunt --merge` ignores --threads),
  // so its parallel job is the same single-threaded job.
  return run_merge(p, rec);
}

struct Timed {
  JobOutput out;
  double wall_s = 0;
  double cpu_s = 0;
  std::string error;  // what() of an exception the job threw
};

Timed timed_job(Workload w, const Prepared& p, unsigned threads,
                SpanRecorder* rec) {
  Timed t;
  const double cpu0 = process_cpu_s();
  const uint64_t t0 = now_ns();
  try {
    t.out = run_job(w, p, threads, rec);
  } catch (const std::exception& e) {
    t.error = e.what();
  }
  t.wall_s = seconds_since(t0);
  t.cpu_s = process_cpu_s() - cpu0;
  return t;
}

// --- output checks ------------------------------------------------------------

/// The bytes a job must reproduce: expected files recorded from a known-good
/// commit, or — for a seed with no expected files — the first output of the
/// same seed in this run (checked against the invariants) or, for `merge`,
/// the single-process runs.
struct Reference {
  std::string report;
  std::string metrics;
  bool set = false;
  std::string origin;
};

std::string expected_stem(const std::string& dir, const std::string& workload,
                          uint64_t seed) {
  // The spec campaign is not sampled, so its report does not depend on the
  // seed.
  if (workload == "specs") return dir + "/specs";
  return dir + "/" + workload + "-" + std::to_string(seed);
}

bool load_expected(const std::string& dir, const std::string& workload,
                   uint64_t seed, Reference* ref) {
  if (workload == "merge") {
    Reference a;
    Reference b;
    if (!load_expected(dir, "tables34", seed, &a) ||
        !load_expected(dir, "faults", seed, &b)) {
      return false;
    }
    ref->report = a.report + b.report;
    ref->metrics = a.metrics + "\n" + b.metrics;
    ref->set = true;
    ref->origin = "expected files";
    return true;
  }
  const std::string stem = expected_stem(dir, workload, seed);
  bool found = false;
  ref->report = read_file(stem + ".report.txt", &found);
  if (!found) return false;
  if (workload != "specs") {
    ref->metrics = read_file(stem + ".metrics.json", &found);
    if (!found) return false;
  }
  ref->set = true;
  ref->origin = "expected files";
  return true;
}

/// For a seed with no expected files, the merge reference is what the
/// single-process Tables 3/4 and fault runs print.
Reference single_process_reference(uint64_t seed, unsigned threads) {
  Prepared t = prepare(Workload::kTables34, seed, false, threads);
  Prepared f = prepare(Workload::kFaults, seed, false, threads);
  JobOutput a = run_job(Workload::kTables34, t, threads, nullptr);
  JobOutput b = run_job(Workload::kFaults, f, threads, nullptr);
  Reference ref;
  ref.report = a.report + b.report;
  ref.metrics = a.metrics + "\n" + b.metrics;
  ref.set = true;
  ref.origin = "single-process runs";
  return ref;
}

/// Checks one job; adopts its output as the reference when none is set.
/// Returns the problems found (empty = correct).
std::vector<std::string> check_job(const Timed& t, Reference& ref,
                                   const char* what) {
  std::vector<std::string> problems;
  if (!t.error.empty()) {
    problems.push_back(std::string(what) + " job threw: " + t.error);
    return problems;
  }
  for (const std::string& p : t.out.problems) {
    problems.push_back(std::string(what) + " job: " + p);
  }
  if (!ref.set) {
    ref.report = t.out.report;
    ref.metrics = t.out.metrics;
    ref.set = true;
    ref.origin = "this seed's first job";
    return problems;
  }
  if (t.out.report != ref.report) {
    problems.push_back(std::string(what) + " job: report differs from " +
                       ref.origin);
  }
  if (t.out.metrics != ref.metrics) {
    problems.push_back(std::string(what) +
                       " job: deterministic metrics differ from " + ref.origin);
  }
  return problems;
}

// --- metric table -------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

struct MetricTable {
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

MetricTable load_table(const std::string& path) {
  bool found = false;
  std::string text = read_file(path, &found);
  if (!found) throw std::runtime_error("cannot read metric table " + path);
  support::JsonValue v = support::parse_json(text);
  MetricTable t;
  auto load = [&](const char* key, std::vector<MetricDef>& into) {
    const support::JsonValue* list = v.find(key);
    if (list == nullptr) {
      throw std::runtime_error(path + ": missing \"" + key + "\"");
    }
    for (const support::JsonValue& m : list->items()) {
      const support::JsonValue* name = m.find("name");
      const support::JsonValue* unit = m.find("unit");
      if (name == nullptr || unit == nullptr) {
        throw std::runtime_error(path + ": a metric lacks its name or unit");
      }
      into.push_back({name->as_string(), unit->as_string()});
    }
  };
  load("end_to_end", t.end_to_end);
  load("per_layer", t.per_layer);
  return t;
}

/// Every campaign and spec metric key, in report order.
std::vector<std::string> campaign_keys() {
  std::vector<std::string> keys;
  auto add = [&](const std::vector<corpus::CampaignDrivers>& list) {
    for (const auto& d : list) {
      for (const char* label : kLabels) {
        keys.push_back(std::string(d.device) + "." + label);
      }
    }
  };
  add(corpus::campaign_drivers());
  add(corpus::irq_campaign_drivers());
  return keys;
}

std::vector<std::string> spec_keys() {
  std::vector<std::string> keys;
  for (const auto& e : corpus::all_specs()) keys.push_back(spec_key(e));
  return keys;
}

/// Prints the result line: `values` must hold exactly the table's names.
/// Returns false (after printing the mismatch to stderr) when it does not.
bool print_result(const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values, bool correct,
                  uint64_t attempted, uint64_t failed) {
  support::JsonValue metrics = support::JsonValue::object();
  bool ok = true;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   d.name.c_str());
      ok = false;
      continue;
    }
    support::JsonValue m = support::JsonValue::object();
    m.set("value", std::isfinite(it->second) ? it->second : 0.0);
    m.set("unit", d.unit);
    metrics.set(d.name, std::move(m));
  }
  for (const auto& [name, value] : values) {
    bool listed = std::any_of(defs.begin(), defs.end(),
                              [&](const MetricDef& d) { return d.name == name; });
    if (!listed) {
      std::fprintf(stderr, "perfbench: metric %s is not in the table\n",
                   name.c_str());
      ok = false;
    }
  }
  support::JsonValue line = support::JsonValue::object();
  line.set("correct", correct && ok);
  line.set("attempted", attempted);
  line.set("failed", failed);
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", support::to_json(line).c_str());
  std::fflush(stdout);
  return ok;
}

// --- end-to-end run -----------------------------------------------------------

struct Options {
  std::string workload;
  Workload w = Workload::kTables34;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string table_path;
  std::string expected_dir;
  std::string trace_out;
};

/// Campaign seeds of a run's jobs. The first is the run's seed itself; a
/// Tables 3/4 or fault run adds more, drawn from it, and cycles through
/// them, so its median job describes several mutant samples rather than one
/// sample's luck (the IDE sample's hang-boot count moves a 1-thread Tables
/// 3/4 job by about 10% between seeds). The spec campaign takes no seed, and
/// merge set-up runs whole campaigns, so those use the run's seed only.
std::vector<uint64_t> job_seeds(Workload w, uint64_t seed) {
  constexpr size_t kJobSeeds = 8;
  std::vector<uint64_t> seeds = {seed};
  if (w == Workload::kTables34 || w == Workload::kFaults) {
    support::SplitMix64 rng(seed);
    while (seeds.size() < kJobSeeds) {
      seeds.push_back(rng.next() % 1'000'000'000'000ull);
    }
  }
  return seeds;
}

/// One job seed's prepared inputs and the bytes its jobs must reproduce.
struct SeedJobs {
  uint64_t seed = 0;
  Prepared prep;
  Reference ref;
};

/// `first`, when given, is an already prepared set-up of the run's seed.
std::vector<SeedJobs> prepare_jobs(const Options& o, unsigned nproc,
                                   bool count_ports, Prepared* first = nullptr) {
  std::vector<SeedJobs> jobs;
  for (uint64_t seed : job_seeds(o.w, o.seed)) {
    SeedJobs j;
    j.seed = seed;
    j.prep = jobs.empty() && first != nullptr
                 ? std::move(*first)
                 : prepare(o.w, seed, count_ports, nproc);
    if (!load_expected(o.expected_dir, o.workload, seed, &j.ref) &&
        o.w == Workload::kMerge) {
      j.ref = single_process_reference(seed, nproc);
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Adds set-up samples: at least `min_reps` set-ups of the run's seed, and
/// more until `min_s` has passed. The run takes a first batch before its
/// first job and, when set-up is cheap, a small batch after every job, so
/// the median describes the whole run rather than its first moments.
/// Returns the last set-up's inputs.
Prepared sample_setup(const Options& o, unsigned nproc, size_t min_reps,
                      double min_s, std::vector<double>& samples) {
  Prepared p;
  const uint64_t start = now_ns();
  for (size_t n = 0; n < min_reps || seconds_since(start) < min_s; ++n) {
    const uint64_t t0 = now_ns();
    p = prepare(o.w, o.seed, false, nproc);
    samples.push_back(seconds_since(t0));
  }
  return p;
}

struct JobTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(std::vector<std::string> p) {
    ++attempted;
    if (p.empty()) return;
    ++failed;
    for (std::string& s : p) problems.push_back(std::move(s));
  }
};

void print_stat(const char* name, const std::vector<double>& v,
                const char* unit) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  if (s.empty()) return;
  std::printf("# %-12s median %.6g %s  min %.6g  max %.6g  n=%zu\n", name,
              median(s), unit, s.front(), s.back(), s.size());
}

int run_end_to_end(const Options& o, const MetricTable& table) {
  const unsigned nproc = cpu_count();
  // Merge set-up runs the campaigns behind three shard bundles: three
  // set-ups, all before the first job.
  const bool heavy_setup = o.w == Workload::kMerge;
  std::vector<double> setup;
  Prepared first =
      sample_setup(o, nproc, heavy_setup ? 3 : 5, heavy_setup ? 0 : 0.1, setup);
  std::vector<SeedJobs> jobs = prepare_jobs(o, nproc, false, &first);
  size_t expected = 0;
  for (const SeedJobs& j : jobs) expected += j.ref.set ? 1 : 0;
  std::printf("# workload %s seed %llu: %zu job seed(s), %zu with expected "
              "output; threads 1 and %u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              jobs.size(), expected, nproc);

  std::vector<double> wall;
  std::vector<double> wall_par;
  std::vector<double> cpu_par;
  JobTally tally;
  const uint64_t start = now_ns();
  while (wall.size() < 2 || seconds_since(start) < o.seconds) {
    SeedJobs& j = jobs[wall.size() % jobs.size()];
    Timed one = timed_job(o.w, j.prep, 1, nullptr);
    tally.add(check_job(one, j.ref, "1-thread"));
    Timed par = timed_job(o.w, j.prep, nproc, nullptr);
    std::vector<std::string> p = check_job(par, j.ref, "parallel");
    if (one.error.empty() && par.error.empty() &&
        (one.out.report != par.out.report ||
         one.out.metrics != par.out.metrics)) {
      p.push_back("1-thread and parallel outputs differ");
    }
    tally.add(std::move(p));
    wall.push_back(one.wall_s);
    wall_par.push_back(par.wall_s);
    cpu_par.push_back(par.cpu_s);
    std::printf("# job %zu seed %llu: wall_s %.6f  wall_s_par %.6f  "
                "cpu_s_par %.6f\n",
                wall.size(), static_cast<unsigned long long>(j.seed),
                one.wall_s, par.wall_s, par.cpu_s);
    if (!one.error.empty() || !par.error.empty()) break;
    if (!heavy_setup) (void)sample_setup(o, nproc, 3, 0.02, setup);
  }
  const double setup_s = median(setup);

  print_stat("wall_s", wall, "s");
  print_stat("wall_s_par", wall_par, "s");
  print_stat("cpu_s_par", cpu_par, "s");
  print_stat("setup_s", setup, "s");
  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }
  std::map<std::string, double> values = {
      {"wall_s", median(wall)},
      {"wall_s_par", median(wall_par)},
      {"cpu_s_par", median(cpu_par)},
      {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mb()},
      {"ok_frac", 1.0 - ratio(static_cast<double>(tally.failed),
                              static_cast<double>(tally.attempted))},
  };
  const bool correct = tally.failed == 0;
  bool ok = print_result(table.end_to_end, values, correct, tally.attempted,
                         tally.failed);
  return correct && ok ? 0 : 1;
}

// --- traced run ---------------------------------------------------------------

/// What the traced run replays outside the job to split the layers the job
/// does not expose: the spec campaign's Devil compiler runs and the site
/// scan and mutant generation of every campaign.
struct Replay {
  uint64_t devil_checks = 0;
  uint64_t devil_mutants = 0;
  uint64_t devil_deduped = 0;
  uint64_t mutants = 0;
  std::vector<Facts::SpecRow> spec_rows;
};

mutation::DevilNames devil_names(const devil::DeviceInfo& info) {
  mutation::DevilNames names;
  for (const auto& p : info.decl->params) names.ports.push_back(p.name);
  for (const auto& r : info.decl->registers) names.registers.push_back(r.name);
  for (const auto& v : info.decl->variables) names.variables.push_back(v.name);
  return names;
}

/// The spec campaign's dedup key (eval/spec_campaign.cc): the lexed token
/// stream, or the raw text when the mutant does not lex.
std::string devil_key(const std::vector<devil::Token>& tokens, bool lexed,
                      const std::string& text) {
  if (!lexed) return "!" + text;
  std::string key;
  key.reserve(tokens.size() * 8);
  for (const devil::Token& t : tokens) {
    key.push_back(static_cast<char>(t.kind));
    uint32_t line = t.range.begin.line;
    key.append(reinterpret_cast<const char*>(&line), sizeof(line));
    if (t.kind == devil::TokKind::kInt) {
      uint64_t v = t.int_value;
      key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    } else if (!t.text.empty()) {
      key.append(t.text);
      key.push_back('\0');
    }
  }
  return key;
}

/// One Devil compiler run, as devil::check_spec makes it, with a span per
/// stage. Returns true when the compiler rejects the text.
bool replay_check(SpanRecorder* rec, const corpus::SpecEntry& e,
                  const std::string& text) {
  support::DiagnosticEngine diags;
  support::SourceBuffer buf(e.file, text);
  std::vector<devil::Token> tokens;
  {
    ScopedSpan span(rec, "devil.lex", "devil");
    devil::Lexer lexer(buf, diags);
    tokens = lexer.lex_all();
  }
  if (diags.has_errors()) return true;
  std::optional<devil::Specification> spec;
  {
    ScopedSpan span(rec, "devil.parse", "devil");
    devil::Parser parser(std::move(tokens), diags);
    spec = parser.parse();
  }
  if (!spec) return true;
  ScopedSpan span(rec, "devil.sema", "devil");
  devil::Sema sema(diags);
  return !sema.check(*spec).has_value();
}

/// Replays the spec campaign's lex / parse / sema calls over the mutants it
/// checks (every mutant is lexed for its dedup key; unique ones are
/// compiled), regenerating them through the public mutation API.
void replay_specs(SpanRecorder* rec, Replay& out) {
  for (const corpus::SpecEntry& e : corpus::all_specs()) {
    ScopedSpan spec_span(rec, "replay", "bench", spec_key(e));
    auto baseline = devil::check_spec(e.file, e.text);
    if (!baseline.ok()) throw std::runtime_error("spec " + e.name + " fails");
    ++out.devil_checks;
    mutation::DevilNames names = devil_names(*baseline.info);
    std::vector<mutation::Site> sites;
    std::vector<mutation::Mutant> mutants;
    std::vector<std::string> texts;
    {
      ScopedSpan span(rec, "mutation.generate", "mutation", spec_key(e));
      sites = mutation::scan_devil_sites(e.text, names);
      mutants = mutation::generate_devil_mutants(sites, names);
      for (const auto& m : mutants) {
        texts.push_back(mutation::apply_mutant(e.text, sites, m));
      }
    }
    Facts::SpecRow row;
    row.mutants = mutants.size();
    std::unordered_map<std::string, bool> seen;  // key -> detected
    for (const std::string& text : texts) {
      support::DiagnosticEngine diags;
      support::SourceBuffer buf(e.file, text);
      std::vector<devil::Token> tokens;
      {
        ScopedSpan span(rec, "devil.lex", "devil");
        devil::Lexer lexer(buf, diags);
        tokens = lexer.lex_all();
      }
      auto [it, fresh] =
          seen.emplace(devil_key(tokens, !diags.has_errors(), text), false);
      if (!fresh) {
        ++row.deduped;
      } else {
        it->second = replay_check(rec, e, text);
        ++out.devil_checks;
      }
      if (it->second) ++row.detected;
    }
    out.devil_mutants += row.mutants;
    out.devil_deduped += row.deduped;
    out.mutants += row.mutants;
    out.spec_rows.push_back(row);
  }
}

/// Replays the driver campaigns' site scan and mutant generation.
void replay_drivers(const Prepared& p, SpanRecorder* rec, Replay& out) {
  ScopedSpan replay_span(rec, "replay", "bench", "drivers");
  for (const DriverPair& pair : p.drivers) {
    const eval::DriverCampaignConfig* cfgs[2] = {&pair.cfgs.c,
                                                 &pair.cfgs.cdevil};
    for (int k = 0; k < 2; ++k) {
      const eval::DriverCampaignConfig* cfg = cfgs[k];
      ScopedSpan span(rec, "mutation.generate", "mutation",
                      pair.device + "." + kLabels[k]);
      mutation::CScanOptions scan;
      scan.classes =
          cfg->is_cdevil
              ? mutation::classes_for_cdevil_driver(cfg->stubs, cfg->driver)
              : mutation::classes_for_c_driver(cfg->driver);
      auto sites = mutation::scan_c_sites(cfg->driver, scan);
      out.mutants += mutation::generate_c_mutants(sites, scan.classes).size();
    }
  }
}

struct TracedSample {
  double job_s = 0;        // traced 1-thread job
  double untraced_s = 0;   // untraced 1-thread job
  double par_s = 0;        // untraced parallel job
};

std::map<std::string, double> layer_metrics(
    const SpanRecorder& rec, size_t from, const TracedSample& t,
    unsigned nproc, const support::MetricsSnapshot& snap,
    const perfbench::PortTotals& ports, const Facts& facts,
    const Replay& replay) {
  using support::Stage;
  auto stage_s = [&](Stage s) {
    return static_cast<double>(snap.stages[static_cast<size_t>(s)].total()) /
           1e9;
  };
  auto stage_n = [&](Stage s) {
    return static_cast<double>(snap.stages[static_cast<size_t>(s)].count());
  };
  std::map<std::string, double> m;

  m["devil.lex_s"] = rec.total_s(from, "devil.lex");
  m["devil.parse_s"] = rec.total_s(from, "devil.parse");
  m["devil.sema_s"] = rec.total_s(from, "devil.sema");
  m["devil.checks"] = static_cast<double>(replay.devil_checks);
  m["devil.dedup_ratio"] = ratio(static_cast<double>(replay.devil_deduped),
                                 static_cast<double>(replay.devil_mutants));
  m["devil.self_s"] = m["devil.lex_s"] + m["devil.parse_s"] + m["devil.sema_s"];

  m["mutation.generate_s"] = rec.total_s(from, "mutation.generate");
  m["mutation.mutants"] = static_cast<double>(replay.mutants);
  m["mutation.self_s"] = m["mutation.generate_s"];

  m["minic.lex_s"] = stage_s(Stage::kLex);
  m["minic.parse_s"] = stage_s(Stage::kParse);
  m["minic.typecheck_s"] = stage_s(Stage::kTypecheck);
  m["minic.frontend_runs"] = stage_n(Stage::kLex);
  m["minic.self_s"] =
      m["minic.lex_s"] + m["minic.parse_s"] + m["minic.typecheck_s"];

  const double port_s = ports.port_ns / 1e9;
  const double reset_s = static_cast<double>(ports.reset_ns) / 1e9;
  const double boot_s = stage_s(Stage::kBoot);
  // Device resets run in DevicePool::acquire, outside the boot timer, so
  // only port time is inside boot time.
  const double dispatch_s = std::max(0.0, boot_s - port_s);
  uint64_t slow = 0;
  const auto& buckets = snap.stages[static_cast<size_t>(Stage::kBoot)].buckets();
  for (size_t b = 24; b < buckets.size(); ++b) slow += buckets[b];  // >= 2^23 ns
  m["bytecode.lower_s"] = stage_s(Stage::kLower);
  m["bytecode.lower_calls"] = stage_n(Stage::kLower);
  m["bytecode.splice_s"] = stage_s(Stage::kSplice);
  m["bytecode.patch_s"] = stage_s(Stage::kPatch);
  m["bytecode.patch_hits"] = static_cast<double>(facts.patch_hits);
  m["bytecode.patch_fallbacks"] = static_cast<double>(facts.patch_fallbacks);
  m["bytecode.patch_hit_ratio"] =
      ratio(static_cast<double>(facts.patch_hits),
            static_cast<double>(facts.patch_hits + facts.patch_fallbacks));
  m["bytecode.boots"] = stage_n(Stage::kBoot);
  m["bytecode.boot_s"] = boot_s;
  m["bytecode.steps"] = static_cast<double>(facts.steps);
  m["bytecode.budget_exhausted_boots"] = static_cast<double>(facts.budget_boots);
  m["bytecode.budget_burn_steps"] = static_cast<double>(facts.burn_steps);
  m["bytecode.useful_step_ratio"] =
      facts.steps > 0 ? 1.0 - ratio(static_cast<double>(facts.burn_steps),
                                    static_cast<double>(facts.steps))
                      : 0.0;
  m["bytecode.dispatch_steps_per_s"] =
      ratio(static_cast<double>(facts.executed_steps), dispatch_s);
  m["bytecode.slow_boots"] = static_cast<double>(slow);
  m["bytecode.self_s"] = m["bytecode.lower_s"] + m["bytecode.splice_s"] +
                         m["bytecode.patch_s"] + dispatch_s;

  m["hw.port_reads"] = static_cast<double>(ports.reads);
  m["hw.port_writes"] = static_cast<double>(ports.writes);
  m["hw.port_s"] = port_s;
  m["hw.resets"] = static_cast<double>(ports.resets);
  m["hw.reset_s"] = reset_s;
  m["hw.pool_fresh"] = static_cast<double>(snap.pool_fresh);
  m["hw.pool_recycled"] = static_cast<double>(snap.pool_recycled);
  m["hw.fault_trigger_ratio"] =
      ratio(static_cast<double>(facts.triggered),
            static_cast<double>(facts.scenarios));
  m["hw.self_s"] = std::min(port_s, boot_s) + reset_s;

  for (const std::string& k : campaign_keys()) {
    m["eval.campaign_s." + k] = rec.total_s(from, "campaign", k.c_str());
  }
  for (const std::string& k : spec_keys()) {
    m["eval.spec_s." + k] = rec.total_s(from, "spec", k.c_str());
  }
  m["eval.classify_s"] = stage_s(Stage::kClassify);
  m["eval.render_s"] = rec.total_s(from, "render");
  m["eval.shard_serialize_s"] = rec.total_s(from, "shard.serialize");
  m["eval.shard_parse_s"] = rec.total_s(from, "shard.parse");
  m["eval.shard_bytes"] = static_cast<double>(facts.shard_bytes);
  m["eval.merge_s"] = rec.total_s(from, "merge");
  m["eval.self_s"] = m["eval.classify_s"] + m["eval.render_s"] +
                     m["eval.shard_serialize_s"] + m["eval.shard_parse_s"] +
                     m["eval.merge_s"];
  m["eval.unattributed_s"] =
      t.job_s - (m["devil.self_s"] + m["mutation.self_s"] + m["minic.self_s"] +
                 m["bytecode.self_s"] + m["hw.self_s"] + m["eval.self_s"]);

  m["support.parallel_efficiency"] =
      ratio(t.untraced_s, t.par_s * static_cast<double>(nproc));
  m["trace.overhead"] = ratio(t.job_s, t.untraced_s) - 1.0;
  return m;
}

int run_traced(const Options& o, const MetricTable& table) {
  const unsigned nproc = cpu_count();
  // Merge jobs boot nothing, so they need no counting shim.
  std::vector<SeedJobs> plain = prepare_jobs(o, nproc, false);
  std::vector<SeedJobs> counted = o.w == Workload::kMerge
                                      ? std::vector<SeedJobs>{}
                                      : prepare_jobs(o, nproc, true);
  std::vector<SeedJobs>& traced_jobs =
      o.w == Workload::kMerge ? plain : counted;

  SpanRecorder rec;
  const int64_t root = rec.open("workload", "bench", o.workload);
  std::vector<std::map<std::string, double>> samples;
  JobTally tally;
  const uint64_t start = now_ns();
  while (samples.empty() || seconds_since(start) < o.seconds) {
    const size_t k = samples.size() % plain.size();
    SeedJobs& j = plain[k];
    SeedJobs& tj = traced_jobs[k];
    TracedSample t;
    Timed one;
    Timed par;
    {
      ScopedSpan span(&rec, "untraced", "bench", "1-thread");
      one = timed_job(o.w, j.prep, 1, nullptr);
    }
    tally.add(check_job(one, j.ref, "untraced 1-thread"));
    {
      ScopedSpan span(&rec, "untraced", "bench", "parallel");
      par = timed_job(o.w, j.prep, nproc, nullptr);
    }
    tally.add(check_job(par, j.ref, "untraced parallel"));

    support::Metrics::reset();
    perfbench::reset_port_totals();
    support::Metrics::set_enabled(true);
    const size_t from = rec.spans().size();
    Timed traced;
    {
      ScopedSpan job(&rec, "job", "bench",
                     o.workload + " seed " + std::to_string(j.seed));
      traced = timed_job(o.w, tj.prep, 1, &rec);
    }
    support::Metrics::set_enabled(false);
    const support::MetricsSnapshot snap = support::Metrics::snapshot();
    const perfbench::PortTotals ports = perfbench::port_totals();
    std::vector<std::string> traced_problems =
        check_job(traced, j.ref, "traced");
    if (!one.error.empty() || !par.error.empty() || !traced.error.empty()) {
      tally.add(std::move(traced_problems));
      break;
    }

    // The replay must make the campaign's own decisions.
    Replay replay;
    if (o.w == Workload::kSpecs) {
      replay_specs(&rec, replay);
      bool same = replay.spec_rows.size() == traced.out.facts.spec_rows.size();
      for (size_t i = 0; same && i < replay.spec_rows.size(); ++i) {
        const auto& a = replay.spec_rows[i];
        const auto& b = traced.out.facts.spec_rows[i];
        same = a.mutants == b.mutants && a.deduped == b.deduped &&
               a.detected == b.detected;
      }
      if (!same) traced_problems.push_back("spec replay disagrees with the campaign");
    } else if (o.w == Workload::kTables34) {
      replay_drivers(tj.prep, &rec, replay);
      if (replay.mutants != traced.out.facts.mutants) {
        traced_problems.push_back("mutant replay disagrees with the campaign");
      }
    }
    tally.add(std::move(traced_problems));
    t.job_s = traced.wall_s;
    t.untraced_s = one.wall_s;
    t.par_s = par.wall_s;
    samples.push_back(layer_metrics(rec, from, t, nproc, snap, ports,
                                    traced.out.facts, replay));
  }
  rec.close(root);

  std::map<std::string, double> values;
  if (samples.empty()) {  // the first job failed: report zeros, not correct
    for (const MetricDef& d : table.per_layer) values[d.name] = 0;
    samples.push_back(values);
  }
  for (const auto& [name, unused] : samples.front()) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.at(name));
    values[name] = median(v);
  }
  std::printf("# traced workload %s seed %llu: %zu traced job(s), tracing "
              "overhead %.3f, unattributed %.4f s, %zu spans\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              samples.size(), values["trace.overhead"],
              values["eval.unattributed_s"], rec.spans().size());
  for (const char* layer : {"devil", "mutation", "minic", "bytecode", "hw",
                            "eval"}) {
    std::printf("#   %-9s self %.4f s\n", layer,
                values[std::string(layer) + ".self_s"]);
  }
  if (!o.trace_out.empty()) {
    support::JsonValue other = support::JsonValue::object();
    other.set("workload", o.workload);
    other.set("seed", static_cast<int64_t>(o.seed));
    other.set("traced_jobs", static_cast<int64_t>(samples.size()));
    other.set("dropped_spans", static_cast<int64_t>(rec.dropped()));
    auto as_json = [](const std::map<std::string, double>& m) {
      support::JsonValue v = support::JsonValue::object();
      for (const auto& [name, x] : m) v.set(name, x);
      return v;
    };
    other.set("per_layer_medians", as_json(values));
    support::JsonValue jobs = support::JsonValue::array();
    for (const auto& sample : samples) jobs.push_back(as_json(sample));
    other.set("per_job", std::move(jobs));
    write_file(o.trace_out, rec.to_chrome_json(support::to_json(other)));
    std::printf("# trace written to %s\n", o.trace_out.c_str());
  }
  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }
  const bool correct = tally.failed == 0;
  bool ok = print_result(table.per_layer, values, correct, tally.attempted,
                         tally.failed);
  return correct && ok ? 0 : 1;
}

// --- maintenance modes ----------------------------------------------------------

/// Rewrites the expected files from the current build at the default seed.
int record_expected(const std::string& dir) {
  const unsigned nproc = cpu_count();
  for (const auto& [name, w] : workloads()) {
    if (w == Workload::kMerge) continue;  // merge is checked against these
    Prepared p = prepare(w, kDefaultSeed, false, nproc);
    JobOutput out = run_job(w, p, nproc, nullptr);
    if (!out.problems.empty()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", name.c_str(),
                   out.problems.front().c_str());
      return 1;
    }
    const std::string stem = expected_stem(dir, name, kDefaultSeed);
    write_file(stem + ".report.txt", out.report);
    if (w != Workload::kSpecs) write_file(stem + ".metrics.json", out.metrics);
    std::printf("wrote %s.*\n", stem.c_str());
  }
  return 0;
}

/// The shim must not change a single report byte: busmouse mutation and
/// fault campaigns with and without it.
int selftest_shim() {
  const unsigned nproc = cpu_count();
  auto report = [&](Workload w, bool count) {
    Prepared p = prepare(w, kDefaultSeed, count, nproc);
    auto keep = [](auto& list) {
      list.erase(std::remove_if(list.begin(), list.end(),
                                [](const auto& pair) {
                                  return pair.device != "busmouse";
                                }),
                 list.end());
    };
    keep(p.drivers);
    keep(p.faults);
    JobOutput out = run_job(w, p, nproc, nullptr);
    return out.report + out.metrics;
  };
  int rc = 0;
  for (Workload w : {Workload::kTables34, Workload::kFaults}) {
    perfbench::reset_port_totals();
    const std::string plain = report(w, false);
    const std::string counted = report(w, true);
    const perfbench::PortTotals ports = perfbench::port_totals();
    const char* name = w == Workload::kTables34 ? "mutation" : "fault";
    if (plain.empty() || plain != counted) {
      std::printf("FAIL: busmouse %s campaigns render differently with the "
                  "device shim\n", name);
      rc = 1;
    } else if (ports.reads == 0 || ports.resets == 0) {
      std::printf("FAIL: the device shim counted no busmouse %s traffic\n",
                  name);
      rc = 1;
    } else {
      std::printf("ok: busmouse %s campaigns byte-identical with the shim "
                  "(%llu reads, %llu writes, %llu resets counted)\n",
                  name, static_cast<unsigned long long>(ports.reads),
                  static_cast<unsigned long long>(ports.writes),
                  static_cast<unsigned long long>(ports.resets));
    }
  }
  return rc;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload {tables34,faults,specs,"
               "merge} --seed N --seconds S --trace {0,1} --table FILE "
               "--expected-dir DIR [--trace-out FILE]\n"
               "       perfbench_harness --record --table FILE "
               "--expected-dir DIR\n"
               "       perfbench_harness --list-corpus-metrics | --selftest-shim\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool record = false;
  bool have_workload = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      auto value = [&]() -> const std::string& {
        if (i + 1 >= args.size()) throw std::invalid_argument(a + " needs a value");
        return args[++i];
      };
      if (a == "--list-corpus-metrics") {
        for (const std::string& k : campaign_keys()) {
          std::printf("eval.campaign_s.%s\n", k.c_str());
        }
        for (const std::string& k : spec_keys()) {
          std::printf("eval.spec_s.%s\n", k.c_str());
        }
        return 0;
      } else if (a == "--selftest-shim") {
        return selftest_shim();
      } else if (a == "--record") {
        record = true;
      } else if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string& t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace is 0 or 1");
        o.trace = t == "1";
      } else if (a == "--table") {
        o.table_path = value();
      } else if (a == "--expected-dir") {
        o.expected_dir = value();
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench_harness: refusing to measure a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (o.expected_dir.empty()) return usage("--expected-dir is required");
  try {
    if (record) return record_expected(o.expected_dir);
    if (!have_workload || o.table_path.empty()) {
      return usage("--workload and --table are required");
    }
    auto it = std::find_if(workloads().begin(), workloads().end(),
                           [&](const auto& w) { return w.first == o.workload; });
    if (it == workloads().end()) return usage("unknown workload");
    o.w = it->second;
    std::printf("# build %s, compiler %s\n", PERFBENCH_BUILD_TYPE, __VERSION__);
    const MetricTable table = load_table(o.table_path);
    return o.trace ? run_traced(o, table) : run_end_to_end(o, table);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
