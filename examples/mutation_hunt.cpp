// Mutation hunt: injects the same classic typo into the C driver and the
// Devil driver and shows when (or whether) each toolchain notices — the
// paper's core claim in one runnable scenario.
//
// The typo: the developer confuses the drive-select value with a command
// byte (an inattention error, §3.1).
//
// With `--threads N` it additionally runs the full Tables 3/4 campaigns on
// the parallel engine (N worker threads, 0 = all cores) and prints the
// comparison — the whole paper evaluation in seconds. `--device
// {ide,busmouse,all}` picks the device under test (default: all).
//
// Every campaign entry point consumes one eval::CampaignSpec: the flag
// parser below fills the spec through the flag table in
// eval/campaign_spec.h, so flag -> spec field lives in exactly one place.
//
// Campaigns also shard across processes: `--shard i/N --out FILE` runs the
// i-th of N slices of every selected campaign and writes a mergeable JSON
// artifact; `--merge FILE...` recombines one artifact per shard into output
// byte-identical to the single-process campaign run (tables, tallies and
// engine counters included). Mismatched configurations, duplicate or
// missing shards and corrupt artifacts are rejected with diagnostics.
//
// `--faults` flips the experiment: the drivers stay clean and the *device*
// misbehaves. Each selected device's C and CDevil drivers boot against the
// deterministic fault-scenario matrix (stuck bits, flipped reads, dropped
// writes, floating bus, wedged status — eval/fault_campaign.h) and the
// outcomes are bucketed Tables-3/4-style. The interrupt-driven corpora
// ("ide-irq", "busmouse-irq") add event-fault rows — lost, spurious,
// storming and delayed interrupts — where the CDevil handlers' in-service
// guards detect what classic C absorbs. Fault campaigns compose with
// `--shard`/`--merge` exactly like mutation campaigns.
//
// `--spec-campaign` runs the Table 2 experiment instead: mutate the Devil
// specifications themselves and count what the Devil compiler rejects.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "eval/campaign_kinds.h"
#include "eval/campaign_spec.h"
#include "eval/device_bindings.h"
#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/merge.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "eval/spec_campaign.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "minic/program.h"
#include "support/metrics.h"

namespace {

uint64_t g_start_ns = 0;  // process start, for the metrics wall clock

void report(const char* label, const std::string& name,
            const std::string& unit, minic::ExecEngine engine) {
  std::printf("%s\n", label);
  minic::Program prog = minic::compile(name, unit);
  if (!prog.ok()) {
    std::printf("  -> caught at COMPILE TIME:\n     %s\n\n",
                prog.diags.all().front().to_string().c_str());
    return;
  }
  hw::IoBus bus;
  auto disk = std::make_shared<hw::IdeDisk>();
  bus.map(0x1f0, 8, disk);
  auto out = minic::run_unit(*prog.unit, bus, "ide_boot",
                             eval::kDefaultStepBudget, engine);
  switch (out.fault) {
    case minic::FaultKind::kNone:
      std::printf("  -> NOT DETECTED: kernel boots (fingerprint %lld%s)\n\n",
                  static_cast<long long>(out.return_value),
                  disk->damaged() ? ", disk damaged!" : "");
      return;
    case minic::FaultKind::kDevilAssertion:
      std::printf("  -> caught at RUN TIME by a Devil assertion:\n     %s\n\n",
                  out.fault_message.c_str());
      return;
    case minic::FaultKind::kStepLimit:
      std::printf("  -> kernel hangs (infinite loop), tedious to debug\n\n");
      return;
    default:
      std::printf("  -> kernel halts: %s\n\n", out.fault_message.c_str());
      return;
  }
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  size_t pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

/// This process's timings: the live collector plus the wall time so far.
eval::ProcessMetrics process_metrics(unsigned threads) {
  return eval::capture_process_metrics(threads,
                                       support::monotonic_ns() - g_start_ns);
}

/// Writes a metrics artifact; maps write failures to exit code 2 (like
/// shard artifacts — same atomic write path).
int write_metrics_artifact(const std::string& path,
                           const eval::MetricsArtifact& artifact) {
  try {
    eval::save_metrics_artifact(path, artifact);
  } catch (const eval::ArtifactWriteError& e) {
    std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "wrote metrics artifact to %s\n", path.c_str());
  return 0;
}

/// `--assert-counters` for driver campaigns (the CI Release smoke): the
/// throughput machinery must have engaged — canonical dedup skipped at
/// least one mutant and the compiled-prefix cache served every unique
/// compile.
bool counters_hold(const eval::CampaignSpec& spec, const char* device,
                   const eval::DriverCampaignResult& c_res,
                   const eval::DriverCampaignResult& d_res) {
  // The walker engine compiles whole units by design, so cache hits are
  // only expected on the bytecode VM — and the bytecode patcher only runs
  // on top of the cache.
  const bool expect_cache = spec.engine == minic::ExecEngine::kBytecodeVm;
  const bool expect_patch = expect_cache && spec.bytecode_patch;
  auto check = [expect_cache, expect_patch, device](
                   const char* what, const eval::DriverCampaignResult& r) {
    if (r.deduped_mutants == 0) {
      std::fprintf(stderr, "FAIL: %s %s campaign deduped 0 mutants\n",
                   device, what);
      return false;
    }
    size_t unique = r.sampled_mutants - r.deduped_mutants;
    if (expect_cache &&
        (r.prefix_cache_hits == 0 || r.prefix_cache_hits > unique)) {
      std::fprintf(stderr,
                   "FAIL: %s %s campaign compiled %zu of %zu unique mutants "
                   "through the prefix cache\n",
                   device, what, r.prefix_cache_hits, unique);
      return false;
    }
    // Real corpora always hold both token-local mutants (patch hits) and
    // structure-changing ones (fallbacks), and only unique mutants carry
    // either bit.
    if (expect_patch &&
        (r.patch_hits == 0 || r.patch_fallbacks == 0 ||
         r.patch_hits + r.patch_fallbacks > unique)) {
      std::fprintf(stderr,
                   "FAIL: %s %s campaign patched %zu / fell back %zu over "
                   "%zu unique mutants\n",
                   device, what, r.patch_hits, r.patch_fallbacks, unique);
      return false;
    }
    return true;
  };
  return check("C", c_res) & check("CDevil", d_res);
}

/// `--assert-counters` for fault campaigns: the paper shape. The faults
/// must actually fire, and the CDevil driver must detect strictly more
/// injected hardware faults than its classic-C twin.
bool counters_hold(const eval::CampaignSpec&, const char* device,
                   const eval::FaultCampaignResult& c_res,
                   const eval::FaultCampaignResult& d_res) {
  bool ok = true;
  if (c_res.triggered_scenarios == 0 || d_res.triggered_scenarios == 0) {
    std::fprintf(stderr, "FAIL: %s fault campaigns triggered no faults "
                 "(C %zu, CDevil %zu)\n",
                 device, c_res.triggered_scenarios, d_res.triggered_scenarios);
    ok = false;
  }
  if (d_res.tally.detected() <= c_res.tally.detected()) {
    std::fprintf(stderr, "FAIL: %s CDevil driver detected %zu injected "
                 "faults, not strictly more than the C driver's %zu\n",
                 device, d_res.tally.detected(), c_res.tally.detected());
    ok = false;
  }
  // Event-driven corpora additionally assert the margin on the event rows
  // alone: the CDevil handler's in-service guard must catch interrupt
  // faults (spurious deliveries) the classic C driver absorbs silently.
  auto event_detected = [](const eval::FaultCampaignResult& r) {
    size_t n = 0;
    for (const auto& rec : r.records) {
      if (rec.plan.is_event_fault() &&
          (rec.outcome == eval::FaultOutcome::kDevilCheck ||
           rec.outcome == eval::FaultOutcome::kDriverPanic)) {
        ++n;
      }
    }
    return n;
  };
  bool has_event_rows = false;
  for (const auto& rec : c_res.records) {
    if (rec.plan.is_event_fault()) {
      has_event_rows = true;
      break;
    }
  }
  if (has_event_rows && event_detected(d_res) <= event_detected(c_res)) {
    std::fprintf(stderr, "FAIL: %s CDevil driver detected %zu event faults, "
                 "not strictly more than the C driver's %zu\n",
                 device, event_detected(d_res), event_detected(c_res));
    ok = false;
  }
  return ok;
}

/// Runs one device's C vs CDevil campaigns of kind K from the spec and
/// prints the device's report section. With `assert_counters` the result
/// also depends on counters_hold.
template <class K>
bool run_device_campaigns(const eval::CampaignSpec& spec,
                          const corpus::CampaignDrivers& drivers,
                          bool assert_counters,
                          eval::MetricsArtifact* metrics) {
  eval::DeviceConfigsOf<typename K::Config> cfgs;
  try {
    cfgs = K::configs_for(spec, drivers);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s", e.what());
    return false;
  }
  auto c_res = K::run(cfgs.c);
  auto d_res = K::run(cfgs.cdevil);

  std::fputs(
      eval::render_device_section(drivers.device, c_res, d_res).c_str(),
      stdout);
  if (metrics) {
    const char* engine = minic::exec_engine_name(spec.engine);
    auto& rows = metrics->*K::kMetricsRows;
    rows.push_back(K::metrics_row(c_res, "C", engine));
    rows.push_back(K::metrics_row(d_res, "CDevil", engine));
  }
  return !assert_counters ||
         counters_hold(spec, drivers.device, c_res, d_res);
}

/// Runs the campaigns of kind K for every corpus device the spec selects
/// (`spec.device` "all" runs each of them — the CI smoke path). `what`
/// names the campaigns in the banner, `assertion` the assertion summary.
template <class K>
int run_campaigns(const eval::CampaignSpec& spec, bool assert_counters,
                  eval::MetricsArtifact* metrics, const char* what,
                  const char* assertion) {
  std::printf("Running %s campaigns (%u thread(s), 0 = all cores, %s "
              "engine, device %s)...\n\n",
              what, spec.threads, minic::exec_engine_name(spec.engine),
              spec.device.c_str());
  bool ok = true;
  for (const auto& drivers : eval::campaign_spec_corpus(spec)) {
    ok &= run_device_campaigns<K>(spec, drivers, assert_counters, metrics);
  }
  if (assert_counters) {
    std::printf("%s assertions: %s\n", assertion, ok ? "OK" : "FAILED");
  }
  return ok ? 0 : 1;
}

/// `--spec-campaign`: Table 2 — mutate the Devil specifications themselves
/// and count what the Devil compiler rejects.
int run_spec_campaigns(const eval::CampaignSpec& spec) {
  std::printf("Running spec mutation campaigns (%u thread(s), 0 = all "
              "cores)...\n\n",
              spec.threads);
  eval::SpecCampaignConfig config = eval::spec_campaign_config_for(spec);
  std::vector<eval::SpecCampaignRow> rows;
  for (const auto& entry : corpus::all_specs()) {
    rows.push_back(eval::run_spec_campaign(entry, config));
  }
  std::fputs(eval::render_table2(rows).c_str(), stdout);
  return 0;
}

/// Runs slice `spec` of the C and CDevil campaigns of kind K for every
/// selected device into `bundle`; `tag` marks the kind in the progress
/// lines. False when a device's configs cannot be derived.
template <class K>
bool run_shard_campaigns(const eval::CampaignSpec& campaign,
                         eval::ShardSpec spec, const char* tag,
                         eval::ShardBundle& bundle) {
  auto& artifacts = bundle.*K::kBundle;
  for (const auto& drivers : eval::campaign_spec_corpus(campaign)) {
    eval::DeviceConfigsOf<typename K::Config> cfgs;
    try {
      cfgs = K::configs_for(campaign, drivers);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s", e.what());
      return false;
    }
    artifacts.push_back(K::run_shard(cfgs.c, "C", spec));
    artifacts.push_back(K::run_shard(cfgs.cdevil, "CDevil", spec));
    const auto& c = artifacts[artifacts.size() - 2];
    const auto& d = artifacts.back();
    std::fprintf(stderr,
                 "shard %s [%s%s]: C records %zu of %zu sampled, "
                 "CDevil records %zu of %zu sampled\n",
                 spec.to_string().c_str(), drivers.device, tag,
                 c.records.size(), c.sample_size, d.records.size(),
                 d.sample_size);
  }
  return true;
}

/// `--shard i/N --out FILE`: runs slice i/N of every selected campaign and
/// writes one mergeable bundle (fault campaigns when the spec says so,
/// mutation campaigns otherwise). Progress goes to stderr; stdout stays
/// quiet so shard invocations compose in scripts.
int run_shard(const eval::CampaignSpec& campaign, eval::ShardSpec spec,
              const std::string& out_path, const std::string& metrics_path) {
  eval::ShardBundle bundle;
  bundle.shard = spec;
  const bool ran =
      campaign.kind == eval::CampaignKind::kFault
          ? run_shard_campaigns<eval::FaultTraits>(campaign, spec, " faults",
                                                   bundle)
          : run_shard_campaigns<eval::MutationTraits>(campaign, spec, "",
                                                      bundle);
  if (!ran) return 1;
  if (!metrics_path.empty()) {
    // Embed the process timings in the bundle (so --merge can aggregate
    // them across the shard fleet) ...
    bundle.has_metrics = true;
    bundle.metrics = process_metrics(campaign.threads);
  }
  eval::save_shard_bundle(out_path, bundle);
  std::fprintf(stderr, "wrote shard %s artifact to %s\n",
               spec.to_string().c_str(), out_path.c_str());
  if (!metrics_path.empty()) {
    // ... and write this shard's own metrics artifact (deterministic rows
    // are shard-local: they cover this slice only).
    eval::MetricsArtifact artifact;
    for (const auto& a : bundle.campaigns) {
      artifact.campaigns.push_back(eval::shard_metrics_row(a));
    }
    for (const auto& a : bundle.fault_campaigns) {
      artifact.fault_campaigns.push_back(eval::shard_metrics_row(a));
    }
    artifact.process = bundle.metrics;
    return write_metrics_artifact(metrics_path, artifact);
  }
  return 0;
}

/// `--merge FILE...`: loads one bundle per shard, recombines them and
/// prints the same per-device sections as the single-process campaign run
/// (eval/merge.h render_merged_report — the shared renderer guarantees
/// byte identity).
int run_merge(const std::vector<std::string>& paths,
              const std::string& metrics_path) {
  std::vector<eval::ShardBundle> bundles;
  bundles.reserve(paths.size());
  for (const std::string& path : paths) {
    bundles.push_back(eval::load_shard_bundle(path));
  }
  auto merged = eval::merge_shard_bundles(bundles);
  auto fault_merged = eval::merge_fault_bundles(bundles);
  std::fputs(eval::render_merged_report(merged, fault_merged).c_str(),
             stdout);
  if (!metrics_path.empty()) {
    // Deterministic rows come from the merged results — byte-identical to
    // the single-process run's rows (the merge guarantee extends to steps
    // and baseline telemetry). Timings are the aggregate of whatever the
    // shard bundles embedded.
    eval::MetricsArtifact artifact;
    for (const auto& m : merged) {
      artifact.campaigns.push_back(
          eval::campaign_metrics_row(m.result, m.label, m.engine));
    }
    for (const auto& m : fault_merged) {
      artifact.fault_campaigns.push_back(
          eval::fault_metrics_row(m.result, m.label, m.engine));
    }
    eval::merge_bundle_metrics(bundles, &artifact.process);
    return write_metrics_artifact(metrics_path, artifact);
  }
  return 0;
}

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: mutation_hunt [MODE] [OPTIONS]\n"
      "\n"
      "Modes (default: run the single-typo scenario):\n"
      "  --threads N          run the Tables 3/4 campaigns on N workers\n"
      "                       (0 = all cores)\n"
      "  --faults             run the fault-injection campaigns instead:\n"
      "                       clean drivers against the deterministic\n"
      "                       hardware-fault scenario matrix\n"
      "  --spec-campaign      run the Table 2 spec-mutation campaign:\n"
      "                       mutate the Devil specs, count compiler\n"
      "                       rejections\n"
      "  --shard I/N --out F  run slice I of N of every selected campaign\n"
      "                       and write a mergeable shard artifact to F\n"
      "                       (fault campaigns when --faults is given)\n"
      "  --merge FILE...      merge one artifact per shard and print the\n"
      "                       single-process campaign report\n"
      "\n"
      "Campaign flags (shared by local runs and shards):\n");
  for (const eval::CampaignFlag& flag : eval::campaign_spec_flags()) {
    std::string head = flag.flag;
    if (flag.value_name) head += std::string(" ") + flag.value_name;
    std::fprintf(to, "  %-20s %s\n", head.c_str(), flag.help);
  }
  std::fprintf(
      to,
      "\n"
      "Other options:\n"
      "  --list-devices       print the campaign device names, one per\n"
      "                       line; after --faults, lists the fault-campaign\n"
      "                       corpus (adds the interrupt-driven devices)\n"
      "  --metrics FILE       write a campaign metrics artifact to FILE:\n"
      "                       deterministic counters (steps, opcode\n"
      "                       profiles, tallies — byte-identical at any\n"
      "                       thread count and across shard merges) plus\n"
      "                       process timings; composes with --faults,\n"
      "                       --shard (also embeds timings in the bundle)\n"
      "                       and --merge (aggregates embedded timings)\n"
      "  --progress           throttled records/s + ETA heartbeat on stderr\n"
      "  --assert-counters    fail unless dedup + prefix cache engaged\n"
      "                       (and, unless --no-bytecode-patch/--walker,\n"
      "                       bytecode patching both hit and fell back)\n"
      "                       (with --faults: fail unless faults fired and\n"
      "                       CDevil detected strictly more than C)\n"
      "  --help               this message\n");
  return to == stdout ? 0 : 2;
}

[[nodiscard]] int flag_error(const std::string& message) {
  std::fprintf(stderr, "mutation_hunt: %s\n\n", message.c_str());
  return usage(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  g_start_ns = support::monotonic_ns();
  eval::CampaignSpec spec;
  bool campaign_flag_given = false;  // any flag that switches to campaigns
  bool assert_counters = false;
  std::string shard_spec_text;
  std::string out_path;
  std::string metrics_path;
  std::vector<std::string> merge_paths;
  bool merge_given = false;

  // Strict flag parsing: an unrecognised flag is a hard error with a usage
  // message, never silently ignored — a typoed `--theads 8` must not
  // quietly run the default scenario and exit 0. Campaign flags resolve
  // through the shared table (eval/campaign_spec.h).
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) return nullptr;
      (void)flag;
      return argv[++i];
    };
    if (const eval::CampaignFlag* flag = eval::find_campaign_flag(arg)) {
      std::string flag_value;
      if (flag->value_name) {
        const char* v = value(arg.c_str());
        if (!v) return flag_error(arg + " needs a value");
        flag_value = v;
      }
      std::string error = eval::apply_campaign_flag(spec, *flag, flag_value);
      if (!error.empty()) return flag_error(error);
      if (flag->implies_campaign) campaign_flag_given = true;
    } else if (arg == "--progress") {
      support::ProgressMeter::set_enabled(true);
    } else if (arg == "--metrics") {
      const char* v = value("--metrics");
      if (!v) return flag_error("--metrics needs a file path");
      metrics_path = v;
    } else if (arg == "--assert-counters") {
      assert_counters = true;
    } else if (arg == "--shard") {
      const char* v = value("--shard");
      if (!v) return flag_error("--shard needs a value (e.g. 1/3)");
      shard_spec_text = v;
    } else if (arg == "--out") {
      const char* v = value("--out");
      if (!v) return flag_error("--out needs a file path");
      out_path = v;
    } else if (arg == "--merge") {
      merge_given = true;
      // Everything after --merge is an artifact path; a flag-shaped arg
      // here is almost certainly a misplaced option, not a file, and gets
      // the strict-parser treatment (prefix genuine `--foo` files with ./).
      while (i + 1 < argc) {
        const std::string path = argv[++i];
        if (path.rfind("--", 0) == 0) {
          return flag_error("'" + path + "' after --merge: flags must come "
                            "before --merge (artifact files only from here; "
                            "prefix a file literally named like a flag "
                            "with ./)");
        }
        merge_paths.push_back(path);
      }
    } else if (arg == "--list-devices") {
      // One name per line, so CI scripts can iterate the corpus registry
      // instead of hardcoding the device list. Mode-aware: after --faults
      // the listing is the fault-campaign corpus, which appends the
      // interrupt-driven devices to the polled mutation corpus.
      eval::CampaignSpec listing = spec;
      listing.device = "all";
      for (const auto& drivers : eval::campaign_spec_corpus(listing)) {
        std::printf("%s\n", drivers.device);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(stdout);
    } else {
      return flag_error("unknown flag '" + arg + "'");
    }
  }

  // `--metrics` turns the telemetry collector on for the rest of the run
  // (instrumentation points are single relaxed atomic loads otherwise).
  if (!metrics_path.empty()) support::Metrics::set_enabled(true);

  if (merge_given) {
    if (campaign_flag_given || assert_counters ||
        !shard_spec_text.empty() || !out_path.empty() ||
        spec.engine != minic::ExecEngine::kBytecodeVm) {
      return flag_error("--merge takes only artifact files and --metrics "
                        "(the merged report is determined by the artifacts "
                        "themselves)");
    }
    if (merge_paths.empty()) {
      return flag_error("--merge needs at least one artifact file");
    }
    try {
      return run_merge(merge_paths, metrics_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 1;
    }
  }

  if (!out_path.empty() && shard_spec_text.empty()) {
    return flag_error("--out only makes sense with --shard I/N");
  }

  const bool campaign_mode =
      campaign_flag_given || assert_counters || !metrics_path.empty();

  // A typoed device name (or a spec the selected kind cannot run) exits 2
  // before any campaigning starts.
  if (campaign_mode || !shard_spec_text.empty()) {
    std::vector<std::string> diags = eval::validate_campaign_spec(spec);
    if (!diags.empty()) {
      for (const std::string& d : diags) {
        std::fprintf(stderr, "mutation_hunt: %s\n", d.c_str());
      }
      return 2;
    }
  }

  if (!shard_spec_text.empty()) {
    if (out_path.empty()) {
      return flag_error("--shard needs --out FILE for the artifact");
    }
    if (assert_counters) {
      return flag_error("--assert-counters applies to full campaign runs, "
                        "not shards (counters are shard-local; merge the "
                        "artifacts instead)");
    }
    if (spec.kind == eval::CampaignKind::kSpec) {
      return flag_error("--spec-campaign has no shard slices; run it whole");
    }
    eval::ShardSpec shard;
    try {
      shard = eval::parse_shard_spec(shard_spec_text);
    } catch (const std::invalid_argument& e) {
      return flag_error(e.what());
    }
    try {
      return run_shard(spec, shard, out_path, metrics_path);
    } catch (const eval::ArtifactWriteError& e) {
      // The artifact could not be written (unwritable path, full disk):
      // exit 2 like the other preflight failures, never a partial file.
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mutation_hunt: %s\n", e.what());
      return 1;
    }
  }

  if (campaign_mode) {
    if (spec.kind == eval::CampaignKind::kSpec) {
      if (assert_counters) {
        return flag_error("--assert-counters applies to driver and fault "
                          "campaigns, not --spec-campaign");
      }
      int rc = run_spec_campaigns(spec);
      if (!metrics_path.empty()) {
        eval::MetricsArtifact artifact;
        artifact.process = process_metrics(spec.threads);
        if (int metrics_rc = write_metrics_artifact(metrics_path, artifact)) {
          return metrics_rc;
        }
      }
      return rc;
    }
    eval::MetricsArtifact artifact;
    eval::MetricsArtifact* metrics =
        metrics_path.empty() ? nullptr : &artifact;
    int rc = spec.kind == eval::CampaignKind::kFault
                 ? run_campaigns<eval::FaultTraits>(
                       spec, assert_counters, metrics, "fault-injection",
                       "fault")
                 : run_campaigns<eval::MutationTraits>(
                       spec, assert_counters, metrics, "full mutation",
                       "counter");
    if (metrics) {
      artifact.process = process_metrics(spec.threads);
      if (int metrics_rc = write_metrics_artifact(metrics_path, artifact)) {
        return metrics_rc;
      }
    }
    return rc;
  }

  std::printf("Scenario: selecting the drive, the developer writes the\n"
              "IDENTIFY command byte instead of the drive-select value.\n\n");

  // --- original C driver: ATA_LBA -> WIN_IDENTIFY at the select site -----
  std::string c_driver = replace_once(
      corpus::c_ide_driver(), "outb(ATA_LBA, IDE_SELECT);",
      "outb(WIN_IDENTIFY, IDE_SELECT);");
  report("[1] C driver, `outb(WIN_IDENTIFY, IDE_SELECT)`:", "ide_c.c",
         c_driver, spec.engine);

  // --- Devil driver, debug stubs: set_Drive(WIN_IDENTIFY) ----------------
  auto debug = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                   devil::CodegenMode::kDebug);
  std::string d_driver = replace_once(corpus::cdevil_ide_driver(),
                                      "set_Drive(MASTER)",
                                      "set_Drive(WIN_IDENTIFY)");
  report("[2] Devil driver (debug stubs), `set_Drive(WIN_IDENTIFY)`:",
         "ide.dil", debug.stubs + "\n" + d_driver, spec.engine);

  // --- Devil driver, production stubs: same typo -------------------------
  auto prod = devil::compile_spec("ide.dil", corpus::ide_spec(),
                                  devil::CodegenMode::kProduction);
  report("[3] Devil driver (production stubs), same typo:", "ide.dil",
         prod.stubs + "\n" + d_driver, spec.engine);

  // --- a same-type confusion that types cannot catch ---------------------
  std::string swap = replace_once(corpus::cdevil_ide_driver(),
                                  "dil_eq(get_Busy(), BUSY)",
                                  "dil_eq(get_Seek(), BUSY)");
  report("[4] Devil driver (debug), wrong getter inside dil_eq:", "ide.dil",
         debug.stubs + "\n" + swap, spec.engine);

  std::printf("Summary: Devil turns silent C-level typos into compile-time\n"
              "type errors (debug stubs) or precise run-time assertions; the\n"
              "same code built with production stubs behaves like C again.\n");
  return 0;
}
