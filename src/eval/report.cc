#include "eval/report.h"

#include <algorithm>
#include <sstream>

#include "eval/campaign_kinds.h"
#include "support/table.h"

namespace eval {

std::string render_table2(const std::vector<SpecCampaignRow>& rows) {
  support::TextTable t({"Specification", "Number of lines",
                        "Number of mutation sites", "Number of injected mutants",
                        "% of detected mutants"});
  for (const auto& r : rows) {
    t.add_row({r.name, std::to_string(r.code_lines), std::to_string(r.sites),
               std::to_string(r.mutants),
               support::percent(r.detected, r.mutants)});
  }
  return t.render();
}

namespace {

template <class Result>
support::TextTable build_table(const Result& r) {
  using K = traits_of<Result>;
  const std::string units = K::kUnits;
  support::TextTable t({"", std::string("Number of ") + K::kKeys,
                        "Number of " + units,
                        "Concerned " + units + " / total nb. of " + units});
  for (const auto& [o, only_when_seen] : K::kRows) {
    const size_t n = K::count(r.tally, o);
    if (only_when_seen && n == 0) continue;
    t.add_row({K::name(o), std::to_string(K::key_count(r.tally, o)),
               std::to_string(n), support::percent(n, K::sampled(r))});
  }
  t.add_separator();
  t.add_row({"Total", std::to_string(K::total_keys(r)),
             std::to_string(K::sampled(r)), "N/A"});
  return t;
}

template <class Result>
std::string render_table_at(const std::string& title, const Result& r,
                            const support::TextTable& t,
                            const std::vector<size_t>& widths) {
  using K = traits_of<Result>;
  std::ostringstream os;
  os << title << "\n";
  os << t.render(widths);
  os << "(" << K::generated(r) << " " << K::kUnits << " generated, "
     << K::sampled(r) << " sampled for testing" << K::footer(r);
  if (!r.device.empty()) os << ", device " << r.device;
  if (!r.entry.empty()) os << ", entry " << r.entry;
  os << ")\n";
  return os.str();
}

/// Element-wise max of two tables' natural widths: the shared column grid
/// for a C/CDevil table pair, so the two tables of one device section line
/// up even when only one of them carries the long outcome labels.
std::vector<size_t> shared_widths(const support::TextTable& a,
                                  const support::TextTable& b) {
  std::vector<size_t> wa = a.measure();
  std::vector<size_t> wb = b.measure();
  if (wb.size() > wa.size()) wa.resize(wb.size(), 0);
  for (size_t c = 0; c < wb.size(); ++c) wa[c] = std::max(wa[c], wb[c]);
  return wa;
}

/// Appends an indented flight-recorder tail (hw::FlightRecorder::
/// render_tail) under a one-line record header.
void append_trace(std::ostringstream& os, const std::string& trace) {
  size_t pos = 0;
  while (pos < trace.size()) {
    size_t nl = trace.find('\n', pos);
    if (nl == std::string::npos) nl = trace.size();
    os << "    " << trace.substr(pos, nl - pos) << "\n";
    pos = nl + 1;
  }
}

}  // namespace

template <class Result>
std::string render_table(const std::string& title, const Result& r) {
  return render_table_at(title, r, build_table(r), {});
}

template <class Result>
std::string render_comparison(const Result& c_result, const Result& d_result) {
  using K = traits_of<Result>;
  auto pct = [](size_t n, size_t d) {
    return d == 0 ? 0.0 : 100.0 * static_cast<double>(n) /
                              static_cast<double>(d);
  };
  double c_detected = pct(c_result.tally.detected(), K::sampled(c_result));
  double d_detected = pct(d_result.tally.detected(), K::sampled(d_result));
  double c_worst = pct(K::count(c_result.tally, K::kWorst), K::sampled(c_result));
  double d_worst = pct(K::count(d_result.tally, K::kWorst), K::sampled(d_result));

  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  if (!c_result.device.empty() || !d_result.device.empty()) {
    os << "Device under test: " << c_result.device;
    if (d_result.device != c_result.device) {
      os << " (C) vs " << d_result.device << " (CDevil)";
    }
    os << "\n";
  }
  os << K::kDetected << "\n";
  os << "  original C driver : " << c_detected << " %\n";
  os << "  Devil (CDevil)    : " << d_detected << " %";
  if (c_detected > 0) {
    os << "   (" << (d_detected / c_detected) << "x more "
       << K::kDetectedRatio << ")";
  }
  os << "\n";
  os << K::kWorstHeading << " (the worst case for the developer):\n";
  os << "  original C driver : " << c_worst << " %\n";
  os << "  Devil (CDevil)    : " << d_worst << " %";
  if (d_worst > 0) {
    os << "   (" << (c_worst / d_worst) << "x fewer " << K::kWorstRatio << ")";
  }
  os << "\n";
  return os.str();
}

template <class Result>
std::string render_campaign_tables(const Result& c_result,
                                   const Result& d_result) {
  using K = traits_of<Result>;
  // Each table is tagged with its own result's device, so a mismatched
  // pair (wiring mistake, or a deliberate cross-device comparison) is
  // visible instead of silently labelled after the first result.
  auto tag = [](const Result& r) {
    return r.device.empty() ? std::string() : " (" + r.device + ")";
  };
  // The pair shares one column grid: a row label or count that only one of
  // the two campaigns produces (a run-time check line, a long driver label)
  // widens both tables, keeping the device section aligned.
  support::TextTable c_table = build_table(c_result);
  support::TextTable d_table = build_table(d_result);
  std::vector<size_t> widths = shared_widths(c_table, d_table);
  std::ostringstream os;
  os << render_table_at(K::kTitles[0] + tag(c_result), c_result, c_table,
                        widths)
     << "\n"
     << render_table_at(K::kTitles[1] + tag(d_result), d_result, d_table,
                        widths)
     << "\n" << render_comparison(c_result, d_result);
  return os.str();
}

namespace {

/// Flight-recorder post-mortems: one block per traced record (non-clean
/// boots of a campaign run with DriverCampaignConfig::flight_recorder),
/// capped at the first `cap` records so multi-thousand-record runs stay
/// readable. Returns "" when no record carries a trace.
template <class Result>
std::string render_postmortems(const std::string& title, const Result& r,
                               size_t cap) {
  using K = traits_of<Result>;
  size_t traced = 0;
  for (const auto& rec : r.records) {
    if (!rec.trace.empty()) ++traced;
  }
  if (traced == 0 || cap == 0) return {};
  std::ostringstream os;
  os << "Flight-recorder post-mortems: " << title << " (first "
     << std::min(cap, traced) << " of " << traced << " traced records)\n";
  size_t shown = 0;
  for (const auto& rec : r.records) {
    if (rec.trace.empty()) continue;
    if (shown == cap) break;
    ++shown;
    os << "  " << K::describe(rec) << ": " << K::name(rec.outcome);
    if (!rec.detail.empty()) os << " (" << rec.detail << ")";
    os << "\n";
    append_trace(os, rec.trace);
  }
  return os.str();
}

}  // namespace

template <class Result>
std::string render_device_section(const std::string& device,
                                  const Result& c_result,
                                  const Result& d_result) {
  using K = traits_of<Result>;
  std::ostringstream os;
  os << "=== " << device << K::kBanner << " ===\n\n"
     << render_campaign_tables(c_result, d_result) << "\n"
     << K::kCounters << " [" << device << "]: C " << K::counters(c_result)
     << "; CDevil " << K::counters(d_result) << "\n";
  // Empty unless the campaign ran with the flight recorder (traces ride in
  // the records, so merged reports print identical post-mortems).
  std::string pm = render_postmortems("C", c_result, 3) +
                   render_postmortems("CDevil", d_result, 3);
  if (!pm.empty()) os << "\n" << pm;
  return os.str();
}

template std::string render_table(const std::string&,
                                  const DriverCampaignResult&);
template std::string render_table(const std::string&,
                                  const FaultCampaignResult&);
template std::string render_comparison(const DriverCampaignResult&,
                                       const DriverCampaignResult&);
template std::string render_campaign_tables(const DriverCampaignResult&,
                                            const DriverCampaignResult&);
template std::string render_device_section(const std::string&,
                                           const DriverCampaignResult&,
                                           const DriverCampaignResult&);
template std::string render_device_section(const std::string&,
                                           const FaultCampaignResult&,
                                           const FaultCampaignResult&);

}  // namespace eval
