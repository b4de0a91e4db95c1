// Renders campaign results in the layout of the paper's tables. The boot
// campaigns of both kinds — driver mutation (Tables 3/4) and fault
// injection (Tables F3/F4) — print through one set of templates; the
// wording that differs comes from the kind's traits (eval/campaign_kinds.h).
// report.cc instantiates render_table and render_device_section for both
// result types, the comparison and table pair for driver campaigns.
#pragma once

#include <string>
#include <vector>

#include "eval/driver_campaign.h"
#include "eval/fault_campaign.h"
#include "eval/spec_campaign.h"

namespace eval {

/// Table 2: "Mutation coverage of the Devil compiler".
[[nodiscard]] std::string render_table2(
    const std::vector<SpecCampaignRow>& rows);

/// One campaign's table: the detection rows, the boot behaviours, then
/// totals, as in the paper's Tables 3/4 (fault tables list per-port counts
/// and show the Devil-check row only when a check fired, like the run-time
/// check row). The footer gives the generated and sampled counts and names
/// the device binding when the result carries one.
template <class Result>
[[nodiscard]] std::string render_table(const std::string& title,
                                       const Result& result);

/// The headline comparison of a device's two campaigns (the paper's §4.2
/// narrative): the detected fraction, the worst-case fraction (undetected
/// "Boot" mutants; silent corrupt boots under faults) and their ratios.
/// Labels the device when the results carry one.
template <class Result>
[[nodiscard]] std::string render_comparison(const Result& c_result,
                                            const Result& cdevil_result);

/// One device's full evaluation: the original C driver's table, the CDevil
/// driver's table on a shared column grid, and the comparison.
template <class Result>
[[nodiscard]] std::string render_campaign_tables(const Result& c_result,
                                                 const Result& cdevil_result);

/// One device's complete report section: the "=== device ===" banner, the
/// paired campaign tables, the counter line and (when any record carries a
/// trace) the first three flight-recorder post-mortems of each campaign.
/// The single-process CLI run and `--merge` both print report bodies
/// through this one function, so their outputs are byte-comparable by
/// construction.
template <class Result>
[[nodiscard]] std::string render_device_section(const std::string& device,
                                                const Result& c_result,
                                                const Result& cdevil_result);

/// Named forms of the templates above.
[[nodiscard]] inline std::string render_driver_table(
    const std::string& title, const DriverCampaignResult& result) {
  return render_table(title, result);
}
[[nodiscard]] inline std::string render_fault_table(
    const std::string& title, const FaultCampaignResult& result) {
  return render_table(title, result);
}
[[nodiscard]] inline std::string render_fault_section(
    const std::string& device, const FaultCampaignResult& c_result,
    const FaultCampaignResult& cdevil_result) {
  return render_device_section(device, c_result, cdevil_result);
}

}  // namespace eval
