// Table 2 campaign: inject Devil-spec mutants, count how many the Devil
// compiler rejects.
#pragma once

#include <string>
#include <vector>

#include "corpus/specs.h"

namespace eval {

struct SpecCampaignRow {
  std::string name;
  int code_lines = 0;        // non-blank, non-comment lines (Table 2 col 1)
  size_t sites = 0;          // mutation sites (col 2)
  size_t mutants = 0;        // injected mutants (col 3)
  size_t detected = 0;       // rejected by the Devil compiler
  /// Mutants whose token stream (kind, line, integer value or spelling)
  /// equals an earlier mutant's, so the Devil front end cannot tell them
  /// apart. They are still checked, and the campaign throws
  /// std::logic_error if one's verdict differs from the earlier mutant's.
  size_t deduped = 0;
  std::vector<std::string> undetected_samples;  // a few survivors, for study
};

struct SpecCampaignConfig {
  size_t max_survivor_samples = 8;
  /// Worker threads checking mutants; 0 = hardware_concurrency. Rows are
  /// identical at any thread count (detection flags are written per-index
  /// and reduced in mutant order after the join).
  unsigned threads = 1;
  /// Key every mutant on its token diff against the unmutated spec and
  /// count and cross-check the duplicates (`SpecCampaignRow::deduped`).
  /// Every mutant is checked either way.
  bool dedup = true;
};

/// Runs the full (unsampled) mutation campaign over one specification.
/// Precondition: the unmutated spec must pass the Devil compiler; throws
/// std::logic_error otherwise (that is a corpus bug, not a result).
[[nodiscard]] SpecCampaignRow run_spec_campaign(
    const corpus::SpecEntry& spec, const SpecCampaignConfig& config);

/// Convenience overload keeping the original signature.
[[nodiscard]] SpecCampaignRow run_spec_campaign(const corpus::SpecEntry& spec,
                                                size_t max_survivor_samples = 8);

/// All five Table 2 rows.
[[nodiscard]] std::vector<SpecCampaignRow> run_all_spec_campaigns(
    unsigned threads = 1);

}  // namespace eval
