// devil::relex_spec against a full devil::lex_spec. The Table 2 campaign
// builds each mutant's tokens from the clean spec's, relexing only a window
// around the edit, so every spliced stream must be the full lex token for
// token (kind, begin and end offset/line/column, spelling, integer value)
// and diagnostic for diagnostic. Two sweeps check that: every one of the
// 16,604 campaign mutants, and seeded random edits that also add and remove
// lines, comments, quotes and partial operators.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "corpus/specs.h"
#include "devil/compiler.h"
#include "devil_edits.h"
#include "mutation/devil_mutator.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace {

using devil_edits::Base;
using devil_edits::RandomEdit;

std::string describe(const devil::Token& t) {
  auto loc = [](const support::SourceLoc& l) {
    return std::to_string(l.offset) + "@" + std::to_string(l.line) + ":" +
           std::to_string(l.column);
  };
  return std::string(devil::tok_kind_name(t.kind)) + " '" +
         std::string(t.text) + "' " + loc(t.range.begin) + "-" +
         loc(t.range.end) + " value " + std::to_string(t.int_value);
}

/// Empty when the two streams are identical, else the first difference.
std::string stream_diff(const std::vector<devil::Token>& want,
                        const std::vector<devil::Token>& got) {
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    const devil::Token& a = want[i];
    const devil::Token& b = got[i];
    if (a.kind != b.kind || a.range.begin != b.range.begin ||
        a.range.end != b.range.end || a.text != b.text ||
        a.int_value != b.int_value) {
      return "token " + std::to_string(i) + ": lexed " + describe(a) +
             ", relexed " + describe(b);
    }
  }
  if (want.size() != got.size()) {
    return "lexed " + std::to_string(want.size()) + " tokens, relexed " +
           std::to_string(got.size());
  }
  return "";
}

/// The tokens of `buf`, the base text after `edit`, from `relex_spec` into
/// `result`. `mismatch` gets the first difference from a full `lex_spec` of
/// `buf`, in the tokens or the rendered diagnostics, and is left empty when
/// there is none.
std::vector<devil::Token> relex_and_compare(const support::SourceBuffer& buf,
                                            const Base& base,
                                            const devil::TextEdit& edit,
                                            devil::CompileResult& result,
                                            std::string& mismatch) {
  devil::CompileResult full;
  const auto want = devil::lex_spec(buf, full);
  auto got = devil::relex_spec(buf, base.tokens, edit, result);
  mismatch = stream_diff(want, got);
  if (mismatch.empty() && full.diags.render() != result.diags.render()) {
    mismatch = "diagnostics differ:\n" + full.diags.render() + "vs\n" +
               result.diags.render();
  }
  return got;
}

TEST(DevilRelex, EverySpecMutantMatchesAFullLex) {
  size_t checked = 0;
  for (const corpus::SpecEntry& spec : corpus::all_specs()) {
    const Base base(spec);
    const auto clean = devil::check_spec(spec.file, spec.text);
    ASSERT_TRUE(clean.ok()) << clean.diags.render();
    const auto names = devil_edits::names_from(*clean.info);
    const auto sites = mutation::scan_devil_sites(spec.text, names);
    const auto mutants = mutation::generate_devil_mutants(sites, names);
    std::vector<std::string> diffs(mutants.size());
    support::parallel_for(mutants.size(), 0, [&](size_t i) {
      const mutation::Site& site = sites[mutants[i].site];
      const support::SourceBuffer buf(
          spec.file, mutation::apply_mutant(spec.text, sites, mutants[i]));
      devil::CompileResult result;
      (void)relex_and_compare(
          buf, base, {site.offset, site.length, mutants[i].replacement.size()},
          result, diffs[i]);
    });
    for (size_t i = 0; i < mutants.size(); ++i) {
      EXPECT_EQ(diffs[i], "") << spec.name << " mutant " << i;
    }
    checked += mutants.size();
  }
  EXPECT_EQ(checked, 16604u);
}

TEST(DevilRelex, RandomEditsMatchAFullLexAndNeverCrashTheChecker) {
  support::SplitMix64 rng(devil_edits::kSeed);
  size_t rejected = 0;
  for (const corpus::SpecEntry& spec : corpus::all_specs()) {
    const Base base(spec);
    const std::vector<RandomEdit> edits = devil_edits::random_edits(rng, base);
    std::vector<std::string> diffs(edits.size());
    // 1: accepted, 0: rejected with a diagnostic, 2: neither.
    std::vector<uint8_t> verdicts(edits.size());
    support::parallel_for(edits.size(), 0, [&](size_t i) {
      const support::SourceBuffer buf(spec.file, edits[i].apply(spec.text));
      devil::CompileResult result;
      auto tokens =
          relex_and_compare(buf, base, edits[i].edit, result, diffs[i]);
      // Untrusted text: a diagnostic or a clean compile, never a crash.
      // check_spec is lex_spec then check_tokens, and the tokens are equal.
      devil::check_tokens(std::move(tokens), result);
      verdicts[i] = result.ok() ? 1 : result.diags.has_errors() ? 0 : 2;
    });
    for (size_t i = 0; i < edits.size(); ++i) {
      const devil::TextEdit& edit = edits[i].edit;
      ASSERT_EQ(diffs[i], "")
          << spec.name << " edit " << i << " at " << edit.offset << ": -"
          << edit.old_len << " +'" << edits[i].bytes << "'";
      ASSERT_NE(verdicts[i], 2) << spec.name << " edit " << i;
      if (verdicts[i] == 0) ++rejected;
    }
  }
  // Most random edits break the spec; some (whitespace, a comment) do not.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, devil_edits::kEditsPerSpec * corpus::all_specs().size());
}

}  // namespace
