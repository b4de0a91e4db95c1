#include "eval/spec_campaign.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "devil/compiler.h"
#include "mutation/devil_mutator.h"
#include "support/parallel.h"
#include "support/strings.h"

namespace eval {

namespace {

mutation::DevilNames names_from(const devil::DeviceInfo& info) {
  mutation::DevilNames names;
  for (const auto& p : info.decl->params) names.ports.push_back(p.name);
  for (const auto& r : info.decl->registers) names.registers.push_back(r.name);
  for (const auto& v : info.decl->variables) names.variables.push_back(v.name);
  return names;
}

/// Whether the dedup key tells two tokens apart: kind, line, and the
/// integer value (not its spelling) or the spelling.
bool same_token(const devil::Token& a, const devil::Token& b) {
  return a.kind == b.kind && a.range.begin.line == b.range.begin.line &&
         (a.kind == devil::TokKind::kInt ? a.int_value == b.int_value
                                         : a.text == b.text);
}

template <typename T>
void append_raw(std::string& key, T v) {
  key.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Minimal diff of `seq` against `base`: the length of their common prefix,
/// and of the common suffix of what follows it. The first `known_prefix`
/// elements, and the last `known_suffix` (aligned at the ends), are already
/// known to be equal.
template <typename Seq, typename Eq>
std::pair<size_t, size_t> diff_bounds(const Seq& base, const Seq& seq, Eq eq,
                                      size_t known_prefix = 0,
                                      size_t known_suffix = 0) {
  const size_t n = std::min(base.size(), seq.size());
  size_t prefix = std::min(known_prefix, n);
  while (prefix < n && eq(base[prefix], seq[prefix])) ++prefix;
  size_t suffix = std::min(known_suffix, n - prefix);
  while (suffix < n - prefix &&
         eq(base[base.size() - 1 - suffix], seq[seq.size() - 1 - suffix])) {
    ++suffix;
  }
  return {prefix, suffix};
}

/// A token diff against the unmutated spec's tokens as a key: the common
/// prefix and suffix lengths, and the tokens between them as (kind, line,
/// integer value or spelling).
std::string encode_diff_key(const std::vector<devil::Token>& tokens,
                            size_t prefix, size_t suffix) {
  std::string key = "t";
  append_raw(key, static_cast<uint64_t>(prefix));
  append_raw(key, static_cast<uint64_t>(suffix));
  for (size_t i = prefix; i < tokens.size() - suffix; ++i) {
    const devil::Token& t = tokens[i];
    key.push_back(static_cast<char>(t.kind));
    append_raw(key, t.range.begin.line);
    if (t.kind == devil::TokKind::kInt) {
      append_raw(key, t.int_value);
    } else if (!t.text.empty()) {
      key.append(t.text);
      key.push_back('\0');
    }
  }
  return key;
}

/// Dedup key of a mutant that lexes: the minimal diff (`diff_bounds`) of
/// its `devil::relex_spec` tokens against the unmutated spec's. Two mutants
/// get equal keys exactly when their whole token streams are equal under
/// `same_token`, the classes the Devil front end cannot tell apart; the key
/// is a few dozen bytes instead of the stream. The tokens before the
/// relexed window are the base's, and so is the shifted suffix after it
/// unless the mutant adds or removes a line, which `same_token` tells
/// apart; the diff walks only the window and what matches past its edges.
std::string token_diff_key(const std::vector<devil::Token>& base,
                           const std::vector<devil::Token>& tokens,
                           const devil::RelexWindow& w) {
  auto [prefix, suffix] =
      diff_bounds(base, tokens, same_token, w.begin,
                  w.line_delta == 0 ? tokens.size() - w.end : 0);
  return encode_diff_key(tokens, prefix, suffix);
}

/// Dedup key of a mutant that does not lex: its byte diff against the
/// unmutated text, so only byte-identical mutants share it.
std::string text_diff_key(std::string_view base, std::string_view text) {
  auto [prefix, suffix] =
      diff_bounds(base, text, [](char a, char b) { return a == b; });
  std::string key = "!";
  append_raw(key, static_cast<uint64_t>(prefix));
  append_raw(key, static_cast<uint64_t>(suffix));
  key.append(text.substr(prefix, text.size() - prefix - suffix));
  return key;
}

}  // namespace

SpecCampaignRow run_spec_campaign(const corpus::SpecEntry& spec,
                                  const SpecCampaignConfig& config) {
  const support::SourceBuffer base_buf(spec.file, spec.text);
  devil::CompileResult baseline;
  const std::vector<devil::Token> base_tokens =
      devil::lex_spec(base_buf, baseline);
  devil::check_tokens(base_tokens, baseline);
  if (!baseline.ok()) {
    throw std::logic_error("unmutated spec '" + spec.name +
                           "' fails the Devil compiler:\n" +
                           baseline.diags.render());
  }

  SpecCampaignRow row;
  row.name = spec.name;
  row.code_lines = support::count_code_lines(spec.text);

  mutation::DevilNames names = names_from(*baseline.info);
  auto sites = mutation::scan_devil_sites(spec.text, names);
  auto mutants = mutation::generate_devil_mutants(sites, names);
  row.sites = sites.size();
  row.mutants = mutants.size();

  // One pass: each worker splices its mutant, relexes only the window
  // around the edit (the rest of its tokens are the unmutated spec's), keys
  // it on the tokens and hands the same tokens to the parser and sema,
  // which stops at the first error: only the verdict is read. Workers
  // write only their own index; everything order-sensitive runs after the
  // join, so any thread count yields the identical row.
  std::vector<std::string> keys(config.dedup ? mutants.size() : 0);
  std::vector<uint8_t> detected(mutants.size(), 0);
  support::parallel_for(mutants.size(), config.threads, [&](size_t i) {
    const mutation::Site& site = sites[mutants[i].site];
    const support::SourceBuffer buf(
        spec.file, mutation::apply_mutant(spec.text, sites, mutants[i]));
    devil::CompileResult result;
    devil::RelexWindow window;
    std::vector<devil::Token> tokens = devil::relex_spec(
        buf, base_tokens,
        {site.offset, site.length, mutants[i].replacement.size()}, result,
        &window);
    if (config.dedup) {
      keys[i] = result.diags.has_errors()
                    ? text_diff_key(spec.text, buf.text())
                    : token_diff_key(base_tokens, tokens, window);
    }
    devil::check_tokens(std::move(tokens), result,
                        devil::CheckMode::kFirstError);
    detected[i] = result.ok() ? 0 : 1;
  });

  // Every mutant is checked, duplicates too: a duplicate whose verdict
  // differs from its class representative's breaks the assumption that
  // equal tokens get equal verdicts, and that is a front-end bug.
  if (config.dedup) {
    std::unordered_map<std::string, size_t> first_seen;
    first_seen.reserve(mutants.size());
    for (size_t i = 0; i < mutants.size(); ++i) {
      auto [it, inserted] = first_seen.emplace(std::move(keys[i]), i);
      if (inserted) continue;
      ++row.deduped;
      if (detected[i] != detected[it->second]) {
        throw std::logic_error(
            "spec '" + spec.name + "': mutant " + std::to_string(i) +
            " has the tokens of mutant " + std::to_string(it->second) +
            " but a different verdict");
      }
    }
  }

  for (size_t i = 0; i < mutants.size(); ++i) {
    if (detected[i]) {
      ++row.detected;
    } else if (row.undetected_samples.size() < config.max_survivor_samples) {
      const auto& s = sites[mutants[i].site];
      row.undetected_samples.push_back(
          "line " + std::to_string(s.line) + ": '" + s.original + "' -> '" +
          mutants[i].replacement + "'");
    }
  }
  return row;
}

SpecCampaignRow run_spec_campaign(const corpus::SpecEntry& spec,
                                  size_t max_survivor_samples) {
  SpecCampaignConfig config;
  config.max_survivor_samples = max_survivor_samples;
  return run_spec_campaign(spec, config);
}

std::vector<SpecCampaignRow> run_all_spec_campaigns(unsigned threads) {
  SpecCampaignConfig config;
  config.threads = threads;
  std::vector<SpecCampaignRow> rows;
  for (const auto& spec : corpus::all_specs()) {
    rows.push_back(run_spec_campaign(spec, config));
  }
  return rows;
}

}  // namespace eval
