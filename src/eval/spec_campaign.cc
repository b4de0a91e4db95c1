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
/// and of the common suffix of what follows it. The first `known` elements
/// are already known to be equal.
template <typename Seq, typename Eq>
std::pair<size_t, size_t> diff_bounds(const Seq& base, const Seq& seq, Eq eq,
                                      size_t known = 0) {
  const size_t n = std::min(base.size(), seq.size());
  size_t prefix = std::min(known, n);
  while (prefix < n && eq(base[prefix], seq[prefix])) ++prefix;
  size_t suffix = 0;
  while (suffix < n - prefix &&
         eq(base[base.size() - 1 - suffix], seq[seq.size() - 1 - suffix])) {
    ++suffix;
  }
  return {prefix, suffix};
}

/// Dedup key of a mutant that lexes: its token diff against the unmutated
/// spec's tokens, with the middle tokens encoded as (kind, line, integer
/// value or spelling). Two mutants get equal keys exactly when their whole
/// token streams are equal under `same_token`, the classes the Devil front
/// end cannot tell apart; the key is a few dozen bytes instead of the
/// stream.
std::string token_diff_key(const std::vector<devil::Token>& base,
                           const std::vector<devil::Token>& tokens,
                           size_t splice_offset) {
  // Tokens that end before the splice are the unmutated spec's: each token
  // is decided by the bytes up to and including its end offset
  // (devil::Lexer::lex_all), and those bytes are unchanged.
  const size_t known =
      std::partition_point(base.begin(), base.end(),
                           [&](const devil::Token& t) {
                             return t.range.end.offset < splice_offset;
                           }) -
      base.begin();
  auto [prefix, suffix] = diff_bounds(base, tokens, same_token, known);
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

  // One pass: each worker splices its mutant, lexes it once, keys it on the
  // tokens and hands the same tokens to the parser and sema. Workers write
  // only their own index; everything order-sensitive runs after the join,
  // so any thread count yields the identical row.
  std::vector<std::string> keys(config.dedup ? mutants.size() : 0);
  std::vector<uint8_t> detected(mutants.size(), 0);
  support::parallel_for(mutants.size(), config.threads, [&](size_t i) {
    const support::SourceBuffer buf(
        spec.file, mutation::apply_mutant(spec.text, sites, mutants[i]));
    devil::CompileResult result;
    std::vector<devil::Token> tokens = devil::lex_spec(buf, result);
    if (config.dedup) {
      keys[i] = result.diags.has_errors()
                    ? text_diff_key(spec.text, buf.text())
                    : token_diff_key(base_tokens, tokens,
                                     sites[mutants[i].site].offset);
    }
    devil::check_tokens(std::move(tokens), result);
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
