// Test support: the Devil spec edits the front-end sweeps run over. A clean
// spec's tokens, the names its mutants are generated from, and seeded random
// edits that add and remove lines, comments, quotes and partial operators.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "corpus/specs.h"
#include "devil/compiler.h"
#include "mutation/devil_mutator.h"
#include "support/rng.h"

namespace devil_edits {

/// A clean spec's buffer and the tokens that view it.
struct Base {
  explicit Base(const corpus::SpecEntry& spec) : buf(spec.file, spec.text) {
    devil::CompileResult result;
    tokens = devil::lex_spec(buf, result);
    EXPECT_FALSE(result.diags.has_errors()) << result.diags.render();
  }
  Base(const Base&) = delete;
  Base& operator=(const Base&) = delete;

  const support::SourceBuffer buf;
  std::vector<devil::Token> tokens;
};

/// The names the Devil mutator draws its replacements from.
inline mutation::DevilNames names_from(const devil::DeviceInfo& info) {
  mutation::DevilNames names;
  for (const auto& p : info.decl->params) names.ports.push_back(p.name);
  for (const auto& r : info.decl->registers) names.registers.push_back(r.name);
  for (const auto& v : info.decl->variables) names.variables.push_back(v.name);
  return names;
}

/// The random-edit sweeps draw kEditsPerSpec edits from one kSeed generator,
/// spec after spec: 10,240 edits over the 5 specs.
constexpr uint64_t kSeed = 0x5eed'de71;
constexpr size_t kEditsPerSpec = 2048;

/// Byte fragments the random edits are built from: everything that starts,
/// ends or extends a token or a comment, plus line breaks.
constexpr const char* kFragments[] = {
    "\n", "'", "/*", "*/", "//", ".", "<", "=", ">", "0", "1",
    "7", "9", "0x", "a", "f", "x", "_", "Z", " ", ",", "{",
};

/// One random edit of a base text: the position, and the bytes that
/// replace `edit.old_len` bytes there.
struct RandomEdit {
  devil::TextEdit edit;
  std::string bytes;

  [[nodiscard]] std::string apply(std::string text) const {
    return text.replace(edit.offset, edit.old_len, bytes);
  }
};

/// An edit offset: the start, the end, a token boundary (give or take a
/// byte) or anywhere.
inline size_t random_offset(support::SplitMix64& rng, const Base& base) {
  const size_t size = base.buf.text().size();
  switch (rng.next_below(5)) {
    case 0: return 0;
    case 1: return size;
    case 2:
    case 3: {
      const devil::Token& t = base.tokens[rng.next_below(base.tokens.size())];
      const size_t at =
          rng.chance(1, 2) ? t.range.begin.offset : t.range.end.offset;
      const size_t nudged = at + rng.next_below(3);
      return nudged == 0 ? 0 : std::min(nudged - 1, size);
    }
    default: return rng.next_below(size + 1);
  }
}

/// Inserts, deletes or replaces 0 to 8 bytes.
inline RandomEdit random_edit(support::SplitMix64& rng, const Base& base) {
  RandomEdit out;
  devil::TextEdit& edit = out.edit;
  edit.offset = random_offset(rng, base);
  const size_t room = base.buf.text().size() - edit.offset;
  const uint64_t op = rng.next_below(3);  // insert, delete, replace
  if (op != 0) edit.old_len = std::min<size_t>(rng.next_below(9), room);
  if (op != 1) edit.new_len = rng.next_below(9);
  while (out.bytes.size() < edit.new_len) {
    out.bytes += kFragments[rng.next_below(std::size(kFragments))];
  }
  out.bytes.resize(edit.new_len);
  return out;
}

/// The next kEditsPerSpec edits of `base` from `rng`.
inline std::vector<RandomEdit> random_edits(support::SplitMix64& rng,
                                            const Base& base) {
  std::vector<RandomEdit> edits;
  edits.reserve(kEditsPerSpec);
  for (size_t n = 0; n < kEditsPerSpec; ++n) {
    edits.push_back(random_edit(rng, base));
  }
  return edits;
}

}  // namespace devil_edits
