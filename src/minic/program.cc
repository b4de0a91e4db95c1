#include "minic/program.h"

#include <algorithm>
#include <optional>

#include "minic/bytecode/vm.h"
#include "minic/lexer.h"
#include "minic/parser.h"
#include "minic/typecheck.h"
#include "support/metrics.h"

namespace minic {

namespace {

using support::Stage;
using support::StageTimer;

/// Parse + typecheck a finished token stream into `prog`.
void finish_compile(Program& prog, std::vector<Token> tokens,
                    std::map<std::string, std::set<uint32_t>> macro_use_lines) {
  std::unique_ptr<Unit> owned;
  {
    StageTimer timer(Stage::kParse);
    Parser parser(std::move(tokens), prog.diags);
    auto unit = parser.parse();
    if (!unit) return;
    unit->macro_use_lines = std::move(macro_use_lines);
    owned = std::make_unique<Unit>(std::move(*unit));
  }
  StageTimer timer(Stage::kTypecheck);
  if (!typecheck(*owned, prog.diags)) return;
  prog.unit = std::move(owned);
}

}  // namespace

Program compile(const std::string& name, const std::string& source) {
  Program prog;
  support::SourceBuffer buf(name, source);
  LexOutput lexed = [&] {
    StageTimer timer(Stage::kLex);
    return lex_unit(buf, prog.diags);
  }();
  if (prog.diags.has_errors()) return prog;

  finish_compile(prog, std::move(lexed.tokens),
                 std::move(lexed.macro_use_lines));
  return prog;
}

PreparedPrefix prepare_prefix(const std::string& name,
                              const std::string& prefix_text) {
  PreparedPrefix prefix;
  prefix.name = name;
  prefix.lines = static_cast<uint32_t>(
      std::count(prefix_text.begin(), prefix_text.end(), '\n'));
  support::SourceBuffer buf(name, prefix_text);
  LexOutput lexed = lex_unit(buf, prefix.diags);
  if (prefix.diags.has_errors()) return prefix;
  // Drop the trailing kEof: the tail's tokens continue the stream.
  if (!lexed.tokens.empty() && lexed.tokens.back().is(Tok::kEof)) {
    lexed.tokens.pop_back();
  }
  prefix.tokens = std::move(lexed.tokens);
  prefix.macros = std::move(lexed.macros);
  prefix.macro_use_lines = std::move(lexed.macro_use_lines);

  // Stage 1 of the compiled-prefix pipeline: parse, typecheck and lower the
  // prefix once. A prefix that does not stand alone as a clean unit (one
  // whose declarations only resolve once the tail exists) keeps the cache
  // empty, and `compile_tail` then compiles whole units.
  auto compiled = std::make_shared<CompiledPrefix>();
  {
    support::DiagnosticEngine pd;
    std::vector<Token> tokens = prefix.tokens;
    Token eof;
    eof.kind = Tok::kEof;
    eof.loc.line = prefix.lines + 1;
    tokens.push_back(eof);
    Parser parser(std::move(tokens), pd);
    auto unit = parser.parse();
    if (!unit || pd.has_errors()) return prefix;
    compiled->unit = std::move(*unit);
    if (!typecheck(compiled->unit, pd)) return prefix;
  }
  compiled->symbols = snapshot_symbols(compiled->unit);
  try {
    compiled->segment = bytecode::compile_prefix(compiled->unit);
  } catch (const Fault&) {
    return prefix;  // lowering rejected the prefix: token path only
  }
  prefix.compiled = std::move(compiled);
  return prefix;
}

namespace {

/// Lexes `tail` as the continuation of `prefix`: the prefix's macros are in
/// scope and line numbers continue after the prefix's. `site_spans` (may be
/// null) tags tokens with their mutation sites.
LexOutput lex_tail(const PreparedPrefix& prefix, const std::string& tail,
                   support::DiagnosticEngine& diags,
                   const std::vector<SiteSpan>* site_spans = nullptr) {
  support::SourceBuffer buf(prefix.name, tail);
  LexOptions options;
  options.seed_macros = &prefix.macros;
  options.line_offset = prefix.lines;
  options.site_spans = site_spans;
  StageTimer timer(Stage::kLex);
  return lex_unit(buf, diags, options);
}

/// The prefix's macro uses plus the tail's.
std::map<std::string, std::set<uint32_t>> merged_macro_uses(
    const PreparedPrefix& prefix, const LexOutput& lexed) {
  auto uses = prefix.macro_use_lines;
  for (const auto& [name, lines] : lexed.macro_use_lines) {
    uses[name].insert(lines.begin(), lines.end());
  }
  return uses;
}

/// Whole-unit fallback for `compile_tail`: token-splice compile + full
/// lowering. Byte-identical to whole-unit compilation by construction; used
/// when the prefix has no stage-1 cache or when tail/prefix symbol
/// collisions make tail-only checking diverge.
SplicedProgram spliced_from_whole_unit(const PreparedPrefix& prefix,
                                       const std::string& tail) {
  SplicedProgram out;
  out.whole_unit_fallback = true;
  Program prog = compile_with_prefix(prefix, tail);
  out.diags = std::move(prog.diags);
  if (!prog.unit) return out;
  out.macro_use_lines = std::move(prog.unit->macro_use_lines);
  try {
    StageTimer timer(Stage::kLower);
    out.module = std::make_shared<bytecode::Module>(
        bytecode::compile_unit(*prog.unit));
  } catch (const Fault& f) {
    out.internal_error = f.message;
  }
  return out;
}

/// Stages 2+3 on a lexed tail: parses `tokens`, checks them against the
/// cached prefix symbols and splices the tail's lowering after the cached
/// segment into `out` (recording patch points into a non-null `patch`).
/// Collisions only whole-unit checking reproduces replace `out` with the
/// whole-unit fallback. Returns the typechecked tail unit when the splice
/// succeeded.
std::optional<Unit> splice_tail(const PreparedPrefix& prefix,
                                const std::string& tail,
                                std::vector<Token> tokens, SplicedProgram& out,
                                bytecode::PatchTable* patch) {
  const CompiledPrefix& cp = *prefix.compiled;
  auto tail_unit = [&] {
    StageTimer timer(Stage::kParse);
    Parser parser(std::move(tokens), out.diags);
    return parser.parse();
  }();
  if (!tail_unit) return std::nullopt;
  bool needs_whole_unit = false;
  bool checked = [&] {
    StageTimer timer(Stage::kTypecheck);
    return typecheck_tail(*tail_unit, cp.symbols, out.diags, &needs_whole_unit);
  }();
  if (needs_whole_unit) {
    // A tail declaration shadows a prefix symbol in a way whose diagnostics
    // (or acceptance) only whole-unit checking reproduces.
    out = spliced_from_whole_unit(prefix, tail);
    return std::nullopt;
  }
  if (!checked) return std::nullopt;

  try {
    StageTimer timer(Stage::kSplice);
    out.module = std::make_shared<bytecode::Module>(
        bytecode::compile_tail_unit(cp.segment, cp.unit, *tail_unit, patch));
  } catch (const Fault& f) {
    out.internal_error = f.message;
    return std::nullopt;
  }
  return tail_unit;
}

}  // namespace

SplicedProgram compile_tail(const PreparedPrefix& prefix,
                            const std::string& tail) {
  if (!prefix.compiled) return spliced_from_whole_unit(prefix, tail);
  SplicedProgram out;
  LexOutput lexed = lex_tail(prefix, tail, out.diags);
  if (out.diags.has_errors()) return out;
  out.macro_use_lines = merged_macro_uses(prefix, lexed);
  (void)splice_tail(prefix, tail, std::move(lexed.tokens), out, nullptr);
  return out;
}

RecordedTail compile_tail_recording(const PreparedPrefix& prefix,
                                    const std::string& tail,
                                    const std::vector<SiteSpan>& site_spans) {
  RecordedTail out;
  SplicedProgram& sp = out.spliced;
  if (!prefix.compiled) {
    sp = spliced_from_whole_unit(prefix, tail);
    return out;
  }
  LexOutput lexed = lex_tail(prefix, tail, sp.diags, &site_spans);
  if (sp.diags.has_errors()) return out;
  sp.macro_use_lines = merged_macro_uses(prefix, lexed);
  out.tail_macro_use_lines = lexed.macro_use_lines;
  out.macros = prefix.macros;
  for (auto& [name, body] : lexed.macros) out.macros[name] = body;
  out.tokens = lexed.tokens;  // the fast dedup-key path reuses these
  if (auto unit = splice_tail(prefix, tail, std::move(lexed.tokens), sp,
                              &out.patch)) {
    out.tail_unit = std::make_unique<Unit>(std::move(*unit));
  }
  return out;
}

RunOutcome run_module(const bytecode::Module& module, IoEnvironment& io,
                      const std::string& entry, uint64_t step_budget,
                      bytecode::OpcodeProfile* profile, uint64_t watchdog_ms) {
  StageTimer timer(Stage::kBoot);
  bytecode::Vm vm(module, io, step_budget);
  if (profile != nullptr) vm.set_opcode_profile(profile);
  vm.set_watchdog_ms(watchdog_ms);
  return vm.run(entry);
}

Program compile_with_prefix(const PreparedPrefix& prefix,
                            const std::string& tail) {
  Program prog;
  LexOutput lexed = lex_tail(prefix, tail, prog.diags);
  if (prog.diags.has_errors()) return prog;

  std::vector<Token> tokens;
  tokens.reserve(prefix.tokens.size() + lexed.tokens.size());
  tokens.insert(tokens.end(), prefix.tokens.begin(), prefix.tokens.end());
  tokens.insert(tokens.end(), std::make_move_iterator(lexed.tokens.begin()),
                std::make_move_iterator(lexed.tokens.end()));
  finish_compile(prog, std::move(tokens), merged_macro_uses(prefix, lexed));
  return prog;
}

const char* exec_engine_name(ExecEngine e) {
  switch (e) {
    case ExecEngine::kBytecodeVm: return "bytecode-vm";
    case ExecEngine::kTreeWalker: return "tree-walker";
  }
  return "?";
}

RunOutcome run_unit(const Unit& unit, IoEnvironment& io,
                    const std::string& entry, uint64_t step_budget,
                    ExecEngine engine, bytecode::OpcodeProfile* profile,
                    uint64_t watchdog_ms) {
  if (engine == ExecEngine::kTreeWalker) {
    StageTimer timer(Stage::kBoot);
    Interp interp(unit, io, step_budget);
    interp.set_watchdog_ms(watchdog_ms);
    return interp.run(entry);
  }
  try {
    bytecode::Module module = [&] {
      StageTimer timer(Stage::kLower);
      return bytecode::compile_unit(unit);
    }();
    StageTimer timer(Stage::kBoot);
    bytecode::Vm vm(module, io, step_budget);
    if (profile != nullptr) vm.set_opcode_profile(profile);
    vm.set_watchdog_ms(watchdog_ms);
    return vm.run(entry);
  } catch (const Fault& f) {
    // Lowering rejected the unit: the walker's equivalent is a runtime
    // kInternal fault, and the campaign engine treats both as repo bugs.
    RunOutcome out;
    out.fault = f.kind;
    out.fault_message = f.message;
    return out;
  }
}

RunOutcome compile_and_run(const std::string& name, const std::string& source,
                           const std::string& entry, IoEnvironment& io,
                           uint64_t step_budget, ExecEngine engine) {
  Program prog = compile(name, source);
  if (!prog.ok()) {
    RunOutcome out;
    out.fault = FaultKind::kInternal;
    out.fault_message = "compilation failed:\n" + prog.diags.render();
    return out;
  }
  return run_unit(*prog.unit, io, entry, step_budget, engine);
}

}  // namespace minic
