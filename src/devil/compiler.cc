#include "devil/compiler.h"

#include <sstream>

#include "devil/lexer.h"
#include "devil/parser.h"
#include "support/metrics.h"

namespace devil {

std::vector<Token> lex_spec(const support::SourceBuffer& buf,
                            CompileResult& result) {
  support::StageTimer timer(support::Stage::kDevilLex);
  Lexer lexer(buf, result.diags);
  return lexer.lex_all();
}

void check_tokens(std::vector<Token> tokens, CompileResult& result) {
  if (result.diags.has_errors()) return;
  {
    support::StageTimer timer(support::Stage::kDevilParse);
    Parser parser(std::move(tokens), result.diags);
    auto spec = parser.parse();
    if (!spec) return;
    result.spec = std::make_unique<Specification>(std::move(*spec));
  }
  support::StageTimer timer(support::Stage::kDevilSema);
  Sema sema(result.diags);
  result.info = sema.check(*result.spec);
}

CompileResult compile_spec(const std::string& name, const std::string& text,
                           CodegenMode mode) {
  CompileResult result = check_spec(name, text);
  if (result.ok()) result.stubs = generate_stubs(*result.info, mode, name);
  return result;
}

CompileResult check_spec(const std::string& name, const std::string& text) {
  CompileResult result;
  support::SourceBuffer buf(name, text);
  check_tokens(lex_spec(buf, result), result);
  return result;
}

std::string describe_device(const DeviceInfo& info) {
  std::ostringstream os;
  os << "device " << info.decl->name << ": " << info.decl->params.size()
     << " port(s), " << info.decl->registers.size() << " register(s), "
     << info.decl->variables.size() << " variable(s)\n";
  for (const auto& r : info.decl->registers) {
    const RegInfo& ri = info.registers.at(r.name);
    os << "  register " << r.name << " : bit[" << r.size_bits << "] "
       << (ri.access == Access::kRead
               ? "read-only"
               : ri.access == Access::kWrite ? "write-only" : "read-write")
       << " mask '" << ri.mask << "'\n";
  }
  for (const auto& v : info.decl->variables) {
    const VarInfo& vi = info.variables.at(v.name);
    os << "  " << (v.is_private ? "private " : "") << "variable " << v.name
       << " : " << vi.width_bits << " bit(s), type-id " << vi.type_id << "\n";
  }
  return os.str();
}

}  // namespace devil
