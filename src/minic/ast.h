// Abstract syntax for MiniC.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minic/token.h"
#include "support/source.h"

namespace minic {

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

enum class TypeKind { kVoid, kInt, kCString, kStruct };

/// A MiniC type. Integer types carry width and signedness; all integer types
/// are mutually convertible (C's permissiveness, which the paper's Table 3
/// exploits). Struct types are nominal: the only thing a C compiler rejects,
/// and the hook Devil's debug stubs rely on (paper §2.3).
struct Type {
  TypeKind kind = TypeKind::kInt;
  int bits = 32;
  bool is_signed = true;
  std::string struct_name;

  [[nodiscard]] bool is_integer() const { return kind == TypeKind::kInt; }
  [[nodiscard]] bool is_struct() const { return kind == TypeKind::kStruct; }
  [[nodiscard]] bool same_as(const Type& o) const {
    if (kind != o.kind) return false;
    if (kind == TypeKind::kStruct) return struct_name == o.struct_name;
    return true;  // all integer types are "the same" to C's checker
  }

  static Type void_type() { return {TypeKind::kVoid, 0, false, {}}; }
  static Type int_type(int bits = 32, bool is_signed = true) {
    return {TypeKind::kInt, bits, is_signed, {}};
  }
  static Type cstring() { return {TypeKind::kCString, 0, false, {}}; }
  static Type struct_type(std::string name) {
    return {TypeKind::kStruct, 0, false, std::move(name)};
  }

  [[nodiscard]] std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kIntLit,
  kStringLit,
  kIdent,
  kUnary,      // op applied to sub[0]
  kBinary,     // sub[0] op sub[1]
  kAssign,     // sub[0] op= sub[1] (op == kAssign for plain '=')
  kCond,       // sub[0] ? sub[1] : sub[2]
  kCall,       // callee name + args in sub
  kMember,     // sub[0] . member
  kIndex,      // sub[0] [ sub[1] ]
  kCast,       // (type) sub[0]
};

/// Slabs the AST node pool (ast_pool.cc) has carved so far, Expr and Stmt
/// pools together; 0 when the pool is bypassed (sanitizer builds). Slabs
/// are never freed, so this is the pool's footprint.
[[nodiscard]] size_t ast_pool_slabs();

struct Expr {
  /// AST nodes dominate the per-mutant parse's allocation churn, so they
  /// come from a thread-cached slab pool (ast_pool.cc) instead of the
  /// global heap. Passthrough under sanitizer builds.
  static void* operator new(std::size_t size);
  static void operator delete(void* p, std::size_t size) noexcept;

  ExprKind kind;
  support::SourceLoc loc;
  Tok op = Tok::kEof;          // kUnary / kBinary / kAssign operator
  uint64_t int_value = 0;      // kIntLit
  std::string text;            // kIdent name, kStringLit value, kMember name,
                               // kCall callee
  Type cast_type;              // kCast
  std::vector<ExprPtr> sub;

  // Mutation-site provenance, copied from the tokens that produced the node
  // (kNoSite when untracked). `site` is the value token's tag (kIntLit /
  // kIdent name / kCall callee); `op_site` the operator token's tag on
  // kUnary / kBinary / kAssign. Synthesized nodes (for-loop `true`, the `1`
  // of a postfix ++ desugar) stay untagged.
  uint32_t site = kNoSite;
  uint32_t op_site = kNoSite;

  // Filled by the type checker; consumed by the interpreter.
  Type type;
  // Static resolution (also filled by the type checker) so the interpreter
  // never resolves names on the hot path. Exactly one of frame_slot /
  // global_slot is >= 0 for a resolved kIdent; callee_index or builtin_index
  // is >= 0 for a resolved kCall; member_index is >= 0 for a resolved
  // kMember.
  int32_t frame_slot = -1;     // kIdent: slot within the function frame
  int32_t global_slot = -1;    // kIdent: index into Unit::globals
  int32_t member_index = -1;   // kMember: field position in the struct decl
  int32_t callee_index = -1;   // kCall: index into Unit::functions
  int32_t builtin_index = -1;  // kCall: static_cast<int>(Builtin)
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind {
  kExpr,      // expr[0] ;
  kDecl,      // local declaration (possibly array), init in expr[0]
  kBlock,
  kIf,        // cond expr[0]; body[0] then, body[1] else (optional)
  kWhile,     // cond expr[0]; body[0]
  kDoWhile,   // body[0]; cond expr[0]
  kFor,       // init stmt in body[1] (optional), cond expr[0] (optional),
              // step expr[1] (optional), body[0]
  kReturn,    // expr[0] optional
  kBreak,
  kContinue,
  kSwitch,    // operand expr[0]; cases[]
  kEmpty,
};

struct SwitchCase {
  bool is_default = false;
  ExprPtr value;               // constant expression (typically a macro)
  std::vector<StmtPtr> body;   // statements until next label
  support::SourceLoc loc;
};

struct Stmt {
  static void* operator new(std::size_t size);   // pooled, see Expr
  static void operator delete(void* p, std::size_t size) noexcept;

  StmtKind kind;
  support::SourceLoc loc;
  std::vector<ExprPtr> expr;
  std::vector<StmtPtr> body;
  std::vector<SwitchCase> cases;

  // kDecl fields.
  Type decl_type;
  std::string decl_name;
  std::optional<uint64_t> array_size;
  /// Frame slot of the declared local (filled by the type checker).
  int32_t frame_slot = -1;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct StructField {
  Type type;
  std::string name;
  support::SourceLoc loc;
};

struct StructDecl {
  std::string name;
  std::vector<StructField> fields;
  support::SourceLoc loc;
};

struct GlobalDecl {
  Type type;
  std::string name;
  bool is_const = false;
  std::optional<uint64_t> array_size;
  ExprPtr init;                   // scalar initialiser (optional)
  std::vector<ExprPtr> init_list; // brace initialiser for structs
  support::SourceLoc loc;
};

struct Param {
  Type type;
  std::string name;
  support::SourceLoc loc;
};

struct FunctionDecl {
  Type return_type;
  std::string name;
  std::vector<Param> params;
  StmtPtr body;
  support::SourceLoc loc;
  /// Total frame slots (params + every local declaration, shadowing
  /// included). Filled by the type checker; sizes the interpreter frame.
  uint32_t frame_slots = 0;
};

/// A parsed translation unit (concatenation of generated stubs + driver).
struct Unit {
  std::vector<StructDecl> structs;
  std::vector<GlobalDecl> globals;
  std::vector<FunctionDecl> functions;
  std::map<std::string, std::set<uint32_t>> macro_use_lines;
};

}  // namespace minic
