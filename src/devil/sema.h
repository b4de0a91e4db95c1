// Semantic analysis of Devil specifications (paper §2.2).
//
// Implements the consistency rules the paper enumerates:
//  - intra-layer: type correctness, size checks, uniqueness;
//  - inter-layer: access-attribute consistency, read-mapping exhaustiveness,
//    the no-omission constraints, and the no-overlap constraints.
// Every rule has a stable diagnostic code so the mutation campaign can
// attribute detections to specific checks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "devil/ast.h"
#include "support/diagnostics.h"

namespace devil {

/// Resolved view of a register after semantic analysis.
struct RegInfo {
  const RegisterDecl* decl = nullptr;
  Access access = Access::kReadWrite;
  /// Effective mask: one char per bit, size_bits long, MSB first. When the
  /// declaration has no mask this is all '.'.
  std::string mask;

  [[nodiscard]] char mask_bit(int i) const {
    // A mutant can desynchronise mask length and register width — always a
    // DVL114 error, but later per-bit checks still run; bits beyond the
    // pattern read as irrelevant instead of out of bounds. Acceptance is
    // unaffected: the length mismatch already failed the spec.
    size_t ix = static_cast<size_t>(i);
    if (ix >= mask.size()) return '.';
    return mask[mask.size() - 1 - ix];
  }
};

/// Resolved view of a variable.
struct VarInfo {
  const VariableDecl* decl = nullptr;
  int width_bits = 0;      // total width of the concatenated fragments
  Access access = Access::kReadWrite;  // derived from the registers used
  int type_id = 0;         // specification-unique type counter (paper §2.3)
};

/// Semantic model of a checked device, consumed by the code generator.
struct DeviceInfo {
  const DeviceDecl* decl = nullptr;
  std::map<std::string, const PortParam*> ports;
  std::map<std::string, RegInfo> registers;
  std::map<std::string, VarInfo> variables;
};

/// Width in bits needed by a Devil type (enum width = pattern length).
[[nodiscard]] int type_width_bits(const TypeExpr& ty);

/// How much of a rejected specification `Sema` reports.
enum class CheckMode {
  kFull,        // every diagnostic of every check
  kFirstError,  // only the first error: the checks stop there
};

class Sema {
 public:
  explicit Sema(support::DiagnosticEngine& diags,
                CheckMode mode = CheckMode::kFull)
      : diags_(diags), mode_(mode) {}

  /// Runs all checks. Returns the resolved model if there were no errors.
  /// The checks run in the same order in either mode, so the first error,
  /// and with it the verdict, are the same.
  [[nodiscard]] std::optional<DeviceInfo> check(const Specification& spec);

 private:
  struct FirstError {};  // thrown by `error`, caught by `check`

  /// Reports error `code` at `loc`, its message `parts` concatenated
  /// (strings and chars verbatim, integers in decimal). In first-error mode
  /// it then throws FirstError.
  template <typename... Parts>
  void error(const char* code, support::SourceLoc loc, const Parts&... parts);

  void check_ports(const DeviceDecl& dev, DeviceInfo& info);
  void check_registers(const DeviceDecl& dev, DeviceInfo& info);
  void check_variables(const DeviceDecl& dev, DeviceInfo& info);
  void check_pre_actions(const DeviceDecl& dev, DeviceInfo& info);
  class ClaimedBits;
  void check_overlap(const DeviceDecl& dev, DeviceInfo& info,
                     ClaimedBits& claimed);
  void check_no_omission(const DeviceDecl& dev, DeviceInfo& info,
                         const ClaimedBits& claimed);

  support::DiagnosticEngine& diags_;
  CheckMode mode_;
};

}  // namespace devil
