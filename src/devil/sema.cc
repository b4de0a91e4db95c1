#include "devil/sema.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <set>
#include <string_view>
#include <vector>

namespace devil {

namespace {

int bits_needed(uint64_t max_value) {
  int n = 1;
  while (max_value >> n) ++n;
  return n;
}

void append(std::string& out, std::string_view part) { out.append(part); }
void append(std::string& out, char part) { out.push_back(part); }
template <std::integral T>
void append(std::string& out, T part) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
}

}  // namespace

template <typename... Parts>
void Sema::error(const char* code, support::SourceLoc loc,
                 const Parts&... parts) {
  {
    std::string msg;
    (append(msg, parts), ...);
    diags_.error(code, loc, std::move(msg));
  }
  // Thrown once `msg` is gone: with nothing to destroy in this frame, the
  // unwinder passes it without stopping for a cleanup.
  if (mode_ == CheckMode::kFirstError) throw FirstError{};
}

/// Bits of every register that variable fragments claim, one bit per
/// register bit packed in 64-bit words. Registers are numbered in
/// declaration order; a name resolves to its first declaration, as in
/// `DeviceInfo::registers`.
class Sema::ClaimedBits {
 public:
  explicit ClaimedBits(const DeviceDecl& dev) {
    first_word_.reserve(dev.registers.size() + 1);
    size_t n = 0;
    for (const auto& r : dev.registers) {
      first_word_.push_back(n);
      n += (static_cast<size_t>(std::max(r.size_bits, 0)) + 63) / 64;
    }
    first_word_.push_back(n);
    words_.assign(n, 0);
  }

  [[nodiscard]] static size_t slot(const DeviceDecl& dev, const RegInfo& ri) {
    return static_cast<size_t>(ri.decl - dev.registers.data());
  }
  /// False for bits past the register's declared width.
  [[nodiscard]] bool test(size_t reg, int bit) const {
    size_t w = first_word_[reg] + static_cast<size_t>(bit) / 64;
    return w < first_word_[reg + 1] && ((words_[w] >> (bit % 64)) & 1);
  }
  void set(size_t reg, int bit) {
    words_[first_word_[reg] + static_cast<size_t>(bit) / 64] |=
        uint64_t{1} << (bit % 64);
  }

 private:
  // Register i owns words [first_word_[i], first_word_[i + 1]).
  std::vector<size_t> first_word_;
  std::vector<uint64_t> words_;
};

int type_width_bits(const TypeExpr& ty) {
  switch (ty.kind) {
    case TypeKind::kInt:
    case TypeKind::kSignedInt:
      return ty.width_bits;
    case TypeKind::kBool:
      return 1;
    case TypeKind::kEnum:
      return ty.items.empty() ? 0
                              : static_cast<int>(ty.items.front().pattern.size());
    case TypeKind::kIntSet: {
      uint64_t mx = 0;
      for (uint64_t v : ty.set_values) mx = std::max(mx, v);
      return bits_needed(mx);
    }
  }
  return 0;
}

std::optional<DeviceInfo> Sema::check(const Specification& spec) {
  DeviceInfo info;
  info.decl = &spec.device;
  int before = diags_.error_count();
  try {
    check_ports(spec.device, info);
    check_registers(spec.device, info);
    check_variables(spec.device, info);
    check_pre_actions(spec.device, info);
    ClaimedBits claimed(spec.device);
    check_overlap(spec.device, info, claimed);
    check_no_omission(spec.device, info, claimed);
  } catch (const FirstError&) {
    return std::nullopt;
  }
  if (diags_.error_count() > before) return std::nullopt;
  return info;
}

void Sema::check_ports(const DeviceDecl& dev, DeviceInfo& info) {
  for (const auto& p : dev.params) {
    if (info.ports.count(p.name)) {
      error("DVL100", p.loc, "duplicate port parameter '", p.name, "'");
      continue;
    }
    if (p.width_bits != 8 && p.width_bits != 16 && p.width_bits != 32) {
      error("DVL101", p.loc, "port '", p.name,
            "' has invalid width (must be 8, 16 or 32)");
    }
    if (p.has_empty_range || p.offsets.empty()) {
      error("DVL102", p.loc, "port '", p.name, "' has an empty offset range");
    }
    // Offsets nearly always ascend, which rules out a repeat.
    if (std::adjacent_find(p.offsets.begin(), p.offsets.end(),
                           std::greater_equal<>()) != p.offsets.end()) {
      std::set<uint64_t> seen_offsets;
      for (uint64_t off : p.offsets) {
        if (!seen_offsets.insert(off).second) {
          error("DVL103", p.loc, "offset ", off,
                " appears twice in the range of port '", p.name, "'");
        }
      }
    }
    info.ports.emplace(p.name, &p);
  }
}

void Sema::check_registers(const DeviceDecl& dev, DeviceInfo& info) {
  for (const auto& r : dev.registers) {
    if (info.registers.count(r.name)) {
      error("DVL110", r.loc, "duplicate register '", r.name, "'");
      continue;
    }

    RegInfo ri;
    ri.decl = &r;
    ri.access = r.access();

    if (r.size_bits <= 0 || r.size_bits > 64) {
      error("DVL111", r.loc, "register '", r.name, "' has invalid size");
      // The register is still recorded at its declared size, so the later
      // checks run on it. Their per-bit loops (DVL123, DVL221, DVL231) walk
      // the whole declared width, up to the parser's 65,536-bit limit.
    }

    bool has_read = false, has_write = false;
    for (const auto& b : r.bindings) {
      auto pit = info.ports.find(b.port.base);
      if (pit == info.ports.end()) {
        error("DVL112", b.port.loc, "register '", r.name,
              "' refers to unknown port '", b.port.base, "'");
        continue;
      }
      const PortParam& pp = *pit->second;
      if (!pp.allows(b.port.offset)) {
        error("DVL113", b.port.loc, "offset ", b.port.offset, " of port '",
              pp.name, "' is outside its declared offset set");
      }
      if (r.size_bits != pp.width_bits) {
        error("DVL115", r.loc, "register '", r.name, "' is bit[", r.size_bits,
              "] but port '", pp.name, "' is bit[", pp.width_bits, "]");
      }
      if (can_read(b.access)) {
        if (has_read) {
          error("DVL116", b.port.loc, "register '", r.name,
                "' has two read bindings");
        }
        has_read = true;
      }
      if (can_write(b.access)) {
        if (has_write) {
          error("DVL117", b.port.loc, "register '", r.name,
                "' has two write bindings");
        }
        has_write = true;
      }
    }

    if (!r.mask.empty() &&
        static_cast<int>(r.mask.pattern.size()) != r.size_bits) {
      error("DVL114", r.mask.loc, "mask of register '", r.name, "' has ",
            r.mask.pattern.size(), " bits but the register is bit[",
            r.size_bits, "]");
    }
    ri.mask = r.mask.empty() ? std::string(static_cast<size_t>(
                                               std::max(r.size_bits, 1)),
                                           '.')
                             : r.mask.pattern;

    info.registers.emplace(r.name, std::move(ri));
  }
}

void Sema::check_variables(const DeviceDecl& dev, DeviceInfo& info) {
  int next_type_id = 1;
  std::set<std::string> enum_names;  // symbolic names must be spec-unique

  for (const auto& v : dev.variables) {
    if (info.variables.count(v.name)) {
      error("DVL120", v.loc, "duplicate variable '", v.name, "'");
      continue;
    }

    VarInfo vi;
    vi.decl = &v;
    vi.type_id = next_type_id++;

    bool readable = true, writable = true;
    int total_width = 0;
    for (const auto& f : v.fragments) {
      auto rit = info.registers.find(f.reg);
      if (rit == info.registers.end()) {
        error("DVL121", f.loc, "variable '", v.name,
              "' refers to unknown register '", f.reg, "'");
        continue;
      }
      const RegInfo& ri = rit->second;
      int size = ri.decl->size_bits;
      int msb = f.has_range ? f.msb : size - 1;
      int lsb = f.has_range ? f.lsb : 0;
      if (msb < lsb || lsb < 0 || msb >= size) {
        error("DVL122", f.loc, "bit range [", f.msb, "..", f.lsb,
              "] of register '", f.reg, "' is outside bit[", size, "]");
        continue;
      }
      for (int b = lsb; b <= msb; ++b) {
        if (ri.mask_bit(b) != '.') {
          error("DVL123", f.loc, "variable '", v.name, "' uses bit ", b,
                " of register '", f.reg, "', which the mask marks irrelevant ('",
                ri.mask_bit(b), "')");
        }
      }
      total_width += msb - lsb + 1;
      readable = readable && can_read(ri.access);
      writable = writable && can_write(ri.access);
    }
    vi.width_bits = total_width;
    if (!readable && !writable) {
      error("DVL124", v.loc, "variable '", v.name,
            "' is neither readable nor writable through its registers");
    }
    vi.access = readable ? (writable ? Access::kReadWrite : Access::kRead)
                         : Access::kWrite;

    // --- type checks ---
    const TypeExpr& ty = v.type;
    int ty_width = type_width_bits(ty);
    if ((ty.kind == TypeKind::kInt || ty.kind == TypeKind::kSignedInt) &&
        (ty.width_bits <= 0 || ty.width_bits > 64)) {
      error("DVL137", ty.loc, "variable '", v.name,
            "' has an invalid integer width");
    }
    if (ty.kind == TypeKind::kIntSet) {
      std::set<uint64_t> seen;
      for (uint64_t val : ty.set_values) {
        if (!seen.insert(val).second) {
          error("DVL135", ty.loc, "duplicate element ", val,
                " in integer-set type of '", v.name, "'");
        }
      }
      if (ty.set_values.empty()) {
        error("DVL136", ty.loc, "integer-set type of '", v.name, "' is empty");
      }
    }
    if (ty.kind == TypeKind::kEnum) {
      std::set<std::string> read_pats, write_pats;
      for (const auto& item : ty.items) {
        if (!enum_names.insert(item.name).second) {
          error("DVL133", item.loc, "symbolic name '", item.name,
                "' is already defined in this specification");
        }
        for (char c : item.pattern) {
          if (c != '0' && c != '1') {
            error("DVL132", item.loc, "bit pattern of '", item.name,
                  "' may contain only '0' and '1'");
            break;
          }
        }
        if (static_cast<int>(item.pattern.size()) != ty_width) {
          error("DVL131", item.loc, "bit pattern of '", item.name, "' has ",
                item.pattern.size(), " bits; other patterns in the type have ",
                ty_width);
        }
        bool rd = item.dir != MappingDir::kWrite;
        bool wr = item.dir != MappingDir::kRead;
        if (rd && !read_pats.insert(item.pattern).second) {
          error("DVL134", item.loc, "bit pattern of '", item.name,
                "' duplicates another read mapping");
        }
        if (wr && !write_pats.insert(item.pattern).second) {
          error("DVL139", item.loc, "bit pattern of '", item.name,
                "' duplicates another write mapping");
        }
        // A mapping direction must be compatible with the variable access
        // ("a type for reading ... must be used with a readable variable").
        if (rd && !can_read(vi.access)) {
          error("DVL200", item.loc, "read mapping '", item.name,
                "' on a variable that is not readable");
        }
        if (wr && !can_write(vi.access)) {
          error("DVL201", item.loc, "write mapping '", item.name,
                "' on a variable that is not writable");
        }
      }
      // Exhaustiveness: when the variable is readable, every possible bit
      // pattern must have a read mapping (paper: "Read elements of a type
      // mapping must be exhaustive").
      if (can_read(vi.access) && !read_pats.empty() && ty_width > 0 &&
          ty_width <= 16) {
        uint64_t want = 1ULL << ty_width;
        if (read_pats.size() != want) {
          error("DVL210", ty.loc, "read mappings of variable '", v.name,
                "' cover ", read_pats.size(), " of ", want,
                " possible patterns");
        }
      }
      // A write-only or read-write enum must have at least one write item to
      // be usable for writing; require it only when the variable cannot be
      // read at all (otherwise a read-only view is legitimate).
      if (!can_read(vi.access) && write_pats.empty()) {
        error("DVL202", ty.loc, "variable '", v.name,
              "' is write-only but its type has no write mappings");
      }
    }

    if (total_width != ty_width) {
      error("DVL130", v.loc, "variable '", v.name, "' concatenates ",
            total_width, " register bits but its type needs ", ty_width);
    }
    if (ty.kind == TypeKind::kIntSet && total_width > 0 && total_width <= 63) {
      for (uint64_t val : ty.set_values) {
        if (val >= (1ULL << total_width)) {
          error("DVL138", ty.loc, "set element ", val, " of variable '",
                v.name, "' does not fit in ", total_width, " bits");
        }
      }
    }

    info.variables.emplace(v.name, std::move(vi));
  }
}

void Sema::check_pre_actions(const DeviceDecl& dev, DeviceInfo& info) {
  for (const auto& r : dev.registers) {
    for (const auto& pa : r.pre_actions) {
      auto vit = info.variables.find(pa.var);
      if (vit == info.variables.end()) {
        error("DVL150", pa.loc, "pre-action assigns unknown variable '",
              pa.var, "'");
        continue;
      }
      const VarInfo& vi = vit->second;
      if (!can_write(vi.access)) {
        error("DVL151", pa.loc, "pre-action assigns read-only variable '",
              pa.var, "'");
      }
      // Value must be representable in the variable's type.
      const TypeExpr& ty = vi.decl->type;
      bool in_range = true;
      switch (ty.kind) {
        case TypeKind::kInt:
        case TypeKind::kSignedInt:
        case TypeKind::kBool:
          in_range = vi.width_bits >= 64 || pa.value < (1ULL << vi.width_bits);
          break;
        case TypeKind::kIntSet:
          in_range = std::find(ty.set_values.begin(), ty.set_values.end(),
                               pa.value) != ty.set_values.end();
          break;
        case TypeKind::kEnum:
          // Pre-actions use raw values; require the value to match some
          // write pattern.
          in_range = false;
          for (const auto& item : ty.items) {
            if (item.dir == MappingDir::kRead) continue;
            uint64_t pat = 0;
            for (char c : item.pattern) pat = (pat << 1) | (c == '1' ? 1 : 0);
            if (pat == pa.value) in_range = true;
          }
          break;
      }
      if (!in_range) {
        error("DVL152", pa.loc, "pre-action value ", pa.value,
              " is outside the type of variable '", pa.var, "'");
      }
    }
  }
}

void Sema::check_overlap(const DeviceDecl& dev, DeviceInfo& info,
                         ClaimedBits& claimed) {
  // "Each port must appear only once in the register definitions, except when
  //  registers are defined using disjoint pre-actions or masks. However, a
  //  single port may be used for reading by one register and writing to
  //  another."
  struct Use {
    const std::string* port;
    uint64_t offset;
    const RegisterDecl* reg;
    bool read;
  };
  std::vector<Use> uses;
  for (const auto& r : dev.registers) {
    for (const auto& b : r.bindings) {
      if (!info.ports.count(b.port.base)) continue;  // already diagnosed
      const std::string* port = &b.port.base;
      if (can_read(b.access)) uses.push_back({port, b.port.offset, &r, true});
      if (can_write(b.access)) uses.push_back({port, b.port.offset, &r, false});
    }
  }
  // Grouped by (port, offset) in that order, declaration order within a
  // group: the order the diagnostics below come out in.
  std::stable_sort(uses.begin(), uses.end(), [](const Use& a, const Use& b) {
    int c = a.port->compare(*b.port);
    return c != 0 ? c < 0 : a.offset < b.offset;
  });

  auto pre_actions_disjoint = [](const RegisterDecl& a, const RegisterDecl& b) {
    // Disjoint if they set the same selector variable to different values.
    for (const auto& pa : a.pre_actions) {
      for (const auto& pb : b.pre_actions) {
        if (pa.var == pb.var && pa.value != pb.value) return true;
      }
    }
    return false;
  };
  auto masks_disjoint = [&](const RegisterDecl& a, const RegisterDecl& b) {
    // Disjoint if no bit is relevant ('.') in both masks.
    auto ra = info.registers.find(a.name);
    auto rb = info.registers.find(b.name);
    if (ra == info.registers.end() || rb == info.registers.end()) return false;
    if (a.size_bits != b.size_bits) return false;
    if (static_cast<int>(ra->second.mask.size()) != a.size_bits ||
        static_cast<int>(rb->second.mask.size()) != b.size_bits)
      return false;
    for (int i = 0; i < a.size_bits; ++i) {
      if (ra->second.mask_bit(i) == '.' && rb->second.mask_bit(i) == '.')
        return false;
    }
    return true;
  };

  for (size_t lo = 0, hi = 0; lo < uses.size(); lo = hi) {
    while (hi < uses.size() && *uses[hi].port == *uses[lo].port &&
           uses[hi].offset == uses[lo].offset) {
      ++hi;
    }
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) {
        if (uses[i].reg == uses[j].reg) continue;
        if (uses[i].read != uses[j].read) continue;  // read vs write is fine
        if (pre_actions_disjoint(*uses[i].reg, *uses[j].reg)) continue;
        if (masks_disjoint(*uses[i].reg, *uses[j].reg)) continue;
        error("DVL220", uses[j].reg->loc, "registers '", uses[i].reg->name,
              "' and '", uses[j].reg->name, "' both use port '",
              *uses[lo].port, "' @ ", uses[lo].offset, " for ",
              uses[i].read ? "reading" : "writing",
              " without disjoint pre-actions or masks");
      }
    }
  }

  // "No bit of a single register can be used in the definition of two
  //  different variables." Earlier claims are searched only for a bit that
  //  is already claimed, which a consistent spec never has; they are
  //  reported in claim order. One report per bit per earlier claim would
  //  flood on a wide register (two variables over 65,536 bits: 65k
  //  reports), so each register reports at most kMaxOverlapReports and then
  //  one summary of the rest. No Table 2 mutant exceeds 32 per register.
  constexpr size_t kMaxOverlapReports = 64;
  struct Claim {
    size_t reg;
    int lsb;
    int msb;
    const std::string* owner;
  };
  struct Reports {
    size_t made = 0;
    size_t dropped = 0;             // past the cap
    support::SourceLoc dropped_at;  // where the first dropped one points
  };
  std::vector<Claim> claims;
  std::vector<Reports> reports(dev.registers.size());
  for (const auto& v : dev.variables) {
    for (const auto& f : v.fragments) {
      auto rit = info.registers.find(f.reg);
      if (rit == info.registers.end()) continue;
      int size = rit->second.decl->size_bits;
      int msb = f.has_range ? f.msb : size - 1;
      int lsb = f.has_range ? f.lsb : 0;
      if (msb < lsb || lsb < 0 || msb >= size) continue;  // already diagnosed
      const size_t reg = claimed.slot(dev, rit->second);
      for (int b = lsb; b <= msb; ++b) {
        if (!claimed.test(reg, b)) {
          claimed.set(reg, b);
          continue;
        }
        for (const Claim& c : claims) {
          if (c.reg == reg && c.lsb <= b && b <= c.msb && *c.owner != v.name) {
            Reports& r = reports[reg];
            if (r.made == kMaxOverlapReports) {
              if (r.dropped++ == 0) r.dropped_at = f.loc;
              continue;
            }
            ++r.made;
            error("DVL221", f.loc, "bit ", b, " of register '", f.reg,
                  "' is used by both '", *c.owner, "' and '", v.name, "'");
          }
        }
      }
      claims.push_back({reg, lsb, msb, &v.name});
    }
  }
  for (size_t reg = 0; reg < reports.size(); ++reg) {
    if (reports[reg].dropped == 0) continue;
    error("DVL221", reports[reg].dropped_at, reports[reg].dropped,
          " more bit claim(s) of register '", dev.registers[reg].name,
          "' overlap an earlier variable's (reports stop after ",
          kMaxOverlapReports, " per register)");
  }
}

void Sema::check_no_omission(const DeviceDecl& dev, DeviceInfo& info,
                             const ClaimedBits& claimed) {
  // Every register must be used by some variable, and every relevant bit of
  // it covered by one.
  std::vector<uint8_t> used_regs(dev.registers.size(), 0);
  for (const auto& v : dev.variables) {
    for (const auto& f : v.fragments) {
      auto rit = info.registers.find(f.reg);
      if (rit != info.registers.end()) {
        used_regs[claimed.slot(dev, rit->second)] = 1;
      }
    }
  }
  for (const auto& r : dev.registers) {
    const RegInfo& ri = info.registers.at(r.name);
    const size_t reg = claimed.slot(dev, ri);
    if (!used_regs[reg]) {
      error("DVL230", r.loc, "register '", r.name,
            "' is not used by any variable");
      continue;
    }
    for (int b = 0; b < r.size_bits; ++b) {
      if (ri.mask_bit(b) == '.' && !claimed.test(reg, b)) {
        error("DVL231", r.loc, "relevant bit ", b, " of register '", r.name,
              "' is not covered by any variable");
      }
    }
  }

  // Every port parameter, and every offset of its declared range, must be
  // used by some register.
  std::vector<uint64_t> used_offsets;
  for (const auto& p : dev.params) {
    used_offsets.clear();
    bool used = false;
    for (const auto& r : dev.registers) {
      for (const auto& b : r.bindings) {
        if (b.port.base != p.name) continue;
        used = true;
        used_offsets.push_back(b.port.offset);
      }
    }
    if (!used) {
      error("DVL232", p.loc, "port parameter '", p.name, "' is never used");
      continue;
    }
    std::sort(used_offsets.begin(), used_offsets.end());
    for (uint64_t off : p.offsets) {
      if (!std::binary_search(used_offsets.begin(), used_offsets.end(), off)) {
        error("DVL233", p.loc, "offset ", off, " of port '", p.name,
              "' is declared but never used");
      }
    }
  }
}

}  // namespace devil
