// JSON string text: the scanner that finds the next byte a JSON string
// cannot carry raw, and the escaper built on it.
//
// The wire codec (api/json.cpp) and the observability serializers (obs/)
// share these, so every JSON document the process writes escapes the same
// bytes the same way and parses back. They live in base/ so that obs/ can
// use them without depending on api/.
//
// The scanner reads eight bytes per step: a `memcpy` load, then one SWAR
// mask per special byte class ('"', '\\', below 0x20). For a class the
// classic "has less than" test ((w - n*0x01..) & ~w & 0x80..) sets the high
// bit of every matching byte; a borrow can also flag bytes *above* a true
// match, never below one, so on a little-endian load the lowest set bit
// (std::countr_zero) is always the first special byte in memory. The tail
// shorter than a word goes byte by byte. Clean runs between special bytes
// are then copied whole, which is where a VHDL-bearing response (hundreds
// of escaped newlines in kilobytes of text) spends its encode and decode.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace bridge::base {

/// The first byte in [p, end) that a JSON string must escape: '"', '\\'
/// or a control byte below 0x20. Returns `end` when there is none.
inline const char* find_json_special(const char* p, const char* end) {
  static_assert(std::endian::native == std::endian::little,
                "find_json_special reads the first byte of a word from its "
                "low end");
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  while (end - p >= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t slash = w ^ (kOnes * '\\');
    const std::uint64_t hit = ((quote - kOnes) & ~quote) |
                              ((slash - kOnes) & ~slash) |
                              ((w - kOnes * 0x20) & ~w);
    if ((hit & kHigh) != 0) return p + std::countr_zero(hit & kHigh) / 8;
    p += 8;
  }
  for (; p < end; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\' || c < 0x20) return p;
  }
  return end;
}

/// Append `s` to `out` as JSON string content, without the quotes: '"',
/// '\\', newline, carriage return and tab as two-byte escapes, any other
/// byte below 0x20 as \u00xx (lower-case hex), every other byte verbatim.
void append_json_escaped(std::string& out, std::string_view s);

/// `s` escaped by append_json_escaped.
std::string json_escaped(std::string_view s);

}  // namespace bridge::base
