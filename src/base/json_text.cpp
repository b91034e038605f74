#include "base/json_text.h"

namespace bridge::base {

void append_json_escaped(std::string& out, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  for (;;) {
    const char* special = find_json_special(p, end);
    out.append(p, static_cast<std::size_t>(special - p));
    if (special == end) return;
    const auto c = static_cast<unsigned char>(*special);
    p = special + 1;
    switch (c) {
      case '"': out.append("\\\"", 2); break;
      case '\\': out.append("\\\\", 2); break;
      case '\n': out.append("\\n", 2); break;
      case '\r': out.append("\\r", 2); break;
      case '\t': out.append("\\t", 2); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof(u));
      }
    }
  }
}

std::string json_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

}  // namespace bridge::base
