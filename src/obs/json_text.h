// Text helpers shared by the obs JSON/CSV writers (metrics snapshot, time
// series, Chrome trace export). Internal to src/obs: no public header
// includes it.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace sb::obs::detail {

/// `s` escaped for a JSON string literal (the quotes are the caller's), the
/// way check/json's dump_string escapes: quotes, backslashes and every byte
/// below 0x20, so any metric, column or span name parses back to itself.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// 12 significant digits: the snapshot and time-series number format.
inline std::string format_number(double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

}  // namespace sb::obs::detail
