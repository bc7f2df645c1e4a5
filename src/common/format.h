// printf-style appending to a std::string, for the text artifacts (decision
// trace JSONL, metrics JSON).

#ifndef MACARON_SRC_COMMON_FORMAT_H_
#define MACARON_SRC_COMMON_FORMAT_H_

#include <cstdarg>
#include <cstdio>
#include <string>

namespace macaron {

// Appends at most 511 formatted characters; callers keep each call's
// output shorter.
__attribute__((format(printf, 2, 3))) inline void AppendF(std::string* out, const char* fmt,
                                                          ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace macaron

#endif  // MACARON_SRC_COMMON_FORMAT_H_
