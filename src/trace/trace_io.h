// Trace interchange as CSV, the format of the released IBM/Uber traces. The
// replay-shaped on-disk format is MCTC (columnar_io.h).

#ifndef MACARON_SRC_TRACE_TRACE_IO_H_
#define MACARON_SRC_TRACE_TRACE_IO_H_

#include <string>

#include "src/trace/trace.h"

namespace macaron {

// CSV format: header "time_ms,op,object_id,size_bytes", one row per request.
// The reader rejects malformed rows, lines longer than 255 bytes, and rows
// whose time_ms is lower than the previous row's (traces are time-ordered).
bool WriteTraceCsv(const Trace& trace, const std::string& path);
bool ReadTraceCsv(const std::string& path, Trace* out);

}  // namespace macaron

#endif  // MACARON_SRC_TRACE_TRACE_IO_H_
