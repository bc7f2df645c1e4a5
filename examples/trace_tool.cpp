// Trace tool: generates the 19-workload evaluation suite to disk (CSV, or
// the MCTC chunked columnar format for `bin`) and prints Table 2-style statistics — the equivalent of the
// paper's released trace artifacts, reproducible from seeds.
//
// Usage: trace_tool [output-dir] [csv|bin]    (default: ./traces csv)

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/trace/columnar_io.h"
#include "src/trace/splitter.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"

using namespace macaron;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "traces";
  const std::string format = argc > 2 ? argv[2] : "csv";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::printf("writing %s traces to %s/\n\n", format.c_str(), dir.c_str());
  std::printf("%-8s %10s %12s   %s\n", "trace", "requests", "bytes", "file");
  for (const WorkloadProfile& p : AllProfiles()) {
    const Trace trace = SplitObjects(GenerateTrace(p), p.max_object_bytes);
    const std::string path =
        dir + "/" + p.name + (format == "bin" ? ".mctc" : ".csv");
    const bool ok = format == "bin" ? WriteTraceColumnar(trace, path)
                                    : WriteTraceCsv(trace, path);
    if (!ok) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    const TraceStats s = ComputeStats(trace);
    std::printf("%-8s %10zu %10.2fGB   %s\n", p.name.c_str(), trace.size(),
                static_cast<double>(s.get_bytes + s.put_bytes) / 1e9, path.c_str());
  }
  std::printf("\nRound-trip check: ");
  Trace back;
  const std::string probe =
      dir + "/" + AllProfiles().front().name + (format == "bin" ? ".mctc" : ".csv");
  const bool ok =
      format == "bin" ? ReadTraceColumnar(probe, &back) : ReadTraceCsv(probe, &back);
  std::printf("%s (%zu records)\n", ok ? "OK" : "FAILED", back.size());
  return ok ? 0 : 1;
}
