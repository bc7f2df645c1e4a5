// Table 2: workload characteristics of the (synthetic) trace suite —
// operation mix, skew, total data size, bytes accessed, and the per-trace
// remarks that drive Macaron's design objectives.

#include <cstdio>

#include "bench/harness.h"

using namespace macaron;

int RunTable2Traces() {
  bench::PrintHeader("Trace characteristics (synthetic suite, 1/1000 byte scale)", "Table 2");
  std::printf("%-8s %5s %5s %7s %10s %10s %10s %8s %7s\n", "trace", "put%", "get%", "zipf",
              "dataGB", "putGB", "getGB", "compuls", "medKB");
  for (const std::string& name : bench::AllTraceNames()) {
    const Trace& t = bench::GetTrace(name);
    const TraceStats s = ComputeStats(t);
    const double rw = static_cast<double>(s.num_gets + s.num_puts);
    std::printf("%-8s %5.1f %5.1f %7.2f %10.2f %10.2f %10.2f %8.2f %7.0f\n", name.c_str(),
                100.0 * static_cast<double>(s.num_puts) / rw,
                100.0 * static_cast<double>(s.num_gets) / rw, s.zipf_alpha,
                static_cast<double>(s.unique_bytes) / 1e9,
                static_cast<double>(s.put_bytes) / 1e9, static_cast<double>(s.get_bytes) / 1e9,
                s.compulsory_miss_ratio, static_cast<double>(s.median_object_bytes) / 1e3);
  }
  std::printf("\nDesign-objective checks (§3.2): most traces have zipf alpha < 0.6; \n"
              "IBM 9 short-lived bursts; IBM 55 diurnal put-heavy; IBM 96 high \n"
              "compulsory misses; VMware tiny dataset with extreme reuse.\n");
  return 0;
}
