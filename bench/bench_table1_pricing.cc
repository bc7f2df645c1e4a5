// Table 1: cloud storage pricing across providers — egress dwarfs the other
// per-byte costs, and PUTs cost ~12.5x GETs.

#include <cstdio>

#include "bench/harness.h"
#include "src/pricing/price_book.h"

using namespace macaron;

int RunTable1Pricing() {
  bench::PrintHeader("Cloud storage pricing", "Table 1");
  std::printf("%-34s %10s %10s %10s\n", "Operation", "AWS", "Azure", "GCP");
  const PriceBook aws = PriceBook::Aws(DeploymentScenario::kCrossCloud);
  const PriceBook azure = PriceBook::Azure(DeploymentScenario::kCrossCloud);
  const PriceBook gcp = PriceBook::Gcp(DeploymentScenario::kCrossCloud);
  const PriceBook aws_r = PriceBook::Aws(DeploymentScenario::kCrossRegion);
  const PriceBook azure_r = PriceBook::Azure(DeploymentScenario::kCrossRegion);
  const PriceBook gcp_r = PriceBook::Gcp(DeploymentScenario::kCrossRegion);
  std::printf("%-34s %9.1fc %9.1fc %9.1fc\n", "Egress to Internet (per GB)",
              aws.egress_per_gb * 100, azure.egress_per_gb * 100, gcp.egress_per_gb * 100);
  std::printf("%-34s %9.1fc %9.1fc %9.1fc\n", "Egress btw. regions (per GB)",
              aws_r.egress_per_gb * 100, azure_r.egress_per_gb * 100, gcp_r.egress_per_gb * 100);
  std::printf("%-34s %9.1fc %9.1fc %9.1fc\n", "Object storage (per GB-mo.)",
              aws.object_storage_per_gb_month * 100, azure.object_storage_per_gb_month * 100,
              gcp.object_storage_per_gb_month * 100);
  std::printf("%-34s %9.0fc %9.0fc %9.0fc\n", "DRAM (per GB-mo.)", aws.dram_per_gb_month * 100,
              azure.dram_per_gb_month * 100, gcp.dram_per_gb_month * 100);
  std::printf("%-34s %9.2fc %9.2fc %9.2fc\n", "Object GET (per 1k requests)",
              aws.get_per_request * 1000 * 100, azure.get_per_request * 1000 * 100,
              gcp.get_per_request * 1000 * 100);
  std::printf("%-34s %9.2fc %9.2fc %9.2fc\n", "Object PUT (per 1k requests)",
              aws.put_per_request * 1000 * 100, azure.put_per_request * 1000 * 100,
              gcp.put_per_request * 1000 * 100);
  std::printf("\nDerived: PUT/GET ratio (AWS) = %.1fx; DRAM/object-storage capacity "
              "ratio = %.0fx;\nstorage==egress break-even: cross-cloud %.0f days, "
              "cross-region %.0f days\n",
              aws.put_per_request / aws.get_per_request,
              aws.dram_per_gb_month / aws.object_storage_per_gb_month,
              DurationDays(aws.StorageEgressBreakEven()),
              DurationDays(aws_r.StorageEgressBreakEven()));
  return 0;
}
