#include "src/oracle/exact_oracle.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/obs/decision_trace.h"
#include "src/oracle/keep_schedule.h"

namespace macaron {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ExactOracleResult RunExactOracle(const Trace& trace, const PriceBook& prices,
                                 const ExactOracleOptions& options) {
  const size_t n = trace.size();
  if (n == 0) {
    return ExactOracleResult{};
  }
  MACARON_CHECK(options.window > 0);

  const PriceSchedule sched(prices, AlignShocksToWindows(options.shocks, options.window));
  const oracle_internal::ObjectChains chains = oracle_internal::BuildObjectChains(trace);

  // Per-object two-state DP.
  //
  // State after event j: S = a copy is resident through the following gap,
  // N = it is not. A[j] / B[j] are the cheapest costs of serving the chain
  // prefix through j ending in S / N; gap storage is charged on arrival at
  // the next event (piecewise-exact under the schedule). choice_s / choice_n
  // record the arg-min incoming state for traceback; ties prefer the stored
  // (hit) path so the schedule is deterministic.
  std::vector<uint8_t> choice_s(n), choice_n(n);
  std::vector<uint8_t> keep(n, 0);
  double dp_total = 0.0;

  for (size_t o = 0; o < chains.num_objects(); ++o) {
    const uint32_t begin = chains.offsets[o];
    const uint32_t end = chains.offsets[o + 1];
    double a_prev = kInf;  // outgoing stored
    double b_prev = kInf;  // outgoing not stored
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t j = chains.events[k];
      const Request& r = trace.requests[j];
      const PriceBook& book = sched.At(r.time);
      double in_s;  // arrived with the gap before j stored
      double in_n;
      if (k == begin) {
        in_s = kInf;  // nothing to store before the first event
        in_n = 0.0;
      } else {
        const Request& prev = trace.requests[chains.events[k - 1]];
        in_s = a_prev + sched.StorageCostOver(prev.size, prev.time, r.time);
        in_n = b_prev;
      }
      double a_new = kInf;
      double b_new = kInf;
      switch (r.op) {
        case Op::kGet: {
          const double serve_s = in_s + book.GetCost(1);  // hit
          const double serve_n = in_n + book.GetCost(1) + book.EgressCost(r.size);
          // Staying stored after a hit is free; admitting a miss pays a PUT.
          const double s_from_s = serve_s;
          const double s_from_n = serve_n + book.PutCost(1);
          choice_s[j] = s_from_s <= s_from_n ? 1 : 0;
          a_new = std::min(s_from_s, s_from_n);
          choice_n[j] = serve_s <= serve_n ? 1 : 0;
          b_new = std::min(serve_s, serve_n);
          break;
        }
        case Op::kPut: {
          // Write-through: any prior copy is stale; keeping the new version
          // resident costs one PUT admission regardless of incoming state.
          choice_s[j] = in_s <= in_n ? 1 : 0;
          a_new = std::min(in_s, in_n) + book.PutCost(1);
          choice_n[j] = in_s <= in_n ? 1 : 0;
          b_new = std::min(in_s, in_n);
          break;
        }
        case Op::kDelete: {
          // The object ceases to exist; a resident copy is discarded for
          // free (engines charge no delete operations).
          choice_s[j] = choice_n[j] = in_s <= in_n ? 1 : 0;
          a_new = kInf;
          b_new = std::min(in_s, in_n);
          break;
        }
      }
      a_prev = a_new;
      b_prev = b_new;
    }
    // Storing past the final event is never useful: the optimum ends N.
    dp_total += b_prev;
    // Traceback from state N at the last event.
    uint8_t out_stored = 0;
    for (uint32_t k = end; k-- > begin;) {
      const uint32_t j = chains.events[k];
      keep[j] = out_stored;
      out_stored = out_stored ? choice_s[j] : choice_n[j];
    }
  }

  ExactOracleResult result =
      oracle_internal::BillKeepSchedule(trace, chains, keep, sched, options);
  result.dp_total_usd = dp_total;
  return result;
}

double OracleCostAt(const ExactOracleResult& oracle, SimTime t) {
  const auto& tl = oracle.window_cost_timeline;
  const auto it = std::upper_bound(
      tl.begin(), tl.end(), t,
      [](SimTime lhs, const std::pair<SimTime, double>& e) { return lhs < e.first; });
  return it == tl.begin() ? 0.0 : std::prev(it)->second;
}

void AnnotateRegret(obs::DecisionTrace* trace, const ExactOracleResult& oracle) {
  if (trace == nullptr) {
    return;
  }
  for (obs::DecisionRecord& rec : trace->mutable_records()) {
    rec.regret_usd = rec.realized_cost_usd - OracleCostAt(oracle, rec.time);
  }
}

}  // namespace macaron
