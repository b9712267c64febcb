// The from-scratch ground truth the serving-layer suites compare against:
// GridAggregates::Build over every record seen so far, in arrival order.
// A sealed ShardedDeltaStore epoch (and everything a FairIndexService
// derives from it) must equal this bit for bit, because both accumulate
// each cell's records in the same order through
// GridAggregates::AccumulateRecord and integrate the same per-cell sums.

#ifndef FAIRIDX_TESTS_RECORD_LOG_ORACLE_H_
#define FAIRIDX_TESTS_RECORD_LOG_ORACLE_H_

#include "geo/grid.h"
#include "geo/grid_aggregates.h"
#include "service/sharded_delta_store.h"

namespace fairidx {
namespace testing_oracle {

/// Appends `batch` to `log`. Residuals stay implicit while every batch
/// leaves them empty; once one batch carries them, the log materializes
/// the default (score - label, exactly as Build computes it) for every
/// record that has none.
inline void AppendRecords(const AggregateBatch& batch, AggregateBatch* log) {
  if (!batch.residuals.empty() || !log->residuals.empty()) {
    for (size_t i = log->residuals.size(); i < log->size(); ++i) {
      log->residuals.push_back(log->scores[i] - log->labels[i]);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      log->residuals.push_back(batch.residuals.empty()
                                   ? batch.scores[i] - batch.labels[i]
                                   : batch.residuals[i]);
    }
  }
  log->cell_ids.insert(log->cell_ids.end(), batch.cell_ids.begin(),
                       batch.cell_ids.end());
  log->labels.insert(log->labels.end(), batch.labels.begin(),
                     batch.labels.end());
  log->scores.insert(log->scores.end(), batch.scores.begin(),
                     batch.scores.end());
}

/// GridAggregates::Build over every record in `log`.
inline GridAggregates BuildFromScratch(const Grid& grid,
                                       const AggregateBatch& log) {
  return GridAggregates::Build(grid, log.cell_ids, log.labels, log.scores,
                               log.residuals)
      .value();
}

}  // namespace testing_oracle
}  // namespace fairidx

#endif  // FAIRIDX_TESTS_RECORD_LOG_ORACLE_H_
