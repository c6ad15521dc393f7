#ifndef SDMS_BENCH_E2E_STAGE_TREE_H_
#define SDMS_BENCH_E2E_STAGE_TREE_H_

// The server's per-query stage tree as the client sees it: parsed from
// the QueryProfile JSON a response carries when the request set
// want_profile, then split into self times that add up to wall time.
//
// The JSON carries each stage's accumulated time and invocation count
// but no start offsets, so overlap is inferred from the one place the
// query path runs stages concurrently: the per-shard children of a
// fan-out ("irs_search/shard<i>") run in parallel on the thread pool.
// All other siblings run one after another on the query's thread.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace sdms::bench_e2e {

struct StageNode {
  std::string name;
  /// Accumulated over all invocations (repeated same-name stages under
  /// one parent are merged by the profiler).
  int64_t total_us = 0;
  uint64_t invocations = 0;
  std::map<std::string, uint64_t> counters;
  std::vector<StageNode> children;
};

/// Parses QueryProfile::ToJson() output and returns its root stage.
StatusOr<StageNode> ParseProfileJson(const std::string& json);

/// True for the per-shard fan-out stages.
bool IsShardStage(const std::string& name);

/// Adds the wall-time self time of every stage below `node` (not of
/// `node` itself) to `self_us`, keyed by stage name with the shard index
/// collapsed ("irs_search/shard3" -> "irs_search/shard"). The children
/// of a stage cover the sum of the sequential ones plus the slowest
/// shard, capped at the stage's own total; parallel shards are scaled
/// to share the slowest one's time, and every subtree to the wall time
/// its parent's coverage leaves it. So the values added sum to the wall
/// time `node`'s children cover.
void AddChildSelfTimes(const StageNode& node,
                       std::map<std::string, double>* self_us);

/// Sum of counter `name` over the whole tree.
uint64_t SumCounter(const StageNode& node, const std::string& name);

/// Calls `fn(node)` for every stage in the tree, root included.
template <typename Fn>
void VisitStages(const StageNode& node, Fn&& fn) {
  fn(node);
  for (const StageNode& c : node.children) VisitStages(c, fn);
}

/// Appends Chrome trace "X" events for the children of `node`, laid out
/// from `start_us`: sequential children back to back on thread `tid`,
/// shard children side by side on threads `tid * 100 + 1 + i`. Every
/// event carries `request_id` and is preceded by a comma.
void AppendChromeChildEvents(const StageNode& node, double start_us,
                             uint64_t request_id, int tid, std::string* out);

/// One Chrome trace "X" event (preceded by a comma).
void AppendChromeEvent(const std::string& name, double ts_us, double dur_us,
                       uint64_t request_id, int tid, uint64_t invocations,
                       std::string* out);

}  // namespace sdms::bench_e2e

#endif  // SDMS_BENCH_E2E_STAGE_TREE_H_
