#ifndef SDMS_IRS_QUERY_BELIEF_FOLD_H_
#define SDMS_IRS_QUERY_BELIEF_FOLD_H_

#include <algorithm>
#include <cstddef>

#include "irs/query/query_node.h"

namespace sdms::irs {

/// The INQUERY operator semantics, written once (Section 4.5.4: the
/// coupling knows "half a dozen operators' exact semantics"). Returns
/// the belief of operator node `node` given `child(i)`, the belief of
/// `node.children[i]`; children are asked in order, each at most once.
/// The inference-network model, the coupling's null score, subquery
/// derivation and DBMS-side operator evaluation all fold through here,
/// so their values compare exactly.
///
///   #and  product             #sum   mean
///   #or   1 - prod(1 - b)     #wsum  weighted mean (weight 1 if unset)
///   #not  1 - b of child 0    #max   maximum
///
/// An operator the stop list emptied: #and/#or/#not give
/// `default_belief`; #sum/#wsum/#max give 0.0, as does a #wsum whose
/// weights sum to 0. Leaves (terms, windows) are the caller's: the fold
/// returns `default_belief` for them.
template <class F>
double CombineBeliefs(const QueryNode& node, double default_belief,
                      F&& child) {
  const size_t n = node.children.size();
  switch (node.op) {
    case QueryOp::kAnd: {
      if (n == 0) return default_belief;
      double b = 1.0;
      for (size_t i = 0; i < n; ++i) b *= child(i);
      return b;
    }
    case QueryOp::kOr: {
      if (n == 0) return default_belief;
      double b = 1.0;
      for (size_t i = 0; i < n; ++i) b *= 1.0 - child(i);
      return 1.0 - b;
    }
    case QueryOp::kNot:
      return n == 0 ? default_belief : 1.0 - child(0);
    case QueryOp::kSum: {
      if (n == 0) return 0.0;
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) sum += child(i);
      return sum / static_cast<double>(n);
    }
    case QueryOp::kWsum: {
      double sum = 0.0;
      double wsum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double w = i < node.weights.size() ? node.weights[i] : 1.0;
        sum += w * child(i);
        wsum += w;
      }
      return wsum > 0.0 ? sum / wsum : 0.0;
    }
    case QueryOp::kMax: {
      double best = 0.0;
      for (size_t i = 0; i < n; ++i) best = std::max(best, child(i));
      return best;
    }
    case QueryOp::kTerm:
    case QueryOp::kOdn:
    case QueryOp::kUwn:
      break;
  }
  return default_belief;
}

/// The belief of `node` for a document with no evidence for any of its
/// leaves, each leaf at `leaf_belief`: the query's constant "null
/// score" under the inference-network model.
inline double NullBelief(const QueryNode& node, double leaf_belief) {
  return CombineBeliefs(node, leaf_belief, [&](size_t i) {
    return NullBelief(*node.children[i], leaf_belief);
  });
}

}  // namespace sdms::irs

#endif  // SDMS_IRS_QUERY_BELIEF_FOLD_H_
