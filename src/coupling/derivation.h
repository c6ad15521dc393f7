#ifndef SDMS_COUPLING_DERIVATION_H_
#define SDMS_COUPLING_DERIVATION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/oid.h"
#include "common/status.h"
#include "irs/query/query_node.h"

namespace sdms::coupling {

/// Environment handed to a derivation scheme when an object's IRS
/// value must be computed from related objects (deriveIRSValue,
/// Section 4.5.2). Callbacks keep schemes decoupled from Collection.
struct DerivationContext {
  /// The object whose value is being derived.
  Oid object;
  /// The full IRS query (raw syntax).
  std::string irs_query;

  /// IRS value of a component for `query`: buffered IRS lookup when the
  /// component is represented, recursive derivation otherwise.
  std::function<StatusOr<double>(Oid component, const std::string& query)>
      component_value;
  /// Components (child objects) in document order.
  std::function<StatusOr<std::vector<Oid>>(Oid object)> components_of;
  /// Database class of an object (element type).
  std::function<StatusOr<std::string>(Oid object)> class_of;
  /// Text length (tokens) of an object's subtree.
  std::function<StatusOr<double>(Oid object)> length_of;
  /// Parses the IRS query syntax into an operator tree.
  std::function<StatusOr<std::unique_ptr<irs::QueryNode>>(
      const std::string& query)>
      parse_query;

  /// Value when no component provides evidence, and the floor of a
  /// subquery's value. The collection sets it to the query's null score
  /// (Collection::NullScore), so an object without components never
  /// outranks one with weak evidence.
  double default_value = 0.4;
};

/// Strategy for computing an object's IRS value from its components'
/// values. The paper leaves the computation to the application
/// (deriveIRSValue is application-provided); these are the schemes the
/// paper discusses: max / average [CST92], type-weighted [Wil94],
/// length-aware (INQUERY-style), and the subquery-aware combination
/// the Figure 4 discussion argues for.
class DerivationScheme {
 public:
  virtual ~DerivationScheme() = default;
  virtual std::string name() const = 0;
  virtual StatusOr<double> Derive(const DerivationContext& ctx) const = 0;
};

/// max over components ([CST92] first suggestion). Fails the Figure 4
/// M3-vs-M4 distinction for multi-term queries.
std::unique_ptr<DerivationScheme> MakeMaxScheme();

/// Arithmetic mean over components ([CST92] second suggestion).
std::unique_ptr<DerivationScheme> MakeAvgScheme();

/// Type-weighted mean ([Wil94]): components are weighted by their
/// element class (e.g. DOCTITLE counts double); unknown classes get
/// weight 1.
std::unique_ptr<DerivationScheme> MakeWeightedTypeScheme(
    std::map<std::string, double> class_weights);

/// Length-weighted mean: components weighted by their text length,
/// approximating what the IRS itself would compute for the
/// concatenated text (the paper notes INQUERY "takes into account the
/// IRS documents' length").
std::unique_ptr<DerivationScheme> MakeLengthWeightedScheme();

/// Subquery-aware combination: the IRS query is decomposed into its
/// subqueries (operator tree); each *leaf* subquery is scored as the
/// maximum over the components; the per-subquery scores are then
/// recombined with the operators' INQUERY semantics. Distinguishes M3
/// (one paragraph per term) from M4 (two paragraphs, same term) on
/// #and(WWW NII) — the paper's key example.
std::unique_ptr<DerivationScheme> MakeSubqueryAwareScheme();

/// Creates a scheme by name: "max", "avg", "wtype" (default weights:
/// DOCTITLE/SECTITLE 2.0), "length", "subquery".
StatusOr<std::unique_ptr<DerivationScheme>> MakeScheme(
    const std::string& name);

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_DERIVATION_H_
