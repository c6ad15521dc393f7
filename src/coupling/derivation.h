#ifndef SDMS_COUPLING_DERIVATION_H_
#define SDMS_COUPLING_DERIVATION_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/oid.h"
#include "common/status.h"
#include "irs/query/query_node.h"

namespace sdms::coupling {

/// What a derivation scheme sees of the object whose IRS value must be
/// computed from related objects (deriveIRSValue, Section 4.5.2). The
/// collection implements it over its per-statement read state; tests
/// and benches implement it over fixed values.
class DerivationContext {
 public:
  /// The object whose value is being derived.
  Oid object;
  /// The full IRS query (raw syntax), and its operator tree.
  std::string_view irs_query;
  const irs::QueryNode* query_tree = nullptr;
  /// Value when no component provides evidence, and the floor of a
  /// subquery's value. The collection sets it to the query's null score
  /// (Collection::NullScore), so an object without components never
  /// outranks one with weak evidence.
  double default_value = 0.4;

  /// IRS value of a component for `query` (the full query or one of its
  /// subqueries): its IRS score when the component is represented,
  /// recursive derivation otherwise.
  virtual StatusOr<double> ComponentValue(Oid component,
                                          std::string_view query) const = 0;
  /// Components (child objects) in document order.
  virtual StatusOr<std::vector<Oid>> ComponentsOf(Oid object) const = 0;
  /// Database class of an object (element type).
  virtual StatusOr<std::string> ClassOf(Oid object) const = 0;
  /// Text length (tokens) of an object's subtree.
  virtual StatusOr<double> LengthOf(Oid object) const = 0;

 protected:
  ~DerivationContext() = default;
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
