#include "coupling/derivation.h"

#include <algorithm>

#include "irs/query/belief_fold.h"

namespace sdms::coupling {

namespace {

using irs::QueryNode;
using irs::QueryOp;

/// Fetches component values for the full query, shared by the simple
/// (query-agnostic) schemes.
StatusOr<std::vector<std::pair<Oid, double>>> ComponentValues(
    const DerivationContext& ctx) {
  SDMS_ASSIGN_OR_RETURN(std::vector<Oid> components,
                        ctx.ComponentsOf(ctx.object));
  std::vector<std::pair<Oid, double>> out;
  out.reserve(components.size());
  for (Oid c : components) {
    SDMS_ASSIGN_OR_RETURN(double v, ctx.ComponentValue(c, ctx.irs_query));
    out.emplace_back(c, v);
  }
  return out;
}

class MaxScheme : public DerivationScheme {
 public:
  std::string name() const override { return "max"; }

  StatusOr<double> Derive(const DerivationContext& ctx) const override {
    SDMS_ASSIGN_OR_RETURN(auto values, ComponentValues(ctx));
    double best = ctx.default_value;
    for (const auto& [oid, v] : values) best = std::max(best, v);
    return best;
  }
};

class AvgScheme : public DerivationScheme {
 public:
  std::string name() const override { return "avg"; }

  StatusOr<double> Derive(const DerivationContext& ctx) const override {
    SDMS_ASSIGN_OR_RETURN(auto values, ComponentValues(ctx));
    if (values.empty()) return ctx.default_value;
    double sum = 0.0;
    for (const auto& [oid, v] : values) sum += v;
    return sum / static_cast<double>(values.size());
  }
};

class WeightedTypeScheme : public DerivationScheme {
 public:
  explicit WeightedTypeScheme(std::map<std::string, double> weights)
      : weights_(std::move(weights)) {}

  std::string name() const override { return "wtype"; }

  StatusOr<double> Derive(const DerivationContext& ctx) const override {
    SDMS_ASSIGN_OR_RETURN(auto values, ComponentValues(ctx));
    if (values.empty()) return ctx.default_value;
    double sum = 0.0;
    double wsum = 0.0;
    for (const auto& [oid, v] : values) {
      SDMS_ASSIGN_OR_RETURN(std::string cls, ctx.ClassOf(oid));
      auto it = weights_.find(cls);
      double w = it == weights_.end() ? 1.0 : it->second;
      sum += w * v;
      wsum += w;
    }
    return wsum > 0.0 ? sum / wsum : ctx.default_value;
  }

 private:
  std::map<std::string, double> weights_;
};

class LengthWeightedScheme : public DerivationScheme {
 public:
  std::string name() const override { return "length"; }

  StatusOr<double> Derive(const DerivationContext& ctx) const override {
    SDMS_ASSIGN_OR_RETURN(auto values, ComponentValues(ctx));
    if (values.empty()) return ctx.default_value;
    double sum = 0.0;
    double wsum = 0.0;
    for (const auto& [oid, v] : values) {
      SDMS_ASSIGN_OR_RETURN(double len, ctx.LengthOf(oid));
      double w = std::max(len, 1.0);
      sum += w * v;
      wsum += w;
    }
    return sum / wsum;
  }
};

class SubqueryAwareScheme : public DerivationScheme {
 public:
  std::string name() const override { return "subquery"; }

  StatusOr<double> Derive(const DerivationContext& ctx) const override {
    if (ctx.query_tree == nullptr) {
      return Status::InvalidArgument("subquery scheme needs a parsed query");
    }
    SDMS_ASSIGN_OR_RETURN(std::vector<Oid> components,
                          ctx.ComponentsOf(ctx.object));
    if (components.empty()) return ctx.default_value;
    return Combine(ctx, *ctx.query_tree, components);
  }

 private:
  /// Evaluates the operator tree: a leaf subquery is scored as the max
  /// over components (floored at the default), an inner node folds its
  /// children's values with the INQUERY operator semantics.
  StatusOr<double> Combine(const DerivationContext& ctx,
                           const QueryNode& node,
                           const std::vector<Oid>& components) const {
    if (node.op == QueryOp::kTerm || node.op == QueryOp::kOdn ||
        node.op == QueryOp::kUwn) {
      // A term, or a window expression evaluated whole per component
      // (a window match cannot span two components' texts).
      const std::string query =
          node.op == QueryOp::kTerm ? node.term : node.ToString();
      double best = ctx.default_value;
      for (Oid c : components) {
        SDMS_ASSIGN_OR_RETURN(double v, ctx.ComponentValue(c, query));
        best = std::max(best, v);
      }
      return best;
    }
    std::vector<double> values;
    values.reserve(node.children.size());
    for (const auto& child : node.children) {
      SDMS_ASSIGN_OR_RETURN(double v, Combine(ctx, *child, components));
      values.push_back(v);
    }
    return irs::CombineBeliefs(node, ctx.default_value,
                               [&](size_t i) { return values[i]; });
  }
};

}  // namespace

std::unique_ptr<DerivationScheme> MakeMaxScheme() {
  return std::make_unique<MaxScheme>();
}

std::unique_ptr<DerivationScheme> MakeAvgScheme() {
  return std::make_unique<AvgScheme>();
}

std::unique_ptr<DerivationScheme> MakeWeightedTypeScheme(
    std::map<std::string, double> class_weights) {
  return std::make_unique<WeightedTypeScheme>(std::move(class_weights));
}

std::unique_ptr<DerivationScheme> MakeLengthWeightedScheme() {
  return std::make_unique<LengthWeightedScheme>();
}

std::unique_ptr<DerivationScheme> MakeSubqueryAwareScheme() {
  return std::make_unique<SubqueryAwareScheme>();
}

StatusOr<std::unique_ptr<DerivationScheme>> MakeScheme(
    const std::string& name) {
  if (name == "max") return MakeMaxScheme();
  if (name == "avg") return MakeAvgScheme();
  if (name == "length") return MakeLengthWeightedScheme();
  if (name == "subquery") return MakeSubqueryAwareScheme();
  if (name == "wtype") {
    return MakeWeightedTypeScheme({{"DOCTITLE", 2.0}, {"SECTITLE", 2.0}});
  }
  return Status::InvalidArgument("unknown derivation scheme: " + name);
}

}  // namespace sdms::coupling
