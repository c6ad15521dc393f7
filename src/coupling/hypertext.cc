#include "coupling/hypertext.h"

#include <algorithm>

#include "oodb/builtins.h"

namespace sdms::coupling {

using oodb::AttributeDef;
using oodb::ClassDef;
using oodb::MethodContext;
using oodb::Value;
using oodb::ValueList;
using oodb::ValueType;

Status RegisterHypertext(Coupling& coupling) {
  oodb::Database& db = coupling.db();
  if (!db.schema().HasClass(kLinkClass)) {
    ClassDef link;
    link.name = kLinkClass;
    link.super = oodb::kObjectClass;
    link.attributes = {
        AttributeDef{"SOURCE", ValueType::kOid, Value()},
        AttributeDef{"TARGET", ValueType::kOid, Value()},
        AttributeDef{"LTYPE", ValueType::kString, Value(kImpliesLinkType)},
    };
    SDMS_RETURN_IF_ERROR(db.schema().DefineClass(std::move(link)));
    SDMS_RETURN_IF_ERROR(db.CreateIndex(kLinkClass, "TARGET"));
    SDMS_RETURN_IF_ERROR(db.CreateIndex(kLinkClass, "SOURCE"));
  }

  // Text mode 3: own text plus the text of implies-link sources.
  Coupling* cp = &coupling;
  coupling.RegisterTextProvider(
      kTextModeWithLinks,
      [cp](oodb::Database&, Oid oid) -> StatusOr<std::string> {
        SDMS_ASSIGN_OR_RETURN(std::string text, cp->SubtreeText(oid));
        SDMS_ASSIGN_OR_RETURN(std::vector<Oid> sources,
                              LinkSources(*cp, oid, kImpliesLinkType));
        for (Oid src : sources) {
          SDMS_ASSIGN_OR_RETURN(std::string fragment, cp->SubtreeText(src));
          if (fragment.empty()) continue;
          if (!text.empty()) text += " ";
          text += fragment;
        }
        return text;
      });

  // Navigation methods available inside VQL.
  db.methods().Register(
      "IRSObject", "linksTo",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        std::string type = kImpliesLinkType;
        if (args.size() == 1 && args[0].is_string()) type = args[0].as_string();
        Coupling* c = static_cast<Coupling*>(ctx.coupling);
        SDMS_ASSIGN_OR_RETURN(std::vector<Oid> sources,
                              LinkSources(*c, self, type));
        ValueList out;
        for (Oid s : sources) out.push_back(Value(s));
        return Value(std::move(out));
      });
  db.methods().Register(
      "IRSObject", "linksFrom",
      [](const MethodContext& ctx, Oid self,
         const std::vector<Value>& args) -> StatusOr<Value> {
        std::string type = kImpliesLinkType;
        if (args.size() == 1 && args[0].is_string()) type = args[0].as_string();
        Coupling* c = static_cast<Coupling*>(ctx.coupling);
        SDMS_ASSIGN_OR_RETURN(std::vector<Oid> targets,
                              LinkTargets(*c, self, type));
        ValueList out;
        for (Oid t : targets) out.push_back(Value(t));
        return Value(std::move(out));
      });
  return Status::OK();
}

StatusOr<Oid> CreateLink(Coupling& coupling, Oid source, Oid target,
                         const std::string& type) {
  oodb::Database& db = coupling.db();
  oodb::TxnId txn = db.Begin();
  auto oid_or = db.CreateObject(kLinkClass, txn);
  if (!oid_or.ok()) {
    (void)db.Abort(txn);
    return oid_or.status();
  }
  Oid oid = *oid_or;
  Status s = db.SetAttribute(oid, "SOURCE", Value(source), txn);
  if (s.ok()) s = db.SetAttribute(oid, "TARGET", Value(target), txn);
  if (s.ok()) s = db.SetAttribute(oid, "LTYPE", Value(type), txn);
  if (!s.ok()) {
    (void)db.Abort(txn);
    return s;
  }
  SDMS_RETURN_IF_ERROR(db.Commit(txn));
  return oid;
}

namespace {

StatusOr<std::vector<Oid>> LinkEndpoints(Coupling& coupling, Oid anchor,
                                         const std::string& type,
                                         const char* anchor_attr,
                                         const char* result_attr) {
  oodb::Database& db = coupling.db();
  std::vector<Oid> links;
  auto indexed = db.IndexLookup(kLinkClass, anchor_attr, Value(anchor));
  if (indexed.ok()) {
    links = std::move(*indexed);
  } else {
    links = db.Extent(kLinkClass);
  }
  std::vector<Oid> out;
  for (Oid link : links) {
    auto a = db.GetAttribute(link, anchor_attr);
    if (!a.ok() || !a->is_oid() || a->as_oid() != anchor) continue;
    auto lt = db.GetAttribute(link, "LTYPE");
    if (!lt.ok() || !lt->is_string() || lt->as_string() != type) continue;
    auto r = db.GetAttribute(link, result_attr);
    if (r.ok() && r->is_oid()) out.push_back(r->as_oid());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

StatusOr<Oid> FindDocumentById(Coupling& coupling, const std::string& docid) {
  oodb::Database& db = coupling.db();
  if (db.HasIndex("MMFDOC", "DOCID")) {
    auto hits = db.IndexLookup("MMFDOC", "DOCID", Value(docid));
    if (hits.ok() && !hits->empty()) return (*hits)[0];
    return Status::NotFound("no document with DOCID " + docid);
  }
  for (Oid oid : db.Extent("MMFDOC")) {
    auto value = db.GetAttribute(oid, "DOCID");
    if (value.ok() && value->is_string() && value->as_string() == docid) {
      return oid;
    }
  }
  return Status::NotFound("no document with DOCID " + docid);
}

StatusOr<size_t> MaterializeHyperlinks(Coupling& coupling, Oid root) {
  oodb::Database& db = coupling.db();
  size_t created = 0;
  // Walk the subtree collecting HYPERLINK elements.
  std::vector<Oid> stack = {root};
  while (!stack.empty()) {
    Oid cur = stack.back();
    stack.pop_back();
    SDMS_ASSIGN_OR_RETURN(std::string cls, db.ClassOf(cur));
    if (cls == "HYPERLINK") {
      auto target_id = db.GetAttribute(cur, "TARGET");
      if (!target_id.ok() || !target_id->is_string()) continue;
      auto target = FindDocumentById(coupling, target_id->as_string());
      if (!target.ok()) continue;  // Dangling markup: skip.
      std::string type = kImpliesLinkType;
      auto lt = db.GetAttribute(cur, "LINKTYPE");
      if (lt.ok() && lt->is_string() && !lt->as_string().empty()) {
        type = lt->as_string();
      }
      // Source: the containing paragraph when there is one.
      SDMS_ASSIGN_OR_RETURN(Oid para, coupling.ContainingOf(cur, "PARA"));
      Oid source = para.valid() ? para : cur;
      SDMS_RETURN_IF_ERROR(
          CreateLink(coupling, source, *target, type).status());
      ++created;
      continue;  // HYPERLINK content is its anchor text, not links.
    }
    SDMS_ASSIGN_OR_RETURN(std::vector<Oid> children, coupling.ChildrenOf(cur));
    for (Oid c : children) stack.push_back(c);
  }
  return created;
}

StatusOr<std::vector<Oid>> LinkSources(Coupling& coupling, Oid target,
                                       const std::string& type) {
  return LinkEndpoints(coupling, target, type, "TARGET", "SOURCE");
}

StatusOr<std::vector<Oid>> LinkTargets(Coupling& coupling, Oid source,
                                       const std::string& type) {
  return LinkEndpoints(coupling, source, type, "SOURCE", "TARGET");
}

namespace {

class LinkDerivationScheme : public DerivationScheme {
 public:
  LinkDerivationScheme(Coupling* coupling, std::string link_type,
                       double damping)
      : coupling_(coupling),
        link_type_(std::move(link_type)),
        damping_(damping) {}

  std::string name() const override { return "link"; }

  StatusOr<double> Derive(const DerivationContext& ctx) const override {
    double best = ctx.default_value;
    // (a) Component maximum over structural children.
    SDMS_ASSIGN_OR_RETURN(std::vector<Oid> components,
                          ctx.ComponentsOf(ctx.object));
    for (Oid c : components) {
      SDMS_ASSIGN_OR_RETURN(double v, ctx.ComponentValue(c, ctx.irs_query));
      best = std::max(best, v);
    }
    // (b) Damped best value among implying nodes (link semantics).
    SDMS_ASSIGN_OR_RETURN(std::vector<Oid> sources,
                          LinkSources(*coupling_, ctx.object, link_type_));
    for (Oid src : sources) {
      SDMS_ASSIGN_OR_RETURN(double v, ctx.ComponentValue(src, ctx.irs_query));
      best = std::max(best, damping_ * v);
    }
    return best;
  }

 private:
  Coupling* coupling_;
  std::string link_type_;
  double damping_;
};

}  // namespace

std::unique_ptr<DerivationScheme> MakeLinkDerivationScheme(
    Coupling* coupling, std::string link_type, double damping) {
  return std::make_unique<LinkDerivationScheme>(coupling, std::move(link_type),
                                                damping);
}

}  // namespace sdms::coupling
