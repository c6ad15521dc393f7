// Section 5 of the paper: applying the coupling to hypertext. A small
// web of MMF nodes is connected with typed `implies` links; the example
// shows (a) link-aware getText — a node's IRS document also contains
// the text of nodes that imply it — and (b) link-based derivation of
// IRS values for nodes that are not represented in the collection.

#include <cstdio>

#include "coupling/coupling.h"
#include "coupling/hypertext.h"
#include "irs/engine.h"
#include "oodb/database.h"
#include "sgml/document.h"
#include "sgml/mmf_dtd.h"

using namespace sdms;
using coupling::Coupling;

namespace {

StatusOr<Oid> Store(Coupling& coupling, const char* sgml) {
  auto doc = sgml::ParseSgml(sgml);
  if (!doc.ok()) return doc.status();
  return coupling.StoreDocument(*doc);
}

}  // namespace

int main() {
  auto db = oodb::Database::Open({});
  if (!db.ok()) return 1;
  irs::IrsEngine irs_engine;
  Coupling coupling(db->get(), &irs_engine);
  if (!coupling.Initialize().ok()) return 1;
  auto dtd = sgml::LoadMmfDtd();
  if (!dtd.ok() || !coupling.RegisterDtdClasses(*dtd).ok()) return 1;
  if (!coupling::RegisterHypertext(coupling).ok()) return 1;

  // Three hypertext nodes. The "overview" node itself never mentions
  // inference networks; the "details" node does, and implies the
  // overview.
  auto overview = Store(coupling,
                        "<MMFDOC DOCID=\"overview\">"
                        "<DOCTITLE>Retrieval systems overview</DOCTITLE>"
                        "<PARA>a broad survey of text retrieval</PARA>"
                        "</MMFDOC>");
  auto details = Store(coupling,
                       "<MMFDOC DOCID=\"details\">"
                       "<DOCTITLE>Inference networks</DOCTITLE>"
                       "<PARA>inference networks compute beliefs for "
                       "documents given query evidence</PARA>"
                       "</MMFDOC>");
  auto unrelated = Store(coupling,
                         "<MMFDOC DOCID=\"other\">"
                         "<DOCTITLE>Travel report</DOCTITLE>"
                         "<PARA>a journey through the alps</PARA>"
                         "</MMFDOC>");
  if (!overview.ok() || !details.ok() || !unrelated.ok()) return 1;

  // details --implies--> overview (node-level link).
  if (!coupling::CreateLink(coupling, *details, *overview, "implies").ok()) {
    return 1;
  }
  std::printf("hypertext: 3 nodes, 1 implies-link\n");

  // Collection A: plain subtree text. Collection B: link-aware text —
  // the getText method decides what a node contributes (Section 5).
  auto plain = coupling.CreateCollection("plain", "inquery");
  auto linked = coupling.CreateCollection("linked", "inquery");
  if (!plain.ok() || !linked.ok()) return 1;
  (void)(*plain)->IndexObjects("ACCESS d FROM d IN MMFDOC",
                               coupling::kTextModeSubtree);
  (void)(*linked)->IndexObjects("ACCESS d FROM d IN MMFDOC",
                                coupling::kTextModeWithLinks);

  const char* kQuery = "inference networks";
  auto plain_hits = (*plain)->GetIrsResult(kQuery);
  auto linked_hits = (*linked)->GetIrsResult(kQuery);
  if (!plain_hits.ok() || !linked_hits.ok()) return 1;
  auto score = [](const std::shared_ptr<const coupling::OidScoreMap>& m,
                  Oid oid) {
    auto it = m->find(oid);
    return it == m->end() ? 0.0 : it->second;
  };
  std::printf("\nquery '%s':\n", kQuery);
  std::printf("%-10s %-14s %-14s\n", "node", "plain text", "with links");
  std::printf("overview   %-14.4f %-14.4f  <- implied by 'details'\n",
              score(*plain_hits, *overview), score(*linked_hits, *overview));
  std::printf("details    %-14.4f %-14.4f\n",
              score(*plain_hits, *details), score(*linked_hits, *details));
  std::printf("other      %-14.4f %-14.4f\n",
              score(*plain_hits, *unrelated),
              score(*linked_hits, *unrelated));

  // Link-based derivation: a paragraph-level collection where document
  // nodes are not represented; the overview's value for the query is
  // derived through the link semantics.
  auto paras = coupling.CreateCollection("paras", "inquery");
  if (!paras.ok()) return 1;
  (void)(*paras)->IndexObjects("ACCESS p FROM p IN PARA",
                               coupling::kTextModeSubtree);
  (*paras)->SetDerivationScheme(
      coupling::MakeLinkDerivationScheme(&coupling, "implies", 0.8));
  auto derived = (*paras)->FindIrsValue(kQuery, *overview);
  auto derived_other = (*paras)->FindIrsValue(kQuery, *unrelated);
  if (derived.ok() && derived_other.ok()) {
    std::printf(
        "\nlink-based deriveIRSValue: overview=%.4f other=%.4f "
        "(damping 0.8 over the implying node)\n",
        *derived, *derived_other);
  }
  return 0;
}
