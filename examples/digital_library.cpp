// A persistent digital library (the paper's motivating application
// class): documents survive restarts through the database's snapshot +
// WAL storage, the IRS indexes are saved and restored, and updates are
// propagated under an application-controlled policy (Section 4.6).

#include <cstdio>
#include <filesystem>

#include "coupling/coupling.h"
#include "irs/engine.h"
#include "oodb/database.h"
#include "sgml/corpus/generator.h"
#include "sgml/mmf_dtd.h"

using namespace sdms;
using coupling::Collection;
using coupling::Coupling;
using coupling::PropagationPolicy;

namespace {

Status SetUpSchema(Coupling& coupling) {
  SDMS_ASSIGN_OR_RETURN(sgml::Dtd dtd, sgml::LoadMmfDtd());
  return coupling.RegisterDtdClasses(dtd);
}

}  // namespace

int main() {
  const std::string dir = "/tmp/sdms_digital_library";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // ---- Session 1: ingest and index --------------------------------
  {
    auto db = oodb::Database::Open({dir + "/db", false});
    if (!db.ok()) return 1;
    irs::IrsEngine irs_engine;
    Coupling coupling(db->get(), &irs_engine);
    if (!coupling.Initialize().ok() || !SetUpSchema(coupling).ok()) return 1;

    sgml::CorpusOptions opts;
    opts.num_docs = 25;
    opts.seed = 7;
    sgml::Corpus corpus = sgml::CorpusGenerator(opts).Generate();
    for (const sgml::Document& doc : corpus.documents) {
      if (!coupling.StoreDocument(doc).ok()) return 1;
    }
    auto coll = coupling.CreateCollection("library", "bm25");
    if (!coll.ok()) return 1;
    if (!(*coll)
             ->IndexObjects("ACCESS p FROM p IN PARA",
                            coupling::kTextModeSubtree)
             .ok()) {
      return 1;
    }
    // Persist everything: DB snapshot and IRS indexes.
    if (!db.value()->Checkpoint().ok()) return 1;
    if (!irs_engine.SaveTo(dir + "/irs").ok()) return 1;
    std::printf("session 1: stored %zu objects, indexed %zu paragraphs, "
                "checkpointed\n",
                db.value()->store().size(), (*coll)->represented_count());
  }

  // ---- Session 2: restart, restore, query, update ------------------
  {
    auto db = oodb::Database::Open({dir + "/db", false});
    if (!db.ok()) return 1;
    irs::IrsEngine irs_engine;
    if (!irs_engine.LoadFrom(dir + "/irs").ok()) return 1;
    Coupling coupling(db->get(), &irs_engine);
    if (!coupling.Initialize().ok() || !SetUpSchema(coupling).ok()) return 1;

    // Reattach the persisted COLLECTION object to the restored IRS
    // index: name, spec query, text mode and the represented set all
    // come back without re-indexing anything.
    auto restored_count = coupling.RestoreCollections();
    if (!restored_count.ok()) return 1;
    auto coll = coupling.GetCollectionByName("library");
    if (!coll.ok()) return 1;
    std::printf("session 2: recovered %zu objects; restored %zu "
                "collection(s); 'library' represents %zu objects again "
                "(spec: %s)\n",
                db.value()->store().size(), *restored_count,
                (*coll)->represented_count(),
                (*coll)->spec_query().c_str());

    // The restored index answers at once; the result buffer starts
    // empty and fills again with this session's queries.
    (void)(*coll)->GetIrsResult("www");
    (void)(*coll)->GetIrsResult("www");
    std::printf("restored index served 'www' twice with %llu IRS call(s) "
                "(buffer hits=%llu)\n",
                static_cast<unsigned long long>((*coll)->stats().irs_queries),
                static_cast<unsigned long long>(
                    (*coll)->stats().buffer_hits));

    // Application-controlled update propagation: edits queue up and are
    // applied in a "low-load period".
    (*coll)->set_propagation_policy(PropagationPolicy::kManual);
    auto paras = db.value()->Extent("PARA");
    for (size_t i = 0; i < 5 && i < paras.size(); ++i) {
      (void)db.value()->SetAttribute(
          paras[i], "TEXT",
          oodb::Value("revised article about the worldwideweb " +
                      std::to_string(i)));
    }
    std::printf("5 edits queued: pending=%zu (stale reads allowed under "
                "manual policy)\n",
                (*coll)->pending_updates());
    if (!(*coll)->PropagateUpdates().ok()) return 1;
    auto hits = (*coll)->GetIrsResult("worldwideweb");
    std::printf("after explicit propagation: pending=%zu, "
                "'worldwideweb' hits=%zu, reindex ops=%llu\n",
                (*coll)->pending_updates(),
                hits.ok() ? (*hits)->size() : 0,
                static_cast<unsigned long long>(
                    (*coll)->stats().reindex_ops));
  }

  std::printf("digital library example finished\n");
  return 0;
}
