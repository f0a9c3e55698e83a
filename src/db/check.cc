#include "db/check.h"

#include "btree/btree.h"
#include "db/database.h"

namespace pglo {

std::string IntegrityReport::ToString() const {
  std::string out = "integrity: " + std::to_string(objects_checked) +
                    " objects, " + std::to_string(btrees_checked) +
                    " btrees (" + std::to_string(entries_checked) +
                    " entries)";
  if (worm_orphaned_blocks > 0) {
    out += ", " + std::to_string(worm_orphaned_blocks) +
           " orphaned WORM block(s)";
  }
  if (problems.empty()) {
    out += " — OK";
  } else {
    out += " — " + std::to_string(problems.size()) + " problem(s):";
    for (const std::string& p : problems) {
      out += "\n  " + p;
    }
  }
  return out;
}

Result<IntegrityReport> CheckIntegrity(Database* db) {
  IntegrityReport report;
  if (db->worm() != nullptr) {
    report.worm_orphaned_blocks = db->worm()->OrphanedBlocks();
  }
  std::unique_ptr<Session> session = db->Connect();
  Transaction* txn = session->Begin();
  PGLO_ASSIGN_OR_RETURN(std::vector<LoManager::ObjectInfo> objects,
                        db->large_objects().List(txn));

  auto note = [&](Oid oid, const std::string& what, const Status& s) {
    report.problems.push_back("lo " + std::to_string(oid) + ": " + what +
                              ": " + s.ToString());
  };

  for (const LoManager::ObjectInfo& obj : objects) {
    ++report.objects_checked;
    // 1. Instantiate and probe the object's readable surface.
    Result<std::shared_ptr<LargeObject>> lo =
        db->large_objects().Instantiate(txn, obj.oid);
    if (!lo.ok()) {
      note(obj.oid, "instantiate", lo.status());
      continue;
    }
    Result<uint64_t> size = lo.value()->Size(txn);
    if (!size.ok()) {
      note(obj.oid, "size", size.status());
      continue;
    }
    // Stream the entire object: every chunk decodes, every touched page's
    // checksum verifies.
    if (*size > 0) {
      Bytes buf(64 * 1024);
      uint64_t off = 0;
      while (off < *size) {
        size_t want = static_cast<size_t>(
            std::min<uint64_t>(buf.size(), *size - off));
        Result<size_t> n = lo.value()->Read(txn, off, want, buf.data());
        if (!n.ok()) {
          note(obj.oid, "read at " + std::to_string(off), n.status());
          break;
        }
        if (n.value() != want) {
          note(obj.oid, "read at " + std::to_string(off),
               Status::Corruption("short read"));
          break;
        }
        off += n.value();
      }
    }
    Result<LargeObject::StorageFootprint> fp = lo.value()->Footprint();
    if (!fp.ok()) {
      note(obj.oid, "footprint", fp.status());
    }
    // 2. Validate the index structures by storage kind.
    std::vector<RelFileId> btrees;
    if (obj.spec.kind == StorageKind::kFChunk && obj.files.index != 0) {
      btrees.push_back(RelFileId{obj.spec.smgr, obj.files.index});
    } else if (obj.spec.kind == StorageKind::kVSegment) {
      if (obj.files.seg_index != 0) {
        btrees.push_back(RelFileId{obj.spec.smgr, obj.files.seg_index});
      }
      if (obj.files.inner_index != 0) {
        btrees.push_back(RelFileId{obj.spec.smgr, obj.files.inner_index});
      }
    }
    for (RelFileId file : btrees) {
      Btree tree(&db->pool(), file);
      Result<uint64_t> entries = tree.CheckStructure();
      ++report.btrees_checked;
      if (!entries.ok()) {
        note(obj.oid, "btree " + std::to_string(file.relfile),
             entries.status());
      } else {
        report.entries_checked += entries.value();
      }
    }
  }
  PGLO_RETURN_IF_ERROR(session->Abort());
  return report;
}

}  // namespace pglo
