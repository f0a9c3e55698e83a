#ifndef PGLO_FAULT_FAULTY_SMGR_H_
#define PGLO_FAULT_FAULTY_SMGR_H_

#include <memory>
#include <string>
#include <utility>

#include "fault/fault_injector.h"
#include "smgr/smgr.h"

namespace pglo {

/// A StorageManager decorator that consults a FaultInjector before every
/// block operation on the wrapped manager. Reports the inner manager's
/// name, so stats, traces, and the smgr switch see an unchanged identity;
/// with the injector disarmed every call is a plain forward.
///
/// Faults modelled here:
///  - crash-at-Nth-write: the interrupted vectored run is applied as a
///    block-aligned prefix (torn write) or dropped whole, then every later
///    call fails with the injected-crash status;
///  - transient errors: Unavailable before the inner call, leaving the
///    inner state untouched, so a retry succeeds cleanly;
///  - bit corruption: a seed-chosen bit of one block of a written run is
///    flipped on its way down, for the page-checksum path to catch later.
///
/// CreateFile/DropFile count one write tick each (file metadata is a
/// physical update too — a crash point there exercises bootstrap paths
/// that create files before filling them). Reads only fail, never mutate.
class FaultyStorageManager : public StorageManager {
 public:
  FaultyStorageManager(std::unique_ptr<StorageManager> inner,
                       FaultInjector* injector)
      : inner_(std::move(inner)),
        injector_(injector),
        site_("smgr." + inner_->name()) {}

  Status CreateFile(Oid relfile) override;
  Status DropFile(Oid relfile) override;
  bool FileExists(Oid relfile) override { return inner_->FileExists(relfile); }
  Result<BlockNumber> NumBlocks(Oid relfile) override {
    return inner_->NumBlocks(relfile);
  }
  Status ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                    uint8_t* buf) override;
  Status WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                     const uint8_t* buf) override;
  Status Sync(Oid relfile) override;
  Result<uint64_t> StorageBytes(Oid relfile) override {
    return inner_->StorageBytes(relfile);
  }
  std::string name() const override { return inner_->name(); }
  void BindStats(StatsRegistry* registry) override {
    inner_->BindStats(registry);
  }

  StorageManager* inner() { return inner_.get(); }

 private:
  /// Applies `outcome` to a write of `nblocks` at `start`: forwards the
  /// applied prefix (with the corrupt bit flipped in a scratch copy when
  /// requested) and returns the injected status.
  Status ApplyWrite(Oid relfile, BlockNumber start, uint32_t nblocks,
                    const uint8_t* buf,
                    const FaultInjector::WriteOutcome& outcome);

  std::unique_ptr<StorageManager> inner_;
  FaultInjector* injector_;
  std::string site_;
};

}  // namespace pglo

#endif  // PGLO_FAULT_FAULTY_SMGR_H_
