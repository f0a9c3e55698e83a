#ifndef PGLO_HEAP_TUPLE_H_
#define PGLO_HEAP_TUPLE_H_

#include "common/bytes.h"
#include "txn/xid.h"

namespace pglo {

/// On-page tuple header: the visibility stamps of POSTGRES's no-overwrite
/// storage. Tuples are never physically modified after insertion except to
/// fill in `xmax` when a deleter arrives; an update is a delete plus an
/// insert of the new version elsewhere. That is the entire mechanism behind
/// §6.3's "since POSTGRES does not overwrite data, time travel is
/// automatically available."
struct TupleHeader {
  Xid xmin = kInvalidXid;  ///< inserting transaction
  Xid xmax = kInvalidXid;  ///< deleting transaction (invalid = live)

  static constexpr size_t kSize = 8;

  void EncodeTo(uint8_t* dst) const {
    EncodeFixed32(dst, xmin);
    EncodeFixed32(dst + 4, xmax);
  }
  static TupleHeader Decode(const uint8_t* src) {
    TupleHeader h;
    h.xmin = DecodeFixed32(src);
    h.xmax = DecodeFixed32(src + 4);
    return h;
  }
};

/// Builds the on-page image: header followed by the user payload.
inline Bytes MakeTupleImage(const TupleHeader& header, Slice payload) {
  Bytes image(TupleHeader::kSize + payload.size());
  header.EncodeTo(image.data());
  // An empty payload may carry a null data pointer, which memcpy must not
  // see.
  if (!payload.empty()) {
    std::memcpy(image.data() + TupleHeader::kSize, payload.data(),
                payload.size());
  }
  return image;
}

}  // namespace pglo

#endif  // PGLO_HEAP_TUPLE_H_
