#include "device/device_model.h"

namespace pglo {

namespace {
constexpr double kMsToNs = 1e6;

uint64_t TransferNanos(uint64_t nblocks, uint32_t block_size,
                       double mb_per_s) {
  double bytes = static_cast<double>(nblocks) * block_size;
  double seconds = bytes / (mb_per_s * 1024.0 * 1024.0);
  return static_cast<uint64_t>(seconds * 1e9);
}

/// Per-command overhead + streaming transfer for one `nblocks` command.
///
/// Calibrated so a single-block command costs exactly
/// TransferNanos(1, transfer_mb_per_s): the overhead is the difference
/// between the effective single-block rate and the media rate, so
/// pre-vectored-I/O charge sequences (always one block per command) price
/// bit-identically. A streaming rate at or below the effective rate
/// degenerates to the plain per-block pricing.
uint64_t CommandNanos(uint64_t nblocks, uint32_t block_size,
                      double transfer_mb_per_s, double streaming_mb_per_s) {
  if (streaming_mb_per_s <= transfer_mb_per_s) {
    return TransferNanos(nblocks, block_size, transfer_mb_per_s);
  }
  uint64_t per_command =
      TransferNanos(1, block_size, transfer_mb_per_s) -
      TransferNanos(1, block_size, streaming_mb_per_s);
  return per_command + TransferNanos(nblocks, block_size, streaming_mb_per_s);
}
}  // namespace

void DeviceModel::Command(Histogram* hist, const std::string& span_name,
                          Counter* blocks, uint64_t block, uint64_t nblocks) {
  TraceSpan span(registry_, hist, span_name);
  // Declared after `span`, so the lock is released before the span completes
  // and the recorder sink never runs under the device mutex.
  std::lock_guard<std::mutex> lock(mu_);
  StatAdd(blocks, nblocks);
  uint64_t seeks = Charge(block, nblocks);
  if (seeks > 0) StatAdd(c_seeks_, seeks);
  span.AddDetail(seeks);
}

uint64_t MagneticDiskModel::Charge(uint64_t block, uint64_t nblocks) {
  uint64_t ns = 0;
  uint64_t seeks = 0;
  if (block != next_sequential_block_) {
    seeks = 1;
    uint64_t distance = block > next_sequential_block_
                            ? block - next_sequential_block_
                            : next_sequential_block_ - block;
    double seek_ms = (next_sequential_block_ != ~0ull &&
                      distance <= params_.near_seek_blocks)
                         ? params_.track_to_track_ms
                         : params_.avg_seek_ms;
    ns += static_cast<uint64_t>(
        (seek_ms + params_.rotational_latency_ms) * kMsToNs);
  }
  ns += CommandNanos(nblocks, params_.block_size, params_.transfer_mb_per_s,
                     params_.streaming_mb_per_s);
  next_sequential_block_ = block + nblocks;
  Spend(ns);
  return seeks;
}

uint64_t WormJukeboxModel::Charge(uint64_t block, uint64_t nblocks) {
  uint64_t ns = 0;
  uint64_t seeks = 0;
  uint64_t platter = block / params_.platter_blocks;
  if (platter != current_platter_) {
    if (current_platter_ != ~0ull) {
      ns += static_cast<uint64_t>(params_.platter_switch_ms * kMsToNs);
    }
    current_platter_ = platter;
    next_sequential_block_ = ~0ull;  // a platter exchange loses position
  }
  if (block != next_sequential_block_) {
    seeks = 1;
    bool near = next_sequential_block_ != ~0ull &&
                block > next_sequential_block_ &&
                block - next_sequential_block_ <= params_.near_seek_blocks;
    ns += static_cast<uint64_t>(
        (near ? params_.near_seek_ms : params_.seek_ms) * kMsToNs);
  }
  ns += CommandNanos(nblocks, params_.block_size, params_.transfer_mb_per_s,
                     params_.streaming_mb_per_s);
  next_sequential_block_ = block + nblocks;
  Spend(ns);
  return seeks;
}

uint64_t MemoryDeviceModel::Charge(uint64_t /*block*/, uint64_t nblocks) {
  Spend(static_cast<uint64_t>(params_.per_op_us * 1e3) +
        TransferNanos(nblocks, params_.block_size, params_.transfer_mb_per_s));
  return 0;
}

}  // namespace pglo
