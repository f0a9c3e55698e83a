#include "btree/btree.h"

#include <string>
#include <tuple>
#include <utility>

#include "btree/btree_page.h"
#include "common/logging.h"
#include "storage/free_space_map.h"

namespace pglo {

Status Btree::Create(BufferPool* pool, RelFileId file) {
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, pool->smgrs()->Get(file.smgr_id));
  PGLO_RETURN_IF_ERROR(smgr->CreateFile(file.relfile));
  BlockNumber meta_block, root_block;
  {
    PGLO_ASSIGN_OR_RETURN(PageHandle meta_handle,
                          pool->NewPage(file, &meta_block));
    PGLO_CHECK(meta_block == 0);
    PGLO_ASSIGN_OR_RETURN(PageHandle root_handle,
                          pool->NewPage(file, &root_block));
    BtreeNode root(root_handle.data());
    root.Init(/*level=*/0);
    root_handle.MarkDirty();
    BtreeMeta meta(meta_handle.data());
    meta.Init(root_block, /*height=*/1);
    meta_handle.MarkDirty();
  }
  return Status::OK();
}

Result<Btree::Meta> Btree::ReadMeta() {
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, 0}));
  BtreeMeta meta(handle.data());
  if (!meta.IsValid()) return Status::Corruption("bad btree meta page (smgr=" + std::to_string(file_.smgr_id) + " relfile=" + std::to_string(file_.relfile) + ")");
  return Meta{meta.root(), meta.height()};
}

Status Btree::SetRoot(BlockNumber root, uint32_t height) {
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, 0}));
  BtreeMeta meta(handle.data());
  if (!meta.IsValid()) return Status::Corruption("bad btree meta page (smgr=" + std::to_string(file_.smgr_id) + " relfile=" + std::to_string(file_.relfile) + ")");
  meta.Set(root, height);
  handle.MarkDirty();
  return Status::OK();
}

Result<PageHandle> Btree::AllocateNode(BlockNumber* block_out) {
  Result<BlockNumber> reuse = pool_->fsm()->TakeFreePage(file_);
  if (reuse.ok()) {
    Result<PageHandle> handle = pool_->GetPage({file_, reuse.value()});
    if (handle.ok() && FreeSpaceMap::IsFreePage(handle.value().data())) {
      *block_out = reuse.value();
      return handle;
    }
    // Entry without the stamp (post-crash drift): already removed by
    // TakeFreePage, so just fall through and extend the file.
  }
  return pool_->NewPage(file_, block_out);
}

Result<uint32_t> Btree::Height() {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelBtree);
  PGLO_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  return meta.height;
}

Result<PageHandle> Btree::DescendToLeaf(uint64_t key, uint64_t value,
                                        std::vector<PathEntry>* path) {
  TraceSpan span(registry_, h_descend_ns_, "btree.descend");
  PGLO_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  BlockNumber block = meta.root;
  for (;;) {
    PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, block}));
    BtreeNode node(handle.data());
    if (!node.IsValid()) return Status::Corruption("bad btree node");
    if (node.is_leaf()) return handle;
    if (node.nkeys() == 0) return Status::Corruption("empty internal node");
    // Child whose minimum bound is the last one <= (key, value). Entry 0 is
    // the (0, 0) sentinel (negative infinity), so UpperBound is always >= 1.
    uint16_t idx = node.UpperBound(key, value);
    PGLO_CHECK(idx > 0);
    --idx;
    if (path != nullptr) path->push_back({block, idx});
    block = node.ChildAt(idx);
  }
}

Status Btree::InsertIntoParent(std::vector<PathEntry>* path, uint64_t sep_key,
                               uint64_t sep_value, BlockNumber right_child) {
  // Bubble splits upward along the recorded descent path.
  while (!path->empty()) {
    PathEntry at = path->back();
    path->pop_back();
    PGLO_ASSIGN_OR_RETURN(PageHandle handle,
                          pool_->GetPage({file_, at.block}));
    BtreeNode node(handle.data());
    uint16_t pos = node.UpperBound(sep_key, sep_value);
    if (node.nkeys() < node.capacity()) {
      node.InsertInternalEntry(pos, sep_key, sep_value, right_child);
      handle.MarkDirty();
      return Status::OK();
    }
    // Split this internal node.
    BlockNumber new_block;
    PGLO_ASSIGN_OR_RETURN(PageHandle new_handle, AllocateNode(&new_block));
    BtreeNode new_node(new_handle.data());
    new_node.Init(node.level());
    uint16_t mid = node.nkeys() / 2;
    node.MoveUpperHalf(mid, &new_node);
    new_node.set_right_sibling(node.right_sibling());
    node.set_right_sibling(new_block);
    // Route the pending entry into the proper half.
    uint64_t boundary_key = new_node.KeyAt(0);
    uint64_t boundary_value = new_node.ValueAt(0);
    bool goes_right =
        (sep_key > boundary_key) ||
        (sep_key == boundary_key && sep_value >= boundary_value);
    BtreeNode& dst = goes_right ? new_node : node;
    uint16_t dpos = dst.UpperBound(sep_key, sep_value);
    dst.InsertInternalEntry(dpos, sep_key, sep_value, right_child);
    handle.MarkDirty();
    new_handle.MarkDirty();
    // Continue with the new node's minimum as the separator to push up.
    sep_key = boundary_key;
    sep_value = boundary_value;
    right_child = new_block;
  }
  // The root itself split: grow the tree.
  PGLO_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  BlockNumber old_root = meta.root;
  BlockNumber new_root_block;
  PGLO_ASSIGN_OR_RETURN(PageHandle root_handle, AllocateNode(&new_root_block));
  BtreeNode new_root(root_handle.data());
  {
    PGLO_ASSIGN_OR_RETURN(PageHandle old_handle,
                          pool_->GetPage({file_, old_root}));
    BtreeNode old_node(old_handle.data());
    new_root.Init(static_cast<uint16_t>(old_node.level() + 1));
    // Entry 0 is the negative-infinity sentinel: (0, 0) compares <= every
    // possible target, so UpperBound-based descent can always step left of
    // the first real separator.
    new_root.InsertInternalEntry(0, 0, 0, old_root);
  }
  new_root.InsertInternalEntry(1, sep_key, sep_value, right_child);
  root_handle.MarkDirty();
  return SetRoot(new_root_block, meta.height + 1);
}

Status Btree::Insert(uint64_t key, uint64_t value) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelBtree);
  std::vector<PathEntry> path;
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, DescendToLeaf(key, value, &path));
  BtreeNode leaf(handle.data());
  uint16_t pos = leaf.LowerBound(key, value);
  if (pos < leaf.nkeys() && leaf.KeyAt(pos) == key &&
      leaf.ValueAt(pos) == value) {
    return Status::AlreadyExists("duplicate (key, value) entry");
  }
  if (leaf.nkeys() < leaf.capacity()) {
    leaf.InsertLeafEntry(pos, key, value);
    handle.MarkDirty();
    return Status::OK();
  }
  // Split the leaf.
  BlockNumber new_block;
  PGLO_ASSIGN_OR_RETURN(PageHandle new_handle, AllocateNode(&new_block));
  BtreeNode new_leaf(new_handle.data());
  new_leaf.Init(/*level=*/0);
  uint16_t mid = leaf.nkeys() / 2;
  leaf.MoveUpperHalf(mid, &new_leaf);
  new_leaf.set_right_sibling(leaf.right_sibling());
  leaf.set_right_sibling(new_block);
  uint64_t boundary_key = new_leaf.KeyAt(0);
  uint64_t boundary_value = new_leaf.ValueAt(0);
  bool goes_right = (key > boundary_key) ||
                    (key == boundary_key && value >= boundary_value);
  BtreeNode& dst = goes_right ? new_leaf : leaf;
  uint16_t dpos = dst.LowerBound(key, value);
  dst.InsertLeafEntry(dpos, key, value);
  handle.MarkDirty();
  new_handle.MarkDirty();
  return InsertIntoParent(&path, boundary_key, boundary_value, new_block);
}

Status Btree::Delete(uint64_t key, uint64_t value) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelBtree);
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, DescendToLeaf(key, value, nullptr));
  // The entry may sit in a right sibling when equal keys straddle nodes.
  for (;;) {
    BtreeNode leaf(handle.data());
    uint16_t pos = leaf.LowerBound(key, value);
    if (pos < leaf.nkeys()) {
      if (leaf.KeyAt(pos) == key && leaf.ValueAt(pos) == value) {
        leaf.RemoveEntry(pos);
        handle.MarkDirty();
        return Status::OK();
      }
      return Status::NotFound("btree entry not found");
    }
    BlockNumber next = leaf.right_sibling();
    if (next == kInvalidBlock) return Status::NotFound("btree entry not found");
    PGLO_ASSIGN_OR_RETURN(handle, pool_->GetPage({file_, next}));
  }
}

Result<bool> Btree::Scan(uint64_t first, uint64_t last,
                         const Visitor& visit) {
  std::vector<std::pair<uint64_t, uint64_t>> batch;
  // The walk's position: the first entry >= (key, value) comes next.
  uint64_t key = first, value = 0;
  for (;;) {
    batch.clear();
    bool more;
    {
      RelLatchGuard latch(pool_->rel_latches(), file_,
                          WaitEvent::kLatchRelBtree);
      PGLO_ASSIGN_OR_RETURN(PageHandle handle,
                            DescendToLeaf(key, value, nullptr));
      BtreeNode leaf(handle.data());
      uint16_t pos = leaf.LowerBound(key, value);
      while (pos == leaf.nkeys() && leaf.right_sibling() != kInvalidBlock) {
        PGLO_ASSIGN_OR_RETURN(handle,
                              pool_->GetPage({file_, leaf.right_sibling()}));
        leaf = BtreeNode(handle.data());
        pos = leaf.LowerBound(key, value);
      }
      for (; pos < leaf.nkeys() && leaf.KeyAt(pos) <= last; ++pos) {
        batch.emplace_back(leaf.KeyAt(pos), leaf.ValueAt(pos));
      }
      more = pos == leaf.nkeys() && leaf.right_sibling() != kInvalidBlock;
    }
    for (const auto& [k, v] : batch) {
      PGLO_ASSIGN_OR_RETURN(bool stop, visit(k, v));
      if (stop) return true;
    }
    if (!more) return false;
    // Resume just past the last entry visited: (key, max) is followed by
    // (key + 1, 0), and nothing follows (max, max).
    std::tie(key, value) = batch.back();
    if (++value == 0 && ++key == 0) return false;
  }
}

Result<uint64_t> Btree::CountEntries() {
  uint64_t count = 0;
  auto tally = [&](uint64_t, uint64_t) -> Result<bool> {
    ++count;
    return false;
  };
  PGLO_RETURN_IF_ERROR(Scan(0, ~0ull, tally).status());
  return count;
}

Result<uint64_t> Btree::CheckStructure() {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelBtree);
  PGLO_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  // Recursive subtree check: every node's entries sorted; every child's
  // minimum entry >= the parent entry's bound (entry 0 of the root level
  // is the -infinity sentinel and is exempt); levels decrease by one.
  struct Walker {
    Btree* tree;
    Status status = Status::OK();
    BlockNumber first_leaf = kInvalidBlock;
    uint64_t leaves = 0;
    uint64_t entries = 0;

    void Check(BlockNumber block, uint32_t expected_level, uint64_t min_key,
               uint64_t min_val, bool unbounded) {
      if (!status.ok()) return;
      Result<PageHandle> handle =
          tree->pool_->GetPage({tree->file_, block});
      if (!handle.ok()) {
        status = handle.status();
        return;
      }
      BtreeNode node(handle.value().data());
      if (!node.IsValid()) {
        status = Status::Corruption("bad btree node magic");
        return;
      }
      if (node.level() != expected_level) {
        status = Status::Corruption("btree level mismatch");
        return;
      }
      uint16_t n = node.nkeys();
      for (uint16_t i = 1; i < n; ++i) {
        uint64_t pk = node.KeyAt(i - 1), pv = node.ValueAt(i - 1);
        uint64_t k = node.KeyAt(i), v = node.ValueAt(i);
        if (pk > k || (pk == k && pv >= v)) {
          status = Status::Corruption("btree entries out of order");
          return;
        }
      }
      if (!unbounded && n > 0) {
        uint64_t k = node.KeyAt(0), v = node.ValueAt(0);
        if (k < min_key || (k == min_key && v < min_val)) {
          status = Status::Corruption("btree child below parent bound");
          return;
        }
      }
      if (node.is_leaf()) {
        if (first_leaf == kInvalidBlock) first_leaf = block;
        ++leaves;
        entries += n;
        return;
      }
      if (n == 0) {
        status = Status::Corruption("empty internal node");
        return;
      }
      for (uint16_t i = 0; i < n; ++i) {
        // Entry 0 of any internal node inherits its caller's bound.
        bool child_unbounded = (i == 0) && unbounded;
        uint64_t bk = i == 0 ? min_key : node.KeyAt(i);
        uint64_t bv = i == 0 ? min_val : node.ValueAt(i);
        Check(node.ChildAt(i), expected_level - 1, bk, bv, child_unbounded);
        if (!status.ok()) return;
      }
    }
  };
  Walker walker{this};
  walker.Check(meta.root, meta.height - 1, 0, 0, /*unbounded=*/true);
  PGLO_RETURN_IF_ERROR(walker.status);

  // Leaf chain, followed link by link from the leftmost leaf: globally
  // sorted, and exactly the leaves and entries the tree reaches, so a link
  // that skips, repeats or loops back over a leaf is Corruption.
  uint64_t leaves = 0, count = 0;
  bool have_prev = false;
  uint64_t pk = 0, pv = 0;
  for (BlockNumber block = walker.first_leaf; block != kInvalidBlock;) {
    if (++leaves > walker.leaves) break;
    PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, block}));
    BtreeNode leaf(handle.data());
    if (!leaf.IsValid() || !leaf.is_leaf()) {
      return Status::Corruption("leaf chain reaches a non-leaf");
    }
    for (uint16_t i = 0; i < leaf.nkeys(); ++i) {
      uint64_t k = leaf.KeyAt(i), v = leaf.ValueAt(i);
      if (have_prev && (pk > k || (pk == k && pv >= v))) {
        return Status::Corruption("leaf chain out of order");
      }
      pk = k;
      pv = v;
      have_prev = true;
    }
    count += leaf.nkeys();
    block = leaf.right_sibling();
  }
  if (leaves != walker.leaves || count != walker.entries) {
    return Status::Corruption(
        "leaf chain holds " + std::to_string(count) + " entries in " +
        std::to_string(leaves) + " leaves, the tree " +
        std::to_string(walker.entries) + " in " +
        std::to_string(walker.leaves));
  }
  return count;
}

Status Btree::MergeSubtree(BlockNumber block, uint64_t* freed) {
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, block}));
  BtreeNode node(handle.data());
  if (!node.IsValid()) return Status::Corruption("bad btree node");
  if (node.is_leaf()) return Status::OK();
  if (node.nkeys() == 0) return Status::Corruption("empty internal node");
  // Post-order: merge grandchildren first so this pass sees the children's
  // final fill levels.
  for (uint16_t i = 0; i < node.nkeys(); ++i) {
    PGLO_RETURN_IF_ERROR(MergeSubtree(node.ChildAt(i), freed));
  }
  // Pairwise pass over this node's children: absorb the right child into
  // the left when the result leaves headroom (merging two half-full
  // siblings into one brim-full node would just split again on the next
  // insert). Empty children are always absorbed.
  bool dirtied = false;
  uint16_t i = 0;
  while (i + 1 < node.nkeys()) {
    BlockNumber left_block = node.ChildAt(i);
    BlockNumber right_block = node.ChildAt(i + 1);
    PGLO_ASSIGN_OR_RETURN(PageHandle left_handle,
                          pool_->GetPage({file_, left_block}));
    PGLO_ASSIGN_OR_RETURN(PageHandle right_handle,
                          pool_->GetPage({file_, right_block}));
    BtreeNode left(left_handle.data());
    BtreeNode right(right_handle.data());
    if (!left.IsValid() || !right.IsValid()) {
      return Status::Corruption("bad btree node");
    }
    uint16_t cap = left.capacity();
    uint32_t combined =
        static_cast<uint32_t>(left.nkeys()) + right.nkeys();
    bool either_empty = left.nkeys() == 0 || right.nkeys() == 0;
    bool underfull = left.nkeys() < cap / 2 || right.nkeys() < cap / 2;
    if (either_empty || (underfull && combined <= cap - cap / 4)) {
      left.AppendFrom(&right);
      left.set_right_sibling(right.right_sibling());
      left_handle.MarkDirty();
      // Stamp the emptied page and hand it to the free-space map; the
      // next split reuses it instead of extending the file.
      FreeSpaceMap::StampFreePage(right_handle.data());
      right_handle.MarkDirty();
      pool_->fsm()->RecordFreePage(file_, right_block);
      node.RemoveEntry(i + 1);
      dirtied = true;
      ++*freed;
      // Stay at i: the new neighbour may be absorbable too.
    } else {
      ++i;
    }
  }
  if (dirtied) handle.MarkDirty();
  return Status::OK();
}

Result<uint64_t> Btree::MergeUnderfull() {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelBtree);
  uint64_t freed = 0;
  PGLO_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  PGLO_RETURN_IF_ERROR(MergeSubtree(meta.root, &freed));
  // Collapse a root chain: an internal root left with a single child just
  // forwards every descent, so shrink the tree instead.
  for (;;) {
    PGLO_ASSIGN_OR_RETURN(PageHandle handle,
                          pool_->GetPage({file_, meta.root}));
    BtreeNode node(handle.data());
    if (!node.IsValid()) return Status::Corruption("bad btree node");
    if (node.is_leaf() || node.nkeys() != 1) break;
    BlockNumber child = node.ChildAt(0);
    FreeSpaceMap::StampFreePage(handle.data());
    handle.MarkDirty();
    handle.Release();
    pool_->fsm()->RecordFreePage(file_, meta.root);
    meta = Meta{child, meta.height - 1};
    PGLO_RETURN_IF_ERROR(SetRoot(meta.root, meta.height));
    ++freed;
  }
  return freed;
}

Result<BlockNumber> Btree::NumBlocks() { return pool_->NumBlocks(file_); }

}  // namespace pglo
