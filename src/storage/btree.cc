#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace relopt {

namespace {

constexpr size_t kNodeHeaderSize = 8;  // is_leaf u8 | pad u8 | num u16 | next/leftmost u32

/// Entries are ordered by (key, rid) so duplicates are distinct and never
/// straddle ambiguously across splits.
int CompareEntry(const std::string& ak, Rid ar, const std::string& bk, Rid br) {
  int c = ak.compare(bk);
  if (c != 0) return c < 0 ? -1 : 1;
  if (ar.page_no != br.page_no) return ar.page_no < br.page_no ? -1 : 1;
  if (ar.slot != br.slot) return ar.slot < br.slot ? -1 : 1;
  return 0;
}

const Rid kMinRid{0, 0};
const Rid kMaxRid{kInvalidPageNo, 0xFFFF};

void PutU16(char** p, uint16_t v) {
  std::memcpy(*p, &v, 2);
  *p += 2;
}
void PutU32(char** p, uint32_t v) {
  std::memcpy(*p, &v, 4);
  *p += 4;
}

uint16_t GetU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

size_t BTree::Node::SerializedSize() const {
  size_t size = kNodeHeaderSize;
  for (const Entry& e : entries) {
    size += 2 + e.key.size() + 6;        // key_len + key + rid
    if (!is_leaf) size += 4;             // child pointer
  }
  return size;
}

void BTree::PinnedNode::Store() {
  RELOPT_DCHECK(node.SerializedSize() <= kPageSize);
  char* p = pin.frame()->data();
  *p++ = node.is_leaf ? 1 : 0;
  *p++ = 0;
  PutU16(&p, static_cast<uint16_t>(node.entries.size()));
  PutU32(&p, node.is_leaf ? node.next : node.leftmost_child);
  for (const Node::Entry& e : node.entries) {
    PutU16(&p, static_cast<uint16_t>(e.key.size()));
    std::memcpy(p, e.key.data(), e.key.size());
    p += e.key.size();
    PutU32(&p, e.rid.page_no);
    PutU16(&p, e.rid.slot);
    if (!node.is_leaf) PutU32(&p, e.child);
  }
  pin.MarkDirty();
}

Result<BTree> BTree::Create(BufferPool* pool) {
  FileId file_id = pool->disk()->CreateFile();
  BTree tree(pool, file_id, kInvalidPageNo);
  RELOPT_ASSIGN_OR_RETURN(tree.root_, tree.AllocateNode(Node{}));
  return tree;
}

Result<BTree::PinnedNode> BTree::Pin(PageNo page_no) {
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(PageId{file_id_, page_no}));
  PinnedNode pinned{PinGuard(pool_, frame), Node{}};
  Node& node = pinned.node;
  const char* p = frame->data();
  node.is_leaf = p[0] != 0;
  uint16_t num = GetU16(p + 2);
  uint32_t link = GetU32(p + 4);
  if (node.is_leaf) {
    node.next = link;
  } else {
    node.leftmost_child = link;
  }
  size_t off = kNodeHeaderSize;
  node.entries.resize(num);
  for (uint16_t i = 0; i < num; ++i) {
    uint16_t klen = GetU16(p + off);
    off += 2;
    node.entries[i].key.assign(p + off, klen);
    off += klen;
    node.entries[i].rid.page_no = GetU32(p + off);
    off += 4;
    node.entries[i].rid.slot = GetU16(p + off);
    off += 2;
    if (!node.is_leaf) {
      node.entries[i].child = GetU32(p + off);
      off += 4;
    }
  }
  return pinned;
}

Result<BTree::Node> BTree::LoadNode(PageNo page_no) {
  RELOPT_ASSIGN_OR_RETURN(PinnedNode pinned, Pin(page_no));
  return std::move(pinned.node);
}

Result<PageNo> BTree::AllocateNode(const Node& node) {
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->NewPage(file_id_));
  PinnedNode pinned{PinGuard(pool_, frame), node};
  pinned.Store();
  return pinned.page_no();
}

Result<BTree::PinnedNode> BTree::Descend(const std::string& key, Rid rid,
                                         std::vector<std::pair<PageNo, size_t>>* path) {
  PageNo page_no = root_;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(PinnedNode pinned, Pin(page_no));
    const Node& node = pinned.node;
    if (node.is_leaf) return pinned;
    // child index = number of separators <= (key, rid)
    size_t ci = 0;
    while (ci < node.entries.size() &&
           CompareEntry(node.entries[ci].key, node.entries[ci].rid, key, rid) <= 0) {
      ++ci;
    }
    if (path) path->push_back({page_no, ci});
    page_no = ci == 0 ? node.leftmost_child : node.entries[ci - 1].child;
  }
}

Result<BTree::Node::Entry> BTree::SplitNode(Node* node) {
  size_t mid = node->entries.size() / 2;
  RELOPT_DCHECK(mid > 0 && mid < node->entries.size());
  Node right;
  right.is_leaf = node->is_leaf;
  Node::Entry sep;
  if (node->is_leaf) {
    // The right half's first entry bounds it; the leaf chain runs through it.
    right.entries.assign(node->entries.begin() + mid, node->entries.end());
    right.next = node->next;
    sep.key = right.entries.front().key;
    sep.rid = right.entries.front().rid;
  } else {
    // The middle entry moves up; its child becomes the right half's leftmost.
    sep = std::move(node->entries[mid]);
    right.leftmost_child = sep.child;
    right.entries.assign(node->entries.begin() + mid + 1, node->entries.end());
  }
  node->entries.resize(mid);
  RELOPT_ASSIGN_OR_RETURN(sep.child, AllocateNode(right));
  if (node->is_leaf) node->next = sep.child;
  return sep;
}

Status BTree::Insert(const std::string& key, Rid rid) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("index key exceeds " + std::to_string(kMaxKeySize) + " bytes");
  }
  // Descend by the composite (key, rid) so equal keys order by rid.
  std::vector<std::pair<PageNo, size_t>> path;
  Node::Entry sep;
  {
    RELOPT_ASSIGN_OR_RETURN(PinnedNode leaf, Descend(key, rid, &path));
    std::vector<Node::Entry>& entries = leaf.node.entries;
    auto it = std::upper_bound(entries.begin(), entries.end(), std::make_pair(&key, rid),
                               [](const std::pair<const std::string*, Rid>& target,
                                  const Node::Entry& e) {
                                 return CompareEntry(*target.first, target.second, e.key,
                                                     e.rid) < 0;
                               });
    entries.insert(it, Node::Entry{key, rid});
    if (leaf.node.SerializedSize() <= kPageSize) {
      leaf.Store();
      return Status::OK();
    }
    // Split the leaf and propagate separators upward.
    RELOPT_ASSIGN_OR_RETURN(sep, SplitNode(&leaf.node));
    leaf.Store();
    ++leaf_pages_;
  }
  while (!path.empty()) {
    auto [parent_page, ci] = path.back();
    path.pop_back();
    RELOPT_ASSIGN_OR_RETURN(PinnedNode parent, Pin(parent_page));
    parent.node.entries.insert(parent.node.entries.begin() + ci, std::move(sep));
    if (parent.node.SerializedSize() <= kPageSize) {
      parent.Store();
      return Status::OK();
    }
    RELOPT_ASSIGN_OR_RETURN(sep, SplitNode(&parent.node));
    parent.Store();
  }

  // Root split: grow the tree by one level.
  Node new_root;
  new_root.is_leaf = false;
  new_root.leftmost_child = root_;
  new_root.entries.push_back(std::move(sep));
  RELOPT_ASSIGN_OR_RETURN(root_, AllocateNode(new_root));
  ++height_;
  return Status::OK();
}

Status BTree::Delete(const std::string& key, Rid rid) {
  RELOPT_ASSIGN_OR_RETURN(PinnedNode leaf, Descend(key, rid, nullptr));
  std::vector<Node::Entry>& entries = leaf.node.entries;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (CompareEntry(entries[i].key, entries[i].rid, key, rid) == 0) {
      entries.erase(entries.begin() + i);
      leaf.Store();
      return Status::OK();
    }
  }
  return Status::NotFound("key not in index");
}

Result<std::vector<Rid>> BTree::SearchEqual(const std::string& key) {
  std::vector<Rid> out;
  RELOPT_ASSIGN_OR_RETURN(Iterator it, Iterator::Seek(this, key, /*lo_inclusive=*/true, key,
                                                      /*hi_inclusive=*/true));
  std::string k;
  Rid rid;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(bool has, it.Next(&k, &rid));
    if (!has) break;
    out.push_back(rid);
  }
  return out;
}

Result<size_t> BTree::NumEntries() {
  PageNo page_no = root_;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
    if (node.is_leaf) break;
    page_no = node.leftmost_child;
  }
  size_t count = 0;
  while (page_no != kInvalidPageNo) {
    RELOPT_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
    count += node.entries.size();
    page_no = node.next;
  }
  return count;
}

Status BTree::CheckNode(PageNo page_no, const std::string* lo, const std::string* hi,
                        bool is_root, int depth, int* leaf_depth, size_t* leaves) {
  RELOPT_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
  // Entries sorted by (key, rid).
  for (size_t i = 1; i < node.entries.size(); ++i) {
    if (CompareEntry(node.entries[i - 1].key, node.entries[i - 1].rid, node.entries[i].key,
                     node.entries[i].rid) > 0) {
      return Status::Internal("node " + std::to_string(page_no) + " keys out of order");
    }
  }
  for (const Node::Entry& e : node.entries) {
    if (lo && e.key < *lo) return Status::Internal("key below lower bound");
    if (hi && e.key > *hi) return Status::Internal("key above upper bound");
  }
  if (node.is_leaf) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at unequal depth");
    }
    ++*leaves;
    return Status::OK();
  }
  if (!is_root && node.entries.empty()) {
    return Status::Internal("internal node with no separators");
  }
  // Recurse with separator bounds (keys only; rid tiebreak allows equality at
  // the boundary).
  const std::string* child_lo = lo;
  for (size_t i = 0; i <= node.entries.size(); ++i) {
    PageNo child = i == 0 ? node.leftmost_child : node.entries[i - 1].child;
    const std::string* child_hi = i < node.entries.size() ? &node.entries[i].key : hi;
    RELOPT_RETURN_NOT_OK(
        CheckNode(child, child_lo, child_hi, false, depth + 1, leaf_depth, leaves));
    if (i < node.entries.size()) child_lo = &node.entries[i].key;
  }
  return Status::OK();
}

Status BTree::CheckIntegrity() {
  int leaf_depth = -1;
  size_t leaves = 0;
  RELOPT_RETURN_NOT_OK(CheckNode(root_, nullptr, nullptr, true, 0, &leaf_depth, &leaves));
  if (leaf_depth + 1 != height_) {
    return Status::Internal("height counter " + std::to_string(height_) + " but the tree has " +
                            std::to_string(leaf_depth + 1) + " levels");
  }
  if (leaves != leaf_pages_) {
    return Status::Internal("leaf counter " + std::to_string(leaf_pages_) + " but the tree has " +
                            std::to_string(leaves) + " leaves");
  }
  return Status::OK();
}

Result<BTree::Iterator> BTree::Iterator::Seek(BTree* tree, std::optional<std::string> lo,
                                              bool lo_inclusive, std::optional<std::string> hi,
                                              bool hi_inclusive) {
  Iterator it(tree, std::move(hi), hi_inclusive);
  // Seek the composite bound: inclusive -> (lo, kMinRid); exclusive ->
  // (lo, kMaxRid) so every entry with key == lo is skipped.
  std::string seek_key = lo.value_or("");
  Rid seek_rid = lo_inclusive ? kMinRid : kMaxRid;
  RELOPT_ASSIGN_OR_RETURN(PinnedNode leaf, tree->Descend(seek_key, seek_rid, nullptr));
  it.leaf_ = leaf.page_no();
  it.leaf_node_ = std::move(leaf.node);
  const std::vector<Node::Entry>& entries = it.leaf_node_.entries;
  while (it.pos_ < entries.size() &&
         CompareEntry(entries[it.pos_].key, entries[it.pos_].rid, seek_key, seek_rid) < 0) {
    ++it.pos_;
  }
  return it;
}

Result<bool> BTree::Iterator::Next(std::string* key, Rid* rid) {
  while (leaf_ != kInvalidPageNo) {
    if (pos_ < leaf_node_.entries.size()) {
      const Node::Entry& e = leaf_node_.entries[pos_];
      if (hi_.has_value()) {
        int c = e.key.compare(*hi_);
        if (c > 0 || (c == 0 && !hi_inclusive_)) {
          leaf_ = kInvalidPageNo;
          return false;
        }
      }
      *key = e.key;
      *rid = e.rid;
      ++pos_;
      return true;
    }
    leaf_ = leaf_node_.next;
    pos_ = 0;
    if (leaf_ != kInvalidPageNo) {
      RELOPT_ASSIGN_OR_RETURN(leaf_node_, tree_->LoadNode(leaf_));
    }
  }
  return false;
}

}  // namespace relopt
