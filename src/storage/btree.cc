#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace relopt {

namespace {

constexpr uint32_t kMetaMagic = 0xB7EE0001;
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

void PutU16(std::string* out, uint16_t v) { out->append(reinterpret_cast<char*>(&v), 2); }
void PutU32(std::string* out, uint32_t v) { out->append(reinterpret_cast<char*>(&v), 4); }

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

BTree::BTree(BufferPool* pool, FileId file_id) : pool_(pool), file_id_(file_id) {}

Result<BTree> BTree::Create(BufferPool* pool) {
  FileId file_id = pool->disk()->CreateFile();
  BTree tree(pool, file_id);
  // Meta page (page 0).
  RELOPT_ASSIGN_OR_RETURN(PageFrame * meta, pool->NewPage(file_id));
  RELOPT_DCHECK(meta->page_id().page_no == 0);
  // Root: an empty leaf (page 1).
  Node root;
  root.is_leaf = true;
  RELOPT_ASSIGN_OR_RETURN(PageNo root_page, tree.AllocateNode(root));
  std::memcpy(meta->data(), &kMetaMagic, 4);
  std::memcpy(meta->data() + 4, &root_page, 4);
  RELOPT_RETURN_NOT_OK(pool->UnpinPage(meta->page_id(), true));
  return tree;
}

Result<PageNo> BTree::RootPage() {
  PageId pid{file_id_, 0};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * meta, pool_->FetchPage(pid));
  uint32_t magic = GetU32(meta->data());
  PageNo root = GetU32(meta->data() + 4);
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, false));
  if (magic != kMetaMagic) return Status::Internal("bad btree meta page");
  return root;
}

Status BTree::SetRootPage(PageNo root) {
  PageId pid{file_id_, 0};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * meta, pool_->FetchPage(pid));
  std::memcpy(meta->data() + 4, &root, 4);
  return pool_->UnpinPage(pid, true);
}

Result<BTree::Node> BTree::LoadNode(PageNo page_no) {
  PageId pid{file_id_, page_no};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(pid));
  const char* p = frame->data();
  Node node;
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
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(pid, false));
  return node;
}

Status BTree::StoreNode(PageNo page_no, const Node& node) {
  RELOPT_DCHECK(node.SerializedSize() <= kPageSize);
  std::string buf;
  buf.reserve(node.SerializedSize());
  buf.push_back(node.is_leaf ? 1 : 0);
  buf.push_back(0);
  PutU16(&buf, static_cast<uint16_t>(node.entries.size()));
  PutU32(&buf, node.is_leaf ? node.next : node.leftmost_child);
  for (const Node::Entry& e : node.entries) {
    PutU16(&buf, static_cast<uint16_t>(e.key.size()));
    buf.append(e.key);
    PutU32(&buf, e.rid.page_no);
    PutU16(&buf, e.rid.slot);
    if (!node.is_leaf) PutU32(&buf, e.child);
  }
  PageId pid{file_id_, page_no};
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->FetchPage(pid));
  std::memcpy(frame->data(), buf.data(), buf.size());
  return pool_->UnpinPage(pid, true);
}

Result<PageNo> BTree::AllocateNode(const Node& node) {
  RELOPT_ASSIGN_OR_RETURN(PageFrame * frame, pool_->NewPage(file_id_));
  PageNo page_no = frame->page_id().page_no;
  RELOPT_RETURN_NOT_OK(pool_->UnpinPage(frame->page_id(), true));
  RELOPT_RETURN_NOT_OK(StoreNode(page_no, node));
  return page_no;
}

Result<PageNo> BTree::FindLeaf(const std::string& key,
                               std::vector<std::pair<PageNo, size_t>>* path) {
  // Composite target (key, kMinRid): descends to the leftmost leaf that can
  // contain `key`.
  RELOPT_ASSIGN_OR_RETURN(PageNo page_no, RootPage());
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
    if (node.is_leaf) return page_no;
    // child index = number of separators <= (key, kMinRid)
    size_t ci = 0;
    while (ci < node.entries.size() &&
           CompareEntry(node.entries[ci].key, node.entries[ci].rid, key, kMinRid) <= 0) {
      ++ci;
    }
    if (path) path->push_back({page_no, ci});
    page_no = ci == 0 ? node.leftmost_child : node.entries[ci - 1].child;
  }
}

Result<std::pair<std::string, PageNo>> BTree::SplitNode(PageNo page_no, Node* node) {
  size_t mid = node->entries.size() / 2;
  RELOPT_DCHECK(mid > 0 && mid < node->entries.size());
  Node right;
  right.is_leaf = node->is_leaf;
  std::string sep_key;
  Rid sep_rid;
  if (node->is_leaf) {
    right.entries.assign(node->entries.begin() + mid, node->entries.end());
    node->entries.resize(mid);
    sep_key = right.entries.front().key;
    sep_rid = right.entries.front().rid;
    RELOPT_ASSIGN_OR_RETURN(PageNo right_page, AllocateNode(right));
    // Fix sibling chain after allocation (right.next must be set first).
    right.next = node->next;
    RELOPT_RETURN_NOT_OK(StoreNode(right_page, right));
    node->next = right_page;
    RELOPT_RETURN_NOT_OK(StoreNode(page_no, *node));
    // Encode the rid tiebreak into the separator by storing it in the parent
    // entry; the caller carries both.
    std::string sep;
    sep = sep_key;
    (void)sep_rid;
    return std::make_pair(sep, right_page);
  }
  // Internal: middle entry's key moves up; its child becomes right's leftmost.
  right.leftmost_child = node->entries[mid].child;
  std::string sep = node->entries[mid].key;
  right.entries.assign(node->entries.begin() + mid + 1, node->entries.end());
  node->entries.resize(mid);
  RELOPT_ASSIGN_OR_RETURN(PageNo right_page, AllocateNode(right));
  RELOPT_RETURN_NOT_OK(StoreNode(page_no, *node));
  return std::make_pair(sep, right_page);
}

Status BTree::Insert(const std::string& key, Rid rid) {
  if (key.size() > kMaxKeySize) {
    return Status::InvalidArgument("index key exceeds " + std::to_string(kMaxKeySize) + " bytes");
  }
  std::vector<std::pair<PageNo, size_t>> path;
  // Descend by the composite (key, rid) so equal keys order by rid.
  RELOPT_ASSIGN_OR_RETURN(PageNo root, RootPage());
  PageNo page_no = root;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
    if (node.is_leaf) break;
    size_t ci = 0;
    while (ci < node.entries.size() &&
           CompareEntry(node.entries[ci].key, node.entries[ci].rid, key, rid) <= 0) {
      ++ci;
    }
    path.push_back({page_no, ci});
    page_no = ci == 0 ? node.leftmost_child : node.entries[ci - 1].child;
  }

  RELOPT_ASSIGN_OR_RETURN(Node leaf, LoadNode(page_no));
  auto it = std::upper_bound(
      leaf.entries.begin(), leaf.entries.end(), std::make_pair(key, rid),
      [](const std::pair<std::string, Rid>& target, const Node::Entry& e) {
        return CompareEntry(target.first, target.second, e.key, e.rid) < 0;
      });
  Node::Entry entry;
  entry.key = key;
  entry.rid = rid;
  leaf.entries.insert(it, std::move(entry));

  if (leaf.SerializedSize() <= kPageSize) {
    return StoreNode(page_no, leaf);
  }

  // Split the leaf and propagate separators upward.
  RELOPT_ASSIGN_OR_RETURN(auto split, SplitNode(page_no, &leaf));
  ++leaf_pages_;
  std::string sep_key = split.first;
  PageNo right_page = split.second;
  // The separator rid is the first rid of the right node.
  RELOPT_ASSIGN_OR_RETURN(Node right_node, LoadNode(right_page));
  Rid sep_rid = right_node.is_leaf && !right_node.entries.empty() ? right_node.entries.front().rid
                                                                  : kMinRid;

  while (!path.empty()) {
    auto [parent_page, ci] = path.back();
    path.pop_back();
    RELOPT_ASSIGN_OR_RETURN(Node parent, LoadNode(parent_page));
    Node::Entry sep_entry;
    sep_entry.key = sep_key;
    sep_entry.rid = sep_rid;
    sep_entry.child = right_page;
    parent.entries.insert(parent.entries.begin() + ci, std::move(sep_entry));
    if (parent.SerializedSize() <= kPageSize) {
      return StoreNode(parent_page, parent);
    }
    // Internal split: remember the promoted separator's rid before SplitNode
    // discards it.
    size_t mid = parent.entries.size() / 2;
    Rid promoted_rid = parent.entries[mid].rid;
    RELOPT_ASSIGN_OR_RETURN(auto psplit, SplitNode(parent_page, &parent));
    sep_key = psplit.first;
    sep_rid = promoted_rid;
    right_page = psplit.second;
    page_no = parent_page;
  }

  // Root split: grow the tree by one level.
  Node new_root;
  new_root.is_leaf = false;
  new_root.leftmost_child = root;
  Node::Entry e;
  e.key = sep_key;
  e.rid = sep_rid;
  e.child = right_page;
  new_root.entries.push_back(std::move(e));
  RELOPT_ASSIGN_OR_RETURN(PageNo new_root_page, AllocateNode(new_root));
  ++height_;
  return SetRootPage(new_root_page);
}

Status BTree::Delete(const std::string& key, Rid rid) {
  RELOPT_ASSIGN_OR_RETURN(PageNo root, RootPage());
  PageNo page_no = root;
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(Node node, LoadNode(page_no));
    if (node.is_leaf) {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (CompareEntry(node.entries[i].key, node.entries[i].rid, key, rid) == 0) {
          node.entries.erase(node.entries.begin() + i);
          return StoreNode(page_no, node);
        }
      }
      return Status::NotFound("key not in index");
    }
    size_t ci = 0;
    while (ci < node.entries.size() &&
           CompareEntry(node.entries[ci].key, node.entries[ci].rid, key, rid) <= 0) {
      ++ci;
    }
    page_no = ci == 0 ? node.leftmost_child : node.entries[ci - 1].child;
  }
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
  RELOPT_ASSIGN_OR_RETURN(PageNo page_no, RootPage());
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
  RELOPT_ASSIGN_OR_RETURN(PageNo root, RootPage());
  int leaf_depth = -1;
  size_t leaves = 0;
  RELOPT_RETURN_NOT_OK(CheckNode(root, nullptr, nullptr, true, 0, &leaf_depth, &leaves));
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
  // Descend using the composite bound: inclusive -> (lo, kMinRid); exclusive
  // -> (lo, kMaxRid) so every entry with key == lo is skipped.
  std::string seek_key = lo.value_or("");
  Rid seek_rid = lo_inclusive ? kMinRid : kMaxRid;
  RELOPT_ASSIGN_OR_RETURN(PageNo page_no, tree->RootPage());
  while (true) {
    RELOPT_ASSIGN_OR_RETURN(Node node, tree->LoadNode(page_no));
    if (node.is_leaf) {
      size_t pos = 0;
      while (pos < node.entries.size() &&
             CompareEntry(node.entries[pos].key, node.entries[pos].rid, seek_key, seek_rid) < 0) {
        ++pos;
      }
      it.leaf_ = page_no;
      it.pos_ = pos;
      return it;
    }
    size_t ci = 0;
    while (ci < node.entries.size() &&
           CompareEntry(node.entries[ci].key, node.entries[ci].rid, seek_key, seek_rid) <= 0) {
      ++ci;
    }
    page_no = ci == 0 ? node.leftmost_child : node.entries[ci - 1].child;
  }
}

Result<bool> BTree::Iterator::Next(std::string* key, Rid* rid) {
  while (leaf_ != kInvalidPageNo) {
    if (!cached_.has_value()) {
      RELOPT_ASSIGN_OR_RETURN(Node node, tree_->LoadNode(leaf_));
      cached_ = std::move(node);
    }
    const Node& node = *cached_;
    if (pos_ < node.entries.size()) {
      const Node::Entry& e = node.entries[pos_];
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
    leaf_ = node.next;
    pos_ = 0;
    cached_.reset();
  }
  return false;
}

}  // namespace relopt
