// BTree: a page-backed B+tree index mapping encoded keys to RIDs.
//
// Keys are order-preserving byte strings (see types/key_codec.h), so all
// comparisons are memcmp. Duplicate keys are allowed. Every node visit goes
// through the buffer pool, so index I/O is accounted like any other page
// access — which is what the access-path cost experiments measure.
//
// Simplifications (documented in DESIGN.md):
//  * Delete removes entries without rebalancing (underflow allowed) and never
//    frees a node, so the tree's height and leaf count only grow.
//  * No latching: writers run under the engine's exclusive statement lock.
//  * No meta page: the root's page number lives in memory, beside the height
//    and leaf count, so an operation fetches only the nodes it visits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/result.h"

namespace relopt {

/// \brief B+tree over (encoded key, RID) pairs.
class BTree {
 public:
  /// Longest encoded key Insert accepts.
  static constexpr size_t kMaxKeySize = 1024;

  /// Creates a new file with an empty tree (one empty root leaf).
  static Result<BTree> Create(BufferPool* pool);

  FileId file_id() const { return file_id_; }

  /// Inserts (key, rid). Duplicates are allowed.
  Status Insert(const std::string& key, Rid rid);

  /// Removes one entry equal to (key, rid). NotFound if absent.
  Status Delete(const std::string& key, Rid rid);

  /// All RIDs whose key equals `key`.
  Result<std::vector<Rid>> SearchEqual(const std::string& key);

  /// Tree height in levels (1 = just a root leaf). Kept current by Insert,
  /// so the cost model reads it without fetching a page.
  int Height() const { return height_; }

  /// Total number of entries (leaf walk; O(leaves)).
  Result<size_t> NumEntries();

  /// Number of leaf pages, kept current by Insert (no page fetch). The cost
  /// model uses this.
  size_t NumLeafPages() const { return leaf_pages_; }

  /// Checks structural invariants (key order within and across nodes,
  /// child separator bounds) and that Height() and NumLeafPages() match a
  /// walk of the tree. For tests.
  Status CheckIntegrity();

 private:
  /// In-memory decoded node.
  struct Node {
    bool is_leaf = true;
    PageNo next = kInvalidPageNo;        // leaf sibling chain
    PageNo leftmost_child = kInvalidPageNo;  // internal only
    struct Entry {
      std::string key;
      Rid rid;        // leaf payload
      PageNo child = kInvalidPageNo;  // internal payload
    };
    std::vector<Entry> entries;

    size_t SerializedSize() const;
  };

  /// A node decoded from its page, which stays pinned while this lives.
  struct PinnedNode {
    PinGuard pin;
    Node node;
    PageNo page_no() const { return pin.frame()->page_id().page_no; }
    /// Encodes `node` back into the pinned page and marks it dirty.
    void Store();
  };

 public:
  /// \brief Forward iterator over a key range.
  ///
  /// Bounds are encoded keys; empty optional = unbounded on that side.
  /// `lo_inclusive`/`hi_inclusive` control closed/open ends.
  class Iterator {
   public:
    /// Positions at the first entry >= lo (or > lo if exclusive).
    static Result<Iterator> Seek(BTree* tree, std::optional<std::string> lo, bool lo_inclusive,
                                 std::optional<std::string> hi, bool hi_inclusive);

    /// Advances; returns false when the range is exhausted.
    Result<bool> Next(std::string* key, Rid* rid);

   private:
    Iterator(BTree* tree, std::optional<std::string> hi, bool hi_inclusive)
        : tree_(tree), hi_(std::move(hi)), hi_inclusive_(hi_inclusive) {}

    BTree* tree_ = nullptr;
    PageNo leaf_ = kInvalidPageNo;
    size_t pos_ = 0;
    std::optional<std::string> hi_;
    bool hi_inclusive_ = true;
    // Decoded current leaf, from Seek's descent or one fetch per later leaf.
    // Valid only while no writes interleave with the scan.
    Node leaf_node_;
  };

 private:
  friend class Iterator;

  BTree(BufferPool* pool, FileId file_id, PageNo root)
      : pool_(pool), file_id_(file_id), root_(root) {}

  /// Fetches and decodes the node at `page_no`, pinned or not.
  Result<PinnedNode> Pin(PageNo page_no);
  Result<Node> LoadNode(PageNo page_no);
  /// Writes `node` into a new page of the tree's file; returns its number.
  Result<PageNo> AllocateNode(const Node& node);

  /// The one descent: returns the leaf where (key, rid) belongs, decoded and
  /// pinned. Entries order by (key, rid), so (key, RID {0, 0}) finds the
  /// first leaf that can hold `key`. With `path`, records the internal pages
  /// passed (root first) and the child index taken in each.
  Result<PinnedNode> Descend(const std::string& key, Rid rid,
                             std::vector<std::pair<PageNo, size_t>>* path);

  /// Moves the upper half of an over-full node into a new right sibling and
  /// returns the separator entry for the parent: its key and RID bound the
  /// right half from below, and its child is the right half's page. The
  /// caller stores the trimmed `node`.
  Result<Node::Entry> SplitNode(Node* node);

  Status CheckNode(PageNo page_no, const std::string* lo, const std::string* hi, bool is_root,
                   int depth, int* leaf_depth, size_t* leaves);

  BufferPool* pool_;
  FileId file_id_;
  PageNo root_;            ///< moves up a level when the root splits
  int height_ = 1;         ///< a leaf split adds a leaf, a root split a level
  size_t leaf_pages_ = 1;
};

}  // namespace relopt
