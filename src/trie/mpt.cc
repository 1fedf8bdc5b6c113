#include "src/trie/mpt.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "src/support/rlp.h"

namespace pevm {
namespace {

// A key expanded to one nibble per element (high nibble first). Keys of up to
// 32 bytes (every state and storage key) expand on the stack; longer keys
// spill to the heap.
class Nibbles {
 public:
  explicit Nibbles(BytesView key) {
    uint8_t* out = inline_.data();
    if (key.size() > kInlineKeyBytes) {
      heap_.resize(2 * key.size());
      out = heap_.data();
    }
    for (size_t i = 0; i < key.size(); ++i) {
      out[2 * i] = key[i] >> 4;
      out[2 * i + 1] = key[i] & 0xf;
    }
    view_ = BytesView(out, 2 * key.size());
  }
  Nibbles(const Nibbles&) = delete;
  Nibbles& operator=(const Nibbles&) = delete;

  BytesView view() const { return view_; }

 private:
  static constexpr size_t kInlineKeyBytes = 32;
  std::array<uint8_t, 2 * kInlineKeyBytes> inline_{};
  Bytes heap_;
  BytesView view_;
};

// RLP size of the hex-prefix encoding (yellow paper appendix C) of a path of
// `nibbles` nibbles. A one-byte hex prefix is below 0x40, so it encodes as
// itself.
size_t HexPrefixLength(size_t nibbles) {
  const size_t len = nibbles / 2 + 1;
  return len == 1 ? 1 : RlpPrefixLength(len) + len;
}

// Appends the RLP of the hex-prefix encoding of `lead ++ path`. `lead` is the
// nibble the sharded root join prepends to a lone shard root; it is empty for
// every real node.
void AppendHexPrefix(Bytes& out, BytesView lead, BytesView path, bool is_leaf) {
  const size_t n = lead.size() + path.size();
  const size_t len = n / 2 + 1;
  if (len > 1) {
    RlpAppendStringPrefix(out, len);
  }
  auto nibble = [&](size_t i) { return i < lead.size() ? lead[i] : path[i - lead.size()]; };
  const uint8_t flag = is_leaf ? 2 : 0;
  size_t i = 0;
  if (n % 2 != 0) {
    out.push_back(static_cast<uint8_t>(((flag | 1) << 4) | nibble(0)));
    i = 1;
  } else {
    out.push_back(static_cast<uint8_t>(flag << 4));
  }
  for (; i < n; i += 2) {
    out.push_back(static_cast<uint8_t>((nibble(i) << 4) | nibble(i + 1)));
  }
}

size_t CommonPrefix(BytesView a, BytesView b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

}  // namespace

struct MerklePatriciaTrie::Node {
  enum class Type { kLeaf, kExtension, kBranch };

  explicit Node(Type t) : type(t) {}

  Type type;
  Bytes path;   // Nibble path for leaf/extension nodes.
  Bytes value;  // Leaf value, or the value stored at a branch.
  std::array<std::unique_ptr<Node>, 16> children;  // Branch children.
  std::unique_ptr<Node> child;                     // Extension child.

  // Incremental-root memo: the node's parent-visible reference — the RLP of
  // keccak(encoding), or the encoding itself when that is shorter than 32
  // bytes. Computed lazily (the encoding is built in a per-thread scratch
  // buffer and never stored) and invalidated, never updated in place, by the
  // mutation path, so a stale reference can never be observed.
  mutable std::array<uint8_t, 33> ref{};
  mutable uint8_t ref_len = 0;
  mutable bool ref_valid = false;

  BytesView Ref() const { return BytesView(ref.data(), ref_len); }
  bool Hashed() const { return ref_len == ref.size(); }

  // Durability memo: true once HarvestDirtyNodes emitted (or skipped, for
  // inlined nodes) this node since its last mutation. Cleared together with
  // the reference memo, so "persisted" implies the whole subtree is unchanged
  // since the last harvest.
  mutable bool persisted = false;
};

namespace {

using Node = MerklePatriciaTrie::Node;
using Type = Node::Type;

// Marks a node whose subtree (or own path/value) changed: both memos are
// stale. Fresh nodes start invalid, so only retained nodes need this.
void Dirty(Node* node) {
  node->ref_valid = false;
  node->persisted = false;
}

std::unique_ptr<Node> MakeLeaf(BytesView nibbles, BytesView value) {
  auto n = std::make_unique<Node>(Type::kLeaf);
  n->path.assign(nibbles.begin(), nibbles.end());
  n->value.assign(value.begin(), value.end());
  return n;
}

// Inserts into `node` (which may be null) and returns the new subtree root.
// Sets `*replaced` if an existing key's value was overwritten. Every retained
// node on the mutation spine is dirtied; untouched subtrees keep their memos.
std::unique_ptr<Node> Insert(std::unique_ptr<Node> node, BytesView nibbles, BytesView value,
                             bool* replaced) {
  if (node == nullptr) {
    return MakeLeaf(nibbles, value);
  }
  switch (node->type) {
    case Type::kBranch: {
      Dirty(node.get());
      if (nibbles.empty()) {
        *replaced = !node->value.empty();
        node->value.assign(value.begin(), value.end());
        return node;
      }
      uint8_t idx = nibbles[0];
      node->children[idx] =
          Insert(std::move(node->children[idx]), nibbles.subspan(1), value, replaced);
      return node;
    }
    case Type::kLeaf: {
      size_t cp = CommonPrefix(node->path, nibbles);
      if (cp == node->path.size() && cp == nibbles.size()) {
        *replaced = true;
        Dirty(node.get());
        node->value.assign(value.begin(), value.end());
        return node;
      }
      // Split into a branch (possibly under an extension for the shared prefix).
      auto branch = std::make_unique<Node>(Type::kBranch);
      BytesView old_rest = BytesView(node->path).subspan(cp);
      if (old_rest.empty()) {
        branch->value = node->value;
      } else {
        branch->children[old_rest[0]] = MakeLeaf(old_rest.subspan(1), node->value);
      }
      BytesView new_rest = nibbles.subspan(cp);
      if (new_rest.empty()) {
        branch->value.assign(value.begin(), value.end());
      } else {
        branch->children[new_rest[0]] = MakeLeaf(new_rest.subspan(1), value);
      }
      if (cp == 0) {
        return branch;
      }
      auto ext = std::make_unique<Node>(Type::kExtension);
      ext->path.assign(nibbles.begin(), nibbles.begin() + static_cast<long>(cp));
      ext->child = std::move(branch);
      return ext;
    }
    case Type::kExtension: {
      size_t cp = CommonPrefix(node->path, nibbles);
      if (cp == node->path.size()) {
        Dirty(node.get());
        node->child = Insert(std::move(node->child), nibbles.subspan(cp), value, replaced);
        return node;
      }
      // Diverges inside the extension path: split it. The moved-down child
      // subtree is unchanged, so its memo stays valid.
      auto branch = std::make_unique<Node>(Type::kBranch);
      // Remainder of the existing extension (after cp and the branch nibble).
      uint8_t old_nib = node->path[cp];
      Bytes old_tail(node->path.begin() + static_cast<long>(cp) + 1, node->path.end());
      if (old_tail.empty()) {
        branch->children[old_nib] = std::move(node->child);
      } else {
        auto sub = std::make_unique<Node>(Type::kExtension);
        sub->path = std::move(old_tail);
        sub->child = std::move(node->child);
        branch->children[old_nib] = std::move(sub);
      }
      BytesView new_rest = nibbles.subspan(cp);
      if (new_rest.empty()) {
        branch->value.assign(value.begin(), value.end());
      } else {
        branch->children[new_rest[0]] = MakeLeaf(new_rest.subspan(1), value);
      }
      if (cp == 0) {
        return branch;
      }
      auto ext = std::make_unique<Node>(Type::kExtension);
      ext->path.assign(nibbles.begin(), nibbles.begin() + static_cast<long>(cp));
      ext->child = std::move(branch);
      return ext;
    }
  }
  return node;  // Unreachable.
}

// Rebuilds the canonical form after a deletion left `node` possibly
// degenerate (an extension whose child is a leaf/extension, or a branch with
// a single remaining slot). Nodes whose path grows are dirtied; subtrees
// adopted without modification keep their memos.
std::unique_ptr<Node> Canonicalize(std::unique_ptr<Node> node) {
  if (node == nullptr) {
    return nullptr;
  }
  if (node->type == Type::kExtension) {
    Node* child = node->child.get();
    if (child == nullptr) {
      return nullptr;
    }
    if (child->type == Type::kLeaf || child->type == Type::kExtension) {
      // extension(p) + leaf/extension(q) => leaf/extension(p ++ q).
      Dirty(child);
      child->path.insert(child->path.begin(), node->path.begin(), node->path.end());
      return std::move(node->child);
    }
    return node;  // extension + branch: already canonical.
  }
  if (node->type == Type::kBranch) {
    int live = -1;
    int count = 0;
    for (int i = 0; i < 16; ++i) {
      if (node->children[static_cast<size_t>(i)] != nullptr) {
        live = i;
        ++count;
      }
    }
    if (count == 0) {
      if (node->value.empty()) {
        return nullptr;
      }
      // Only the branch value remains: a leaf with an empty path.
      auto leaf = std::make_unique<Node>(Type::kLeaf);
      leaf->value = std::move(node->value);
      return leaf;
    }
    if (count == 1 && node->value.empty()) {
      // One child left: absorb the branch nibble into it.
      std::unique_ptr<Node> child = std::move(node->children[static_cast<size_t>(live)]);
      uint8_t nib = static_cast<uint8_t>(live);
      if (child->type == Type::kBranch) {
        auto ext = std::make_unique<Node>(Type::kExtension);
        ext->path = {nib};
        ext->child = std::move(child);
        return ext;
      }
      Dirty(child.get());
      child->path.insert(child->path.begin(), nib);
      return child;  // Leaf or extension: path prefix grows by the nibble.
    }
    return node;
  }
  return node;
}

// Removes `nibbles` from the subtree; sets *removed when the key existed.
std::unique_ptr<Node> Remove(std::unique_ptr<Node> node, BytesView nibbles, bool* removed) {
  if (node == nullptr) {
    return nullptr;
  }
  switch (node->type) {
    case Type::kLeaf: {
      if (nibbles.size() == node->path.size() &&
          std::equal(nibbles.begin(), nibbles.end(), node->path.begin())) {
        *removed = true;
        return nullptr;
      }
      return node;
    }
    case Type::kExtension: {
      if (nibbles.size() < node->path.size() ||
          !std::equal(node->path.begin(), node->path.end(), nibbles.begin())) {
        return node;
      }
      node->child = Remove(std::move(node->child), nibbles.subspan(node->path.size()), removed);
      if (!*removed) {
        return node;
      }
      Dirty(node.get());
      return Canonicalize(std::move(node));
    }
    case Type::kBranch: {
      if (nibbles.empty()) {
        if (node->value.empty()) {
          return node;
        }
        node->value.clear();
        *removed = true;
        Dirty(node.get());
        return Canonicalize(std::move(node));
      }
      uint8_t idx = nibbles[0];
      node->children[idx] = Remove(std::move(node->children[idx]), nibbles.subspan(1), removed);
      if (!*removed) {
        return node;
      }
      Dirty(node.get());
      return Canonicalize(std::move(node));
    }
  }
  return node;
}

// The calling thread's encoding buffer. Every encoding is built here and
// consumed (hashed, copied into a reference, or handed to a harvest sink)
// before the next one starts, so it never allocates once warm.
Bytes& Scratch() {
  thread_local Bytes scratch;
  return scratch;
}

void EnsureRef(const Node* node);

// Writes a two-item node into `out`: the hex prefix of `lead ++ path`, then
// `item` — a raw value for a leaf, an already-RLP child reference for an
// extension.
void EncodeShortNode(BytesView lead, BytesView path, bool is_leaf, BytesView item, Bytes& out) {
  const size_t item_len = is_leaf ? RlpBytesLength(item) : item.size();
  out.clear();
  RlpAppendListPrefix(out, HexPrefixLength(lead.size() + path.size()) + item_len);
  AppendHexPrefix(out, lead, path, is_leaf);
  if (is_leaf) {
    RlpAppendBytes(out, item);
  } else {
    out.insert(out.end(), item.begin(), item.end());
  }
}

// Writes a 17-item branch into `out`: the 16 child references (the empty
// string for a missing child), then the value.
void EncodeBranch(const std::array<std::unique_ptr<Node>, 16>& children, BytesView value,
                  Bytes& out) {
  size_t payload = RlpBytesLength(value);
  for (const auto& child : children) {
    if (child != nullptr) {
      EnsureRef(child.get());
      payload += child->ref_len;
    } else {
      payload += 1;
    }
  }
  out.clear();
  RlpAppendListPrefix(out, payload);
  for (const auto& child : children) {
    if (child != nullptr) {
      out.insert(out.end(), child->ref.begin(), child->ref.begin() + child->ref_len);
    } else {
      out.push_back(0x80);  // RLP of the empty string.
    }
  }
  RlpAppendBytes(out, value);
}

// Writes `node`'s RLP encoding into `out`, with `lead` prepended to a leaf or
// extension path (see AppendHexPrefix). Child references are brought up to
// date before `out` is touched, since computing one encodes into the same
// scratch buffer.
void EncodeInto(const Node* node, BytesView lead, Bytes& out) {
  switch (node->type) {
    case Type::kLeaf:
      EncodeShortNode(lead, node->path, /*is_leaf=*/true, node->value, out);
      return;
    case Type::kExtension:
      EnsureRef(node->child.get());
      EncodeShortNode(lead, node->path, /*is_leaf=*/false, node->child->Ref(), out);
      return;
    case Type::kBranch:
      assert(lead.empty());
      EncodeBranch(node->children, node->value, out);
      return;
  }
}

// Computes the node's reference if a mutation invalidated it: encode once
// into scratch, then keep the encoding itself (< 32 bytes) or the RLP of its
// keccak hash. Clean subtrees return immediately, so a k-key diff re-hashes
// O(k · depth) nodes.
void EnsureRef(const Node* node) {
  if (node->ref_valid) {
    return;
  }
  Bytes& enc = Scratch();
  EncodeInto(node, {}, enc);
  if (enc.size() < 32) {
    std::copy(enc.begin(), enc.end(), node->ref.begin());
    node->ref_len = static_cast<uint8_t>(enc.size());
  } else {
    const Hash256 hash = Keccak256(enc);
    node->ref[0] = 0x80 + 32;  // RLP string prefix of a 32-byte hash.
    std::copy(hash.begin(), hash.end(), node->ref.begin() + 1);
    node->ref_len = static_cast<uint8_t>(node->ref.size());
  }
  node->ref_valid = true;
}

// keccak(encoding) of a node whose reference is valid: read back from a
// hashed reference; hashed here only for a node shorter than 32 bytes, whose
// reference is its encoding.
Hash256 NodeHash(const Node* node) {
  if (!node->Hashed()) {
    return Keccak256(node->Ref());
  }
  Hash256 hash;
  std::copy(node->ref.begin() + 1, node->ref.end(), hash.begin());
  return hash;
}

const Hash256& EmptyRoot() {
  static const Hash256 root = Keccak256(RlpEncodeBytes({}));  // 0x56e81f17...
  return root;
}

// Post-order walk over the not-yet-persisted region. Children first so a
// store that applies records in emission order always has a node's children
// before the node referencing them (the write-batch is atomic anyway, but the
// invariant costs nothing and mirrors how real node stores flush). The hash
// comes from the node's reference memo; the encoding is rebuilt in scratch
// only to hand it to the sink. A null sink only sets persisted flags.
size_t Harvest(const Node* node, bool is_root, const MerklePatriciaTrie::NodeSink* sink) {
  if (node == nullptr || node->persisted) {
    return 0;
  }
  size_t emitted = 0;
  switch (node->type) {
    case Type::kLeaf:
      break;
    case Type::kExtension:
      emitted += Harvest(node->child.get(), /*is_root=*/false, sink);
      break;
    case Type::kBranch:
      for (const auto& child : node->children) {
        emitted += Harvest(child.get(), /*is_root=*/false, sink);
      }
      break;
  }
  node->persisted = true;
  if (sink == nullptr) {
    return emitted;
  }
  EnsureRef(node);
  // Nodes shorter than 32 bytes are inlined into their parent's encoding and
  // never stored standalone; the root is always stored under its hash.
  if (node->Hashed()) {
    Bytes& enc = Scratch();
    EncodeInto(node, {}, enc);
    (*sink)(NodeHash(node), enc);
    ++emitted;
  } else if (is_root) {
    (*sink)(NodeHash(node), node->Ref());
    ++emitted;
  }
  return emitted;
}

// Shared lookup walk from an arbitrary subtree root. `rest` is the remaining
// nibble path (already stripped of whatever the caller consumed).
std::optional<Bytes> Lookup(const Node* node, BytesView rest) {
  while (node != nullptr) {
    switch (node->type) {
      case Type::kLeaf: {
        if (rest.size() == node->path.size() &&
            std::equal(rest.begin(), rest.end(), node->path.begin())) {
          return node->value;
        }
        return std::nullopt;
      }
      case Type::kExtension: {
        if (rest.size() < node->path.size() ||
            !std::equal(node->path.begin(), node->path.end(), rest.begin())) {
          return std::nullopt;
        }
        rest = rest.subspan(node->path.size());
        node = node->child.get();
        break;
      }
      case Type::kBranch: {
        if (rest.empty()) {
          if (node->value.empty()) {
            return std::nullopt;
          }
          return node->value;
        }
        node = node->children[rest[0]].get();
        rest = rest.subspan(1);
        break;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

size_t MerklePatriciaTrie::HarvestDirtyNodes(const NodeSink& sink) const {
  return Harvest(root_.get(), /*is_root=*/true, &sink);
}

void MerklePatriciaTrie::MarkAllPersisted() const {
  Harvest(root_.get(), /*is_root=*/true, nullptr);
}

MerklePatriciaTrie::MerklePatriciaTrie() = default;
MerklePatriciaTrie::~MerklePatriciaTrie() = default;
MerklePatriciaTrie::MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept = default;
MerklePatriciaTrie& MerklePatriciaTrie::operator=(MerklePatriciaTrie&&) noexcept = default;

void MerklePatriciaTrie::Put(BytesView key, BytesView value) {
  assert(!value.empty());
  Nibbles nibbles(key);
  bool replaced = false;
  root_ = Insert(std::move(root_), nibbles.view(), value, &replaced);
  if (!replaced) {
    ++size_;
  }
}

bool MerklePatriciaTrie::Delete(BytesView key) {
  Nibbles nibbles(key);
  bool removed = false;
  root_ = Remove(std::move(root_), nibbles.view(), &removed);
  if (removed) {
    --size_;
  }
  return removed;
}

size_t MerklePatriciaTrie::ApplyDiff(std::span<const TrieUpdate> updates) {
  size_t changed = 0;
  for (const TrieUpdate& update : updates) {
    if (update.value.empty()) {
      changed += Delete(update.key) ? 1 : 0;
    } else {
      size_t before = size_;
      Put(update.key, update.value);
      changed += size_ != before ? 1 : 0;
    }
  }
  return changed;
}

std::optional<Bytes> MerklePatriciaTrie::Get(BytesView key) const {
  Nibbles nibbles(key);
  return Lookup(root_.get(), nibbles.view());
}

Hash256 MerklePatriciaTrie::RootHash() const {
  if (root_ == nullptr) {
    return EmptyRoot();
  }
  EnsureRef(root_.get());
  return NodeHash(root_.get());
}

// --- ShardedMpt -------------------------------------------------------------
//
// Invariant: shard i holds exactly the monolithic keys whose first nibble is
// i, stored over the remaining nibbles. Three shapes the monolithic root can
// take, and how the join reproduces each bit-identically:
//   0 live shards  — the canonical empty root.
//   1 live shard i — the monolithic trie has no root branch. A leaf/extension
//                    shard root merges with the nibble: the join emits the
//                    same node with path {i} ++ shard_path. A branch shard
//                    root is a real monolithic node (the child of an
//                    extension with path {i}); the join emits that extension.
//   >= 2 live      — the monolithic root is a branch with no value (keys are
//                    non-empty) whose child i is exactly shard i's root.

ShardedMpt::ShardedMpt() = default;
ShardedMpt::~ShardedMpt() = default;
ShardedMpt::ShardedMpt(ShardedMpt&&) noexcept = default;
ShardedMpt& ShardedMpt::operator=(ShardedMpt&&) noexcept = default;

int ShardedMpt::ShardOf(BytesView key) {
  assert(!key.empty());
  return key[0] >> 4;
}

void ShardedMpt::Put(BytesView key, BytesView value) {
  assert(!value.empty());
  const int shard = ShardOf(key);
  Nibbles nibbles(key);
  bool replaced = false;
  roots_[shard] = Insert(std::move(roots_[shard]), nibbles.view().subspan(1), value, &replaced);
  if (!replaced) {
    ++sizes_[shard];
  }
  mutated_[shard] = true;
  root_stale_[shard] = true;
}

std::optional<Bytes> ShardedMpt::Get(BytesView key) const {
  const int shard = ShardOf(key);
  Nibbles nibbles(key);
  return Lookup(roots_[shard].get(), nibbles.view().subspan(1));
}

bool ShardedMpt::Delete(BytesView key) {
  const int shard = ShardOf(key);
  Nibbles nibbles(key);
  bool removed = false;
  roots_[shard] = Remove(std::move(roots_[shard]), nibbles.view().subspan(1), &removed);
  if (removed) {
    --sizes_[shard];
    mutated_[shard] = true;
    root_stale_[shard] = true;
  }
  return removed;
}

size_t ShardedMpt::ApplyDiff(std::span<const TrieUpdate> updates) {
  size_t changed = 0;
  for (const TrieUpdate& update : updates) {
    if (update.value.empty()) {
      changed += Delete(update.key) ? 1 : 0;
    } else {
      const int shard = ShardOf(update.key);
      size_t before = sizes_[shard];
      Put(update.key, update.value);
      changed += sizes_[shard] != before ? 1 : 0;
    }
  }
  return changed;
}

size_t ShardedMpt::ApplyShardDiff(int shard, std::span<const TrieUpdate> updates) {
  size_t changed = 0;
  for (const TrieUpdate& update : updates) {
    assert(ShardOf(update.key) == shard);
    if (update.value.empty()) {
      changed += Delete(update.key) ? 1 : 0;
    } else {
      size_t before = sizes_[shard];
      Put(update.key, update.value);
      changed += sizes_[shard] != before ? 1 : 0;
    }
  }
  return changed;
}

void ShardedMpt::PrehashShard(int shard) const {
  if (roots_[shard] != nullptr) {
    EnsureRef(roots_[shard].get());
  }
}

size_t ShardedMpt::size() const {
  size_t total = 0;
  for (size_t s : sizes_) {
    total += s;
  }
  return total;
}

int ShardedMpt::LiveCount(int* lone) const {
  int live = 0;
  for (int i = 0; i < kShards; ++i) {
    if (roots_[i] != nullptr) {
      ++live;
      *lone = i;
    }
  }
  return live;
}

// The monolithic root's RLP encoding, reassembled from shard references.
void ShardedMpt::EncodeJoin(Bytes& out) const {
  int lone = -1;
  const int live = LiveCount(&lone);
  assert(live > 0);
  if (live > 1) {
    EncodeBranch(roots_, {}, out);  // No value: every key has >= 2 nibbles.
    return;
  }
  const Node* shard_root = roots_[lone].get();
  const uint8_t nibble = static_cast<uint8_t>(lone);
  const BytesView lead(&nibble, 1);
  if (shard_root->type == Type::kBranch) {
    // extension({lone}) -> shard branch.
    EnsureRef(shard_root);
    EncodeShortNode(lead, {}, /*is_leaf=*/false, shard_root->Ref(), out);
  } else {
    // The shard root itself with the nibble prepended to its path.
    EncodeInto(shard_root, lead, out);
  }
}

Hash256 ShardedMpt::RootHash() const {
  bool stale = !root_known_;
  for (bool& shard_stale : root_stale_) {
    stale = stale || shard_stale;
    shard_stale = false;
  }
  if (stale) {
    int lone = -1;
    if (LiveCount(&lone) == 0) {
      root_ = EmptyRoot();
    } else {
      Bytes& enc = Scratch();
      EncodeJoin(enc);
      root_ = Keccak256(enc);
    }
    root_known_ = true;
  }
  return root_;
}

void ShardedMpt::PrepareHarvest() const {
  int lone = -1;
  harvest_live_ = LiveCount(&lone);
  if (harvest_live_ >= 2 && merged_shard_ >= 0 && roots_[merged_shard_] != nullptr) {
    // The last harvest published this shard's root only merged into the
    // single-shard join; now that it is a branch child it needs a standalone
    // record (the monolithic restructure would have dirtied it). Its children
    // are already archived, so only the one node re-emits.
    roots_[merged_shard_]->persisted = false;
  }
}

size_t ShardedMpt::HarvestShardImpl(int shard, const NodeSink* sink) const {
  const Node* shard_root = roots_[shard].get();
  if (shard_root == nullptr) {
    return 0;
  }
  if (harvest_live_ == 1 && shard_root->type != Type::kBranch) {
    // Merged case: the shard root is not a monolithic node (FinishHarvest
    // emits the merged join instead), but its subtree is. Harvest below it
    // and mark the node clean so unchanged spines skip next time.
    size_t emitted = 0;
    if (shard_root->type == Type::kExtension) {
      emitted = Harvest(shard_root->child.get(), /*is_root=*/false, sink);
    }
    shard_root->persisted = true;
    return emitted;
  }
  return Harvest(shard_root, /*is_root=*/false, sink);
}

size_t ShardedMpt::FinishHarvestImpl(const NodeSink* sink) const {
  bool dirty = false;
  for (int i = 0; i < kShards; ++i) {
    dirty = dirty || mutated_[i];
    mutated_[i] = false;
  }
  int lone = -1;
  const int live = LiveCount(&lone);
  merged_shard_ = (live == 1 && roots_[lone]->type != Type::kBranch) ? lone : -1;
  if (!dirty || live == 0) {
    return 0;  // Nothing mutated (or empty trie: the monolithic root is null).
  }
  if (sink != nullptr) {
    const Hash256 root = RootHash();
    Bytes& enc = Scratch();
    EncodeJoin(enc);
    (*sink)(root, enc);
  }
  return 1;  // The root is always emitted, matching the monolithic harvest.
}

size_t ShardedMpt::HarvestDirtyNodes(const NodeSink& sink) const {
  PrepareHarvest();
  size_t emitted = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    emitted += HarvestShardImpl(shard, &sink);
  }
  return emitted + FinishHarvestImpl(&sink);
}

void ShardedMpt::MarkAllPersisted() const {
  PrepareHarvest();
  for (int shard = 0; shard < kShards; ++shard) {
    HarvestShardImpl(shard, nullptr);
  }
  FinishHarvestImpl(nullptr);
}

size_t ShardedMpt::HarvestShard(int shard, const NodeSink& sink) const {
  return HarvestShardImpl(shard, &sink);
}

size_t ShardedMpt::FinishHarvest(const NodeSink& sink) const {
  return FinishHarvestImpl(&sink);
}

}  // namespace pevm
