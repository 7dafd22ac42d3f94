/**
 * @file
 * Allocation-free containers behind the KV block pool, each sized once
 * at construction: FlatIndex (the cache table, each tier's index and
 * the sequence index), IndexedMinHeap (the FIFO eviction order) and
 * LruSlab (one spill tier). The serving engine also keeps its deadlines
 * in an IndexedMinHeap, whose id range grows with its request slab.
 * Their slot layout is never observable: only invariant checks iterate
 * them in storage order.
 */

#ifndef AGENTSIM_KV_FLAT_INDEX_HH
#define AGENTSIM_KV_FLAT_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/logging.hh"

namespace agentsim::kv
{

/**
 * Fixed-capacity map from a well-mixed 64-bit hash (chain hashes are
 * finalized by hashMix) to a non-negative int32. The home slot is the
 * key's low bits; linear probing with backward-shift deletion leaves
 * no tombstones. At least twice as many slots as entries, never
 * rehashed.
 */
class FlatIndex
{
  public:
    static constexpr std::int32_t kAbsent = -1;

    explicit FlatIndex(std::size_t max_entries = 0)
        : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_entries, 2))),
          mask_(slots_.size() - 1), maxEntries_(max_entries)
    {
    }

    std::size_t size() const { return size_; }
    /** Entries the table was sized for. */
    std::size_t capacity() const { return maxEntries_; }
    std::size_t homeSlot(std::uint64_t key) const { return key & mask_; }
    bool contains(std::uint64_t key) const { return find(key) != kAbsent; }

    /** The value stored under @p key, or kAbsent. */
    std::int32_t find(std::uint64_t key) const
    {
        return slots_[probe(key)].value;
    }

    /** Insert unless present (first writer wins). @return inserted. */
    bool insert(std::uint64_t key, std::int32_t value)
    {
        Slot &s = slots_[probe(key)];
        if (s.value != kAbsent)
            return false;
        AGENTSIM_ASSERT(value >= 0 && size_ < maxEntries_,
                        "FlatIndex insert of %d at %zu entries", value,
                        size_);
        s = {key, value};
        ++size_;
        return true;
    }

    /** Remove @p key. @return removed. */
    bool erase(std::uint64_t key) { return take(key) != kAbsent; }

    /**
     * Remove @p key, shifting its probe run back. @return the value it
     * held, or kAbsent.
     */
    std::int32_t take(std::uint64_t key)
    {
        std::size_t hole = probe(key);
        const std::int32_t value = slots_[hole].value;
        if (value == kAbsent)
            return kAbsent;
        // Pull each later run member back into the hole unless that
        // would move it before its home slot.
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].value != kAbsent; j = (j + 1) & mask_) {
            if (((j - homeSlot(slots_[j].key)) & mask_) >=
                ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].value = kAbsent;
        --size_;
        return value;
    }

    void clear()
    {
        for (Slot &s : slots_)
            s.value = kAbsent;
        size_ = 0;
    }

    /** Visit every (key, value) in slot order. */
    template <typename F>
    void forEach(F &&f) const
    {
        for (const Slot &s : slots_) {
            if (s.value != kAbsent)
                f(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        std::int32_t value = kAbsent;
    };

    std::vector<Slot> slots_;
    std::size_t mask_;
    std::size_t maxEntries_;
    std::size_t size_ = 0;

    /** The slot holding @p key, or the empty slot ending its run. */
    std::size_t probe(std::uint64_t key) const
    {
        std::size_t i = homeSlot(key);
        while (slots_[i].value != kAbsent && slots_[i].key != key)
            i = (i + 1) & mask_;
        return i;
    }
};

/**
 * Binary min-heap over ids in [0, n) keyed by unique 64-bit keys, with
 * each id's position tracked so erase() takes any member. Unique keys
 * make the top, and so every pop order, independent of the layout.
 */
class IndexedMinHeap
{
  public:
    explicit IndexedMinHeap(std::size_t n = 0) : pos_(n, kNone)
    {
        heap_.reserve(n);
    }

    std::size_t size() const { return heap_.size(); }
    bool contains(std::int32_t id) const { return pos(id) != kNone; }

    /** Admit ids below @p n as well (never shrinks). */
    void reserveIds(std::size_t n)
    {
        if (n > pos_.size())
            pos_.resize(n, kNone);
    }

    /** The id with the smallest key. */
    std::int32_t top() const
    {
        AGENTSIM_ASSERT(!heap_.empty(), "top of empty heap");
        return heap_.front().id;
    }

    void push(std::int32_t id, std::uint64_t key)
    {
        AGENTSIM_ASSERT(!contains(id), "heap already holds id %d", id);
        heap_.push_back({key, id});
        siftUp(heap_.size() - 1);
    }

    /** The key @p id is held under; @p id must be held. */
    std::uint64_t key(std::int32_t id) const
    {
        return heap_[checkedPos(id)].key;
    }

    void erase(std::int32_t id)
    {
        const std::size_t i = checkedPos(id);
        pos(id) = kNone;
        const Entry last = heap_.back();
        heap_.pop_back();
        if (i == heap_.size())
            return;
        heap_[i] = last;
        siftUp(i);
        siftDown(static_cast<std::size_t>(pos(last.id)));
    }

    std::int32_t pop()
    {
        const std::int32_t id = top();
        erase(id);
        return id;
    }

    void clear()
    {
        for (const Entry &e : heap_)
            pos(e.id) = kNone;
        heap_.clear();
    }

    /** Panic unless heap order and every back-pointer hold. */
    void checkInvariants() const
    {
        const auto placed = std::count_if(
            pos_.begin(), pos_.end(), [](auto p) { return p != kNone; });
        AGENTSIM_ASSERT(static_cast<std::size_t>(placed) == heap_.size(),
                        "heap positions for %zu ids, %zu entries",
                        static_cast<std::size_t>(placed), heap_.size());
        for (std::size_t i = 0; i < heap_.size(); ++i) {
            AGENTSIM_ASSERT(pos(heap_[i].id) == static_cast<std::int32_t>(i),
                            "heap back-pointer broken at %zu", i);
            AGENTSIM_ASSERT(i == 0 || heap_[(i - 1) / 2].key < heap_[i].key,
                            "heap order broken at %zu", i);
        }
    }

    /** Visit every (id, key) in heap-array order. */
    template <typename F>
    void forEach(F &&f) const
    {
        for (const Entry &e : heap_)
            f(e.id, e.key);
    }

  private:
    static constexpr std::int32_t kNone = -1;

    struct Entry
    {
        std::uint64_t key;
        std::int32_t id;
    };

    std::vector<Entry> heap_;
    /** id -> index into heap_, or kNone. */
    std::vector<std::int32_t> pos_;

    std::int32_t &pos(std::int32_t id)
    {
        return pos_[static_cast<std::size_t>(id)];
    }
    std::int32_t pos(std::int32_t id) const
    {
        return pos_[static_cast<std::size_t>(id)];
    }

    /**
     * @p id's index into heap_. Panics unless the back-pointer names an
     * entry of @p id that sits below its parent's key.
     */
    std::size_t checkedPos(std::int32_t id) const
    {
        const auto i = static_cast<std::size_t>(pos(id));
        AGENTSIM_ASSERT(i < heap_.size() && heap_[i].id == id &&
                            (i == 0 || heap_[(i - 1) / 2].key < heap_[i].key),
                        "heap entry of id %d absent or corrupt", id);
        return i;
    }

    /** Move heap_[i] toward the root, then record its position. */
    void siftUp(std::size_t i)
    {
        const Entry e = heap_[i];
        for (; i > 0 && e.key < heap_[(i - 1) / 2].key; i = (i - 1) / 2) {
            heap_[i] = heap_[(i - 1) / 2];
            pos(heap_[i].id) = static_cast<std::int32_t>(i);
        }
        heap_[i] = e;
        pos(e.id) = static_cast<std::int32_t>(i);
    }

    /** Move heap_[i] toward the leaves, then record its position. */
    void siftDown(std::size_t i)
    {
        const Entry e = heap_[i];
        for (std::size_t c = 2 * i + 1; c < heap_.size();
             i = c, c = 2 * i + 1) {
            if (c + 1 < heap_.size() && heap_[c + 1].key < heap_[c].key)
                ++c;
            if (e.key < heap_[c].key)
                break;
            heap_[i] = heap_[c];
            pos(heap_[i].id) = static_cast<std::int32_t>(i);
        }
        heap_[i] = e;
        pos(e.id) = static_cast<std::int32_t>(i);
    }
};

/**
 * Fixed-capacity set of hashes in recency order: a FlatIndex (hash ->
 * slot) over a slab of nodes on an intrusive doubly-linked list,
 * oldest first. Each entry keeps the key it was last inserted or
 * touched with; callers draw keys from one increasing counter, so list
 * order is key order.
 */
class LruSlab
{
    /** Test-only: tests/kv_test.cc corrupts a slab through it. */
    friend struct KvTestAccess;

  public:
    explicit LruSlab(std::size_t capacity = 0)
        : index_(capacity), nodes_(capacity)
    {
        constexpr auto kMax = std::numeric_limits<std::int32_t>::max();
        AGENTSIM_ASSERT(capacity < static_cast<std::size_t>(kMax),
                        "LruSlab capacity %zu", capacity);
        clear();
    }

    std::size_t size() const { return index_.size(); }
    bool contains(std::uint64_t hash) const { return index_.contains(hash); }

    /** Add an absent @p hash as the newest entry; needs a free slot. */
    void insert(std::uint64_t hash, std::uint64_t key)
    {
        const std::int32_t s = free_;
        AGENTSIM_ASSERT(s != kNil, "LruSlab insert when full");
        const bool fresh = index_.insert(hash, s);
        AGENTSIM_ASSERT(fresh, "LruSlab insert of a present hash");
        free_ = node(s).next;
        node(s) = {hash, key, kNil, kNil};
        linkTail(s);
    }

    /** Make @p hash the newest entry under @p key. @return present. */
    bool touch(std::uint64_t hash, std::uint64_t key)
    {
        const std::int32_t s = index_.find(hash);
        if (s == FlatIndex::kAbsent)
            return false;
        unlink(s, hash);
        node(s).key = key;
        linkTail(s);
        return true;
    }

    /** Remove @p hash. @return present. */
    bool erase(std::uint64_t hash)
    {
        const std::int32_t s = index_.take(hash);
        if (s == FlatIndex::kAbsent)
            return false;
        unlink(s, hash);
        node(s).next = free_;
        free_ = s;
        return true;
    }

    /** Remove and return the oldest entry's hash. */
    std::uint64_t popOldest()
    {
        AGENTSIM_ASSERT(head_ != kNil, "popOldest of empty LruSlab");
        const std::uint64_t hash = node(head_).hash;
        const bool present = erase(hash);
        AGENTSIM_ASSERT(present, "LruSlab head %d is not indexed", head_);
        return hash;
    }

    void clear()
    {
        index_.clear();
        head_ = tail_ = free_ = kNil;
        for (auto s = static_cast<std::int32_t>(nodes_.size()); s-- > 0;) {
            node(s).next = free_;
            free_ = s;
        }
    }

    /**
     * Panic unless the list runs head to tail through exactly size()
     * nodes, each indexed under its hash at its own slot, with prev
     * links mirroring next links and keys strictly increasing.
     */
    void checkInvariants() const
    {
        std::size_t count = 0;
        std::int32_t prev = kNil;
        for (std::int32_t s = head_; s != kNil; prev = s, s = node(s).next) {
            const Node &n = node(s);
            ++count;
            AGENTSIM_ASSERT(count <= size() && n.prev == prev &&
                                index_.find(n.hash) == s &&
                                (prev == kNil || node(prev).key < n.key),
                            "LruSlab node %d corrupt", s);
        }
        AGENTSIM_ASSERT(prev == tail_ && count == size(),
                        "LruSlab list holds %zu of %zu entries", count,
                        size());
    }

  private:
    static constexpr std::int32_t kNil = -1;

    struct Node
    {
        std::uint64_t hash = 0;
        std::uint64_t key = 0;
        std::int32_t prev = kNil;
        /** Next newer entry, or the next free slot while unused. */
        std::int32_t next = kNil;
    };

    FlatIndex index_;
    std::vector<Node> nodes_;
    std::int32_t head_ = kNil;
    std::int32_t tail_ = kNil;
    std::int32_t free_ = kNil;

    Node &node(std::int32_t s) { return nodes_[static_cast<std::size_t>(s)]; }
    const Node &node(std::int32_t s) const
    {
        return nodes_[static_cast<std::size_t>(s)];
    }

    /**
     * Take node @p s, indexed under @p hash, off the list. Panics unless
     * the node holds that hash and its neighbours point back at it in
     * key order.
     */
    void unlink(std::int32_t s, std::uint64_t hash)
    {
        const Node &n = node(s);
        AGENTSIM_ASSERT(
            n.hash == hash &&
                (n.prev == kNil ? head_ == s
                                : node(n.prev).next == s &&
                                      node(n.prev).key < n.key) &&
                (n.next == kNil ? tail_ == s
                                : node(n.next).prev == s &&
                                      n.key < node(n.next).key),
            "LruSlab node %d corrupt", s);
        (n.prev == kNil ? head_ : node(n.prev).next) = n.next;
        (n.next == kNil ? tail_ : node(n.next).prev) = n.prev;
    }

    /** Append node @p s, which holds the newest key, at the tail. */
    void linkTail(std::int32_t s)
    {
        AGENTSIM_ASSERT(tail_ == kNil ? head_ == kNil
                                      : node(tail_).next == kNil &&
                                            node(tail_).key < node(s).key,
                        "LruSlab link of node %d out of key order", s);
        node(s).prev = tail_;
        node(s).next = kNil;
        (tail_ == kNil ? head_ : node(tail_).next) = s;
        tail_ = s;
    }
};

} // namespace agentsim::kv

#endif // AGENTSIM_KV_FLAT_INDEX_HH
