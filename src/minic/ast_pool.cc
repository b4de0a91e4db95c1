// Thread-cached slab pool backing Expr/Stmt allocation.
//
// The campaign's per-mutant tail parse allocates and frees thousands of AST
// nodes; under a parallel campaign that churn serialises on the global
// allocator. Nodes instead come from per-thread free lists carved out of
// slabs owned by a process-lifetime registry:
//   - allocate/free on the hot path touch only the thread-local list;
//   - slabs are never returned to the heap while the process runs, so a
//     node may be allocated on one thread (a campaign worker parsing a
//     mutant) and freed on another (the main thread destroying a Program)
//     without any lifetime coupling to either thread;
//   - a dying thread donates its free list back to the registry in
//     slab-sized chunks, and a thread that runs dry adopts one chunk before
//     carving a new slab, so repeated campaigns (each spawns fresh workers)
//     share the donated memory among all their workers instead of handing
//     it all to whichever refills first while the rest carve anew.
// The registry is reachable from a leaked function-local static, which
// keeps LeakSanitizer quiet (still-reachable memory is not a leak) and
// makes it safe for thread-local cache destructors to run at any point of
// shutdown.
//
// Under DEVIL_REPRO_SANITIZE the pool is bypassed entirely: recycling slots
// would hide use-after-free and leak diagnostics on AST nodes from
// ASan/LSan, which is exactly what the sanitize CI job exists to catch.
#include "minic/ast.h"

#include <cstddef>
#include <mutex>
#include <new>
#include <vector>

namespace minic {

namespace {

struct FreeNode {
  FreeNode* next;
};

/// Owns every slab ever carved (never freed) plus the free lists donated by
/// exited threads. All methods are cold paths guarded by one mutex.
class SlabRegistry {
 public:
  /// Carves one slab into a ready-made free list of `count` slots.
  FreeNode* carve(size_t slot_size, size_t count) {
    char* slab = static_cast<char*>(::operator new(slot_size * count));
    {
      std::lock_guard<std::mutex> lock(mu_);
      slabs_.push_back(slab);
    }
    FreeNode* head = nullptr;
    for (size_t i = count; i > 0; --i) {
      auto* n = reinterpret_cast<FreeNode*>(slab + (i - 1) * slot_size);
      n->next = head;
      head = n;
    }
    return head;
  }

  /// Parks a free list as chunks of at most `chunk` nodes.
  void donate(FreeNode* head, size_t chunk) {
    std::vector<FreeNode*> chunks;
    while (head) {
      FreeNode* last = head;
      for (size_t n = 1; n < chunk && last->next; ++n) last = last->next;
      chunks.push_back(head);
      head = last->next;
      last->next = nullptr;
    }
    std::lock_guard<std::mutex> lock(mu_);
    donated_.insert(donated_.end(), chunks.begin(), chunks.end());
  }

  /// One donated chunk, or null when none is parked.
  FreeNode* adopt() {
    std::lock_guard<std::mutex> lock(mu_);
    if (donated_.empty()) return nullptr;
    FreeNode* head = donated_.back();
    donated_.pop_back();
    return head;
  }

  size_t slabs() {
    std::lock_guard<std::mutex> lock(mu_);
    return slabs_.size();
  }

 private:
  std::mutex mu_;
  std::vector<char*> slabs_;
  std::vector<FreeNode*> donated_;
};

template <size_t kSlotSize>
class NodePool {
 public:
  static void* allocate() {
    Cache& c = cache();
    if (!c.head) refill(c);
    FreeNode* n = c.head;
    c.head = n->next;
    return n;
  }

  static void deallocate(void* p) {
    auto* n = static_cast<FreeNode*>(p);
    Cache& c = cache();
    n->next = c.head;
    c.head = n;
  }

  static size_t slabs() { return registry().slabs(); }

 private:
  struct Cache {
    FreeNode* head = nullptr;
    ~Cache() { registry().donate(head, kSlabNodes); }
  };

  static Cache& cache() {
    thread_local Cache c;
    return c;
  }

  static SlabRegistry& registry() {
    // Intentionally leaked: must outlive every thread-local Cache.
    static SlabRegistry* r = new SlabRegistry;
    return *r;
  }

  static void refill(Cache& c) {
    c.head = registry().adopt();
    if (!c.head) c.head = registry().carve(kSlotSize, kSlabNodes);
  }

  static constexpr size_t kSlabNodes = 512;
};

#if !defined(DEVIL_REPRO_SANITIZE)
constexpr bool kUsePool = true;
#else
constexpr bool kUsePool = false;
#endif

template <typename Node>
void* pool_new(size_t size) {
  if (kUsePool && size == sizeof(Node)) {
    return NodePool<sizeof(Node)>::allocate();
  }
  return ::operator new(size);
}

template <typename Node>
void pool_delete(void* p, size_t size) noexcept {
  if (!p) return;
  if (kUsePool && size == sizeof(Node)) {
    NodePool<sizeof(Node)>::deallocate(p);
    return;
  }
  ::operator delete(p);
}

}  // namespace

size_t ast_pool_slabs() {
  if (!kUsePool) return 0;
  size_t n = NodePool<sizeof(Expr)>::slabs();
  if constexpr (sizeof(Stmt) != sizeof(Expr)) {
    n += NodePool<sizeof(Stmt)>::slabs();
  }
  return n;
}

void* Expr::operator new(std::size_t size) { return pool_new<Expr>(size); }
void Expr::operator delete(void* p, std::size_t size) noexcept {
  pool_delete<Expr>(p, size);
}

void* Stmt::operator new(std::size_t size) { return pool_new<Stmt>(size); }
void Stmt::operator delete(void* p, std::size_t size) noexcept {
  pool_delete<Stmt>(p, size);
}

}  // namespace minic
