//===- runtime/HeapVerifier.h - Independent heap checking ------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent checker for the managed heap, used heavily by the test
/// suite. It re-derives reachability from the roots (ignoring the
/// remembered set and any boundary) and validates:
///
///  * structural invariants — birth-ordered allocation list, consistent
///    byte accounting, live canaries, in-range slot pointers;
///  * safety — every reachable object is alive and resident (a reclaimed
///    reachable object is the collector's cardinal sin);
///  * write-barrier completeness — every forward-in-time pointer in the
///    heap has a remembered-set entry, so no future boundary choice can
///    miss a crossing pointer.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_HEAPVERIFIER_H
#define DTB_RUNTIME_HEAPVERIFIER_H

#include <string>
#include <unordered_set>
#include <vector>

namespace dtb {
namespace runtime {

class Heap;
class Object;

/// Outcome of a verification pass.
struct VerifyResult {
  bool Ok = true;
  std::vector<std::string> Problems;

  void fail(std::string Problem) {
    Ok = false;
    Problems.push_back(std::move(Problem));
  }
};

/// Runs all checks on \p H. Cost is O(objects + pointers); intended for
/// tests, not production pauses.
VerifyResult verifyHeap(const Heap &H);

/// The objects reachable from \p H's roots, by an independent traversal
/// that does not share the collectors' root enumeration.
std::unordered_set<const Object *> reachableObjects(const Heap &H);

/// Computes the exact live (reachable) bytes of \p H by the same
/// traversal — what a FULL collection would keep.
uint64_t reachableBytes(const Heap &H);

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_HEAPVERIFIER_H
