#ifndef VWISE_EXEC_COLUMN_STORE_H_
#define VWISE_EXEC_COLUMN_STORE_H_

#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "vector/chunk.h"

namespace vwise {

// Append-only, owned columnar storage used by buffering operators (join
// build sides, aggregation keys, sort runs). String bytes are copied into an
// owned heap, so stored rows outlive the producing chunks.
class ColumnStore {
 public:
  explicit ColumnStore(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const {
    return type_ == TypeId::kStr ? strs_.size() : fixed_.size() / TypeWidth(type_);
  }

  // Appends the active rows of `vec` (positions sel[0..n) or [0..n)).
  void AppendFrom(const Vector& vec, const sel_t* sel, size_t n) {
    if (type_ == TypeId::kStr) {
      const StringVal* s = vec.Data<StringVal>();
      StringHeap* heap = Heap();
      for (size_t i = 0; i < n; i++) {
        strs_.push_back(heap->Add(s[sel ? sel[i] : i].view()));
      }
      return;
    }
    size_t w = TypeWidth(type_);
    const uint8_t* src = static_cast<const uint8_t*>(vec.raw());
    size_t old = fixed_.size();
    fixed_.resize(old + n * w);
    uint8_t* dst = fixed_.data() + old;
    for (size_t i = 0; i < n; i++) {
      std::memcpy(dst + i * w, src + (sel ? sel[i] : i) * w, w);
    }
  }

  // Appends one value from `vec` at position `pos`.
  void AppendOne(const Vector& vec, sel_t pos) {
    sel_t sel[1] = {pos};
    AppendFrom(vec, sel, 1);
  }

  template <typename T>
  const T* Data() const {
    if constexpr (std::is_same_v<T, StringVal>) {
      return strs_.data();
    } else {
      return reinterpret_cast<const T*>(fixed_.data());
    }
  }
  const StringVal* Strs() const { return strs_.data(); }

  template <typename T>
  T Get(size_t i) const {
    return Data<T>()[i];
  }

  // Gathers rows `idx[0..n)` into `out` (capacity >= n), attaching the owned
  // heap for strings.
  void Gather(const uint32_t* idx, size_t n, Vector* out) const {
    VisitType(type_, [&](auto tag) {
      using T = decltype(tag);
      const T* src = Data<T>();
      T* dst = out->Data<T>();
      for (size_t i = 0; i < n; i++) dst[i] = src[idx[i]];
    });
    if (heap_) out->AddStringHeapRef(heap_);
  }

  const std::shared_ptr<StringHeap>& heap() const { return heap_; }

 private:
  StringHeap* Heap() {
    if (!heap_) heap_ = std::make_shared<StringHeap>();
    return heap_.get();
  }

  TypeId type_;
  std::vector<uint8_t> fixed_;
  std::vector<StringVal> strs_;
  std::shared_ptr<StringHeap> heap_;
};

}  // namespace vwise

#endif  // VWISE_EXEC_COLUMN_STORE_H_
