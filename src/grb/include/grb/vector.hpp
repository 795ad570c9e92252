// grb/vector.hpp — sparse vector with two internal formats.
//
// A Vector<T> of size n holds nvals ≤ n explicit entries. Two storage
// formats are supported, mirroring the SuiteSparse v4 formats the paper
// credits for the pull-step speedups (§VI-A):
//   - sparse: parallel arrays of sorted indices and values (good for small
//     frontiers, i.e. "push");
//   - bitmap: a byte-per-slot presence array plus a dense value array (good
//     for large frontiers, i.e. "pull", where random access must be O(1)).
// Conversions are automatic based on density (see Config), and kernels may
// request a specific format.
//
// A bitmap whose every slot is present is *full* (is_full()). Full is a
// property of a bitmap, not a third format: nothing converts to it or away
// from it. Element-wise ops, apply and an accumulating pull whose operands
// are all full skip every presence test and write w's own value array in
// place (SS:GrB v4's full format, §VI-A); see docs/API.md, "Result formats".
//
// Threading contract: format conversions are logically const (mutable
// storage), so a vector follows the same "single writer OR finalized" rule
// as grb::Matrix — finalize() pins the current format, after which const
// members are genuinely read-only and the vector may be shared across
// threads. See the contract write-up in grb/matrix.hpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "grb/config.hpp"
#include "grb/ops.hpp"
#include "grb/types.hpp"

namespace grb {

template <typename T>
class Vector {
 public:
  using value_type = T;

  enum class Format : std::uint8_t { sparse, bitmap };

  Vector() : n_(0) {}

  /// An empty (no entries) vector of size n.
  explicit Vector(Index n) : n_(n) {}

  /// A vector with all n entries present, each equal to `fill` ("full").
  static Vector full(Index n, const T &fill) {
    Vector v(n);
    v.fmt_ = Format::bitmap;
    v.present_.assign(static_cast<std::size_t>(n), 1);
    v.dense_.assign(static_cast<std::size_t>(n), fill);
    v.nvals_ = n;
    return v;
  }

  [[nodiscard]] Index size() const noexcept { return n_; }
  [[nodiscard]] Index nvals() const noexcept {
    return fmt_ == Format::sparse ? static_cast<Index>(idx_.size()) : nvals_;
  }
  [[nodiscard]] bool empty() const noexcept { return nvals() == 0; }
  [[nodiscard]] Format format() const noexcept { return fmt_; }
  /// A bitmap holding an entry in every slot.
  [[nodiscard]] bool is_full() const noexcept {
    return fmt_ == Format::bitmap && nvals_ == n_;
  }

  /// Storage width of the sparse index array. Vector indices stay 64-bit —
  /// frontiers are transient and the CSR matrices carry the memory win — but
  /// the accessors mirror Matrix so stats/oracle code is container-agnostic.
  [[nodiscard]] IndexWidth index_width() const noexcept {
    return IndexWidth::u64;
  }
  /// Bytes currently held by index storage (sparse format only; bitmap and
  /// dense vectors keep no index array).
  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return idx_.size() * sizeof(Index);
  }

  /// Remove all entries (size is unchanged).
  void clear() {
    finalized_ = false;
    idx_.clear();
    val_.clear();
    present_.clear();
    dense_.clear();
    nvals_ = 0;
    fmt_ = Format::sparse;
  }

  /// Change the dimension; entries at indices >= n are dropped.
  void resize(Index n) {
    if (n == n_) return;
    finalized_ = false;
    to_sparse();
    while (!idx_.empty() && idx_.back() >= n) {
      idx_.pop_back();
      val_.pop_back();
    }
    n_ = n;
  }

  // -- element access ------------------------------------------------------

  [[nodiscard]] bool has(Index i) const {
    check_index(i);
    if (fmt_ == Format::bitmap) return present_[i] != 0;
    auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
    return it != idx_.end() && *it == i;
  }

  /// Value at i, or nullopt if no entry exists there.
  [[nodiscard]] std::optional<T> get(Index i) const {
    check_index(i);
    if (fmt_ == Format::bitmap) {
      if (!present_[i]) return std::nullopt;
      return dense_[i];
    }
    auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
    if (it == idx_.end() || *it != i) return std::nullopt;
    return val_[static_cast<std::size_t>(it - idx_.begin())];
  }

  /// w(i) = x, inserting or overwriting.
  void set_element(Index i, const T &x) {
    check_index(i);
    finalized_ = false;
    if (fmt_ == Format::bitmap) {
      if (!present_[i]) {
        present_[i] = 1;
        ++nvals_;
      }
      dense_[i] = x;
      return;
    }
    auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
    auto pos = static_cast<std::size_t>(it - idx_.begin());
    if (it != idx_.end() && *it == i) {
      val_[pos] = x;
    } else {
      idx_.insert(it, i);
      val_.insert(val_.begin() + static_cast<std::ptrdiff_t>(pos), x);
    }
  }

  /// Delete the entry at i if present.
  void remove_element(Index i) {
    check_index(i);
    finalized_ = false;
    if (fmt_ == Format::bitmap) {
      if (present_[i]) {
        present_[i] = 0;
        --nvals_;
      }
      return;
    }
    auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
    if (it != idx_.end() && *it == i) {
      auto pos = static_cast<std::size_t>(it - idx_.begin());
      idx_.erase(it);
      val_.erase(val_.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }

  // -- build / extractTuples ------------------------------------------------

  /// w ↤ {i, x}: build from tuples, combining duplicates with `dup`.
  /// Existing entries are discarded.
  template <typename Dup = Second>
  void build(std::span<const Index> indices, std::span<const T> values,
             Dup dup = {}) {
    detail::require(indices.size() == values.size(), Info::invalid_value,
                    "build: index/value array length mismatch");
    clear();
    std::vector<std::size_t> order(indices.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (indices[a] != indices[b]) return indices[a] < indices[b];
      return a < b;  // stable within an index so dup order is input order
    });
    idx_.reserve(indices.size());
    val_.reserve(indices.size());
    for (std::size_t r : order) {
      detail::require(indices[r] < n_, Info::index_out_of_bounds,
                      "build: index out of bounds");
      if (!idx_.empty() && idx_.back() == indices[r]) {
        val_.back() = dup(val_.back(), values[r]);
      } else {
        idx_.push_back(indices[r]);
        val_.push_back(values[r]);
      }
    }
    maybe_switch_format();
  }

  /// {i, x} ↤ w: extract all tuples in ascending index order.
  void extract_tuples(std::vector<Index> &indices, std::vector<T> &values) const {
    indices.clear();
    values.clear();
    indices.reserve(nvals());
    values.reserve(nvals());
    for_each([&](Index i, const T &x) {
      indices.push_back(i);
      values.push_back(x);
    });
  }

  // -- iteration -------------------------------------------------------------

  /// Visit every entry in ascending index order as f(index, value).
  template <typename F>
  void for_each(F &&f) const {
    if (fmt_ == Format::sparse) {
      for (std::size_t p = 0; p < idx_.size(); ++p) f(idx_[p], val_[p]);
    } else {
      for (Index i = 0; i < n_; ++i) {
        if (present_[i]) f(i, dense_[i]);
      }
    }
  }

  // -- mask semantics ---------------------------------------------------------

  /// Mask membership test: valued masks require a present, non-zero entry;
  /// structural masks require only presence.
  [[nodiscard]] bool mask_test(Index i, bool structural) const {
    if (fmt_ == Format::bitmap) {
      if (!present_[i]) return false;
      return structural || dense_[i] != T(0);
    }
    auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
    if (it == idx_.end() || *it != i) return false;
    return structural ||
           val_[static_cast<std::size_t>(it - idx_.begin())] != T(0);
  }

  // -- format management ------------------------------------------------------

  void to_sparse() const {
    if (fmt_ == Format::sparse) return;
    assert(!finalized_ &&
           "grb::Vector: format conversion on a finalized vector — the "
           "single-writer-or-finalized threading contract was violated");
    auto &self = const_cast<Vector &>(*this);
    self.idx_.clear();
    self.val_.clear();
    self.idx_.reserve(nvals_);
    self.val_.reserve(nvals_);
    for (Index i = 0; i < n_; ++i) {
      if (present_[i]) {
        self.idx_.push_back(i);
        self.val_.push_back(dense_[i]);
      }
    }
    self.present_.clear();
    self.present_.shrink_to_fit();
    self.dense_.clear();
    self.dense_.shrink_to_fit();
    self.nvals_ = 0;
    self.fmt_ = Format::sparse;
    stats().format_switches.fetch_add(1, std::memory_order_relaxed);
  }

  void to_bitmap() const {
    if (fmt_ == Format::bitmap) return;
    assert(!finalized_ &&
           "grb::Vector: format conversion on a finalized vector — the "
           "single-writer-or-finalized threading contract was violated");
    auto &self = const_cast<Vector &>(*this);
    self.present_.assign(static_cast<std::size_t>(n_), 0);
    self.dense_.resize(static_cast<std::size_t>(n_));
    for (std::size_t p = 0; p < idx_.size(); ++p) {
      self.present_[idx_[p]] = 1;
      self.dense_[idx_[p]] = val_[p];
    }
    self.nvals_ = static_cast<Index>(idx_.size());
    self.idx_.clear();
    self.idx_.shrink_to_fit();
    self.val_.clear();
    self.val_.shrink_to_fit();
    self.fmt_ = Format::bitmap;
    stats().format_switches.fetch_add(1, std::memory_order_relaxed);
  }

  /// Pick the format the density heuristic prefers.
  void maybe_switch_format() const {
    if (n_ == 0) return;
    double density =
        static_cast<double>(nvals()) / static_cast<double>(n_);
    if (fmt_ == Format::sparse && density > config().bitmap_switch_density) {
      to_bitmap();
    } else if (fmt_ == Format::bitmap &&
               density < config().bitmap_switch_density / 4.0) {
      to_sparse();
    }
  }

  // -- raw access for kernels --------------------------------------------------

  [[nodiscard]] std::span<const Index> sparse_indices() const {
    return {idx_.data(), idx_.size()};
  }
  [[nodiscard]] std::span<const T> sparse_values() const {
    return {val_.data(), val_.size()};
  }
  [[nodiscard]] const std::uint8_t *bitmap_present() const {
    return present_.data();
  }
  [[nodiscard]] const T *bitmap_values() const { return dense_.data(); }

  // Mutable bitmap access for in-place kernels (assign fast paths). The
  // caller owns the invariant: after inserting/removing entries through
  // these pointers it must fix the count via set_bitmap_nvals.
  [[nodiscard]] std::uint8_t *bitmap_present_mut() {
    finalized_ = false;
    return present_.data();
  }
  [[nodiscard]] T *bitmap_values_mut() {
    finalized_ = false;
    return dense_.data();
  }
  void set_bitmap_nvals(Index nv) { nvals_ = nv; }

  /// Adopt sparse storage directly (indices must be sorted and unique).
  void adopt_sparse(std::vector<Index> &&indices, std::vector<T> &&values) {
    detail::require(indices.size() == values.size(), Info::invalid_value,
                    "adopt_sparse: length mismatch");
    clear();
    idx_ = std::move(indices);
    val_ = std::move(values);
  }

  /// Adopt bitmap storage directly (present.size() == dense.size() == size()).
  void adopt_bitmap(std::vector<std::uint8_t> &&present, std::vector<T> &&dense,
                    Index nvals) {
    detail::require(present.size() == static_cast<std::size_t>(n_) &&
                        dense.size() == static_cast<std::size_t>(n_),
                    Info::invalid_value, "adopt_bitmap: length mismatch");
    clear();
    present_ = std::move(present);
    dense_ = std::move(dense);
    nvals_ = nvals;
    fmt_ = Format::bitmap;
  }

  /// Freeze for concurrent sharing (same contract as grb::Matrix): pins the
  /// current storage format, after which const members are genuinely
  /// read-only. Cleared by any non-const mutation.
  void finalize() const {
    finalized_ = true;
    stats().finalize_calls.fetch_add(1, std::memory_order_relaxed);
  }

  /// True while the vector is frozen for concurrent readers.
  [[nodiscard]] bool is_finalized() const noexcept { return finalized_; }

  friend bool operator==(const Vector &a, const Vector &b) {
    if (a.n_ != b.n_ || a.nvals() != b.nvals()) return false;
    bool eq = true;
    a.for_each([&](Index i, const T &x) {
      auto y = b.get(i);
      if (!y || !(*y == x)) eq = false;
    });
    return eq;
  }

 private:
  void check_index(Index i) const {
    detail::require(i < n_, Info::index_out_of_bounds,
                    "vector index out of bounds");
  }

  Index n_;
  mutable bool finalized_ = false;  // frozen for concurrent readers
  // Formats are logically interchangeable, so conversion is const-qualified
  // (same convention SuiteSparse uses for its internal format changes).
  mutable Format fmt_ = Format::sparse;
  mutable std::vector<Index> idx_;           // sparse: sorted indices
  mutable std::vector<T> val_;               // sparse: values
  mutable std::vector<std::uint8_t> present_;  // bitmap: presence
  mutable std::vector<T> dense_;             // bitmap: values
  mutable Index nvals_ = 0;                  // bitmap: entry count
};

}  // namespace grb
