/**
 * @file
 * InlineList: the operand and angle lists of an Operation.
 */

#ifndef QRA_CIRCUIT_INLINE_LIST_HH
#define QRA_CIRCUIT_INLINE_LIST_HH

#include <algorithm>
#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <type_traits>

namespace qra {

/**
 * A fixed-length list of trivially copyable values that keeps up to
 * @p N of them inline, so copying, moving or freeing a short list never
 * touches the heap. A longer list (in the IR, only a Barrier's
 * operands) keeps its values in one heap block of exactly its length,
 * whose address lives in the inline bytes. The length is set when the
 * list is built; elements can be rewritten in place.
 */
template <typename T, std::size_t N>
class InlineList
{
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) * N >= sizeof(T *),
                  "the inline bytes must hold a heap block's address");

  public:
    using iterator = T *;
    using const_iterator = const T *;

    InlineList() = default;

    InlineList(std::initializer_list<T> values)
    {
        assign(values.begin(), values.size());
    }

    /** Copy of a contiguous container of T (a vector, array or span). */
    template <typename Range>
        requires(!std::same_as<std::remove_cvref_t<Range>, InlineList>) &&
                requires(const Range &r) {
                    { r.data() } -> std::convertible_to<const T *>;
                    { r.size() } -> std::convertible_to<std::size_t>;
                }
    InlineList(const Range &values)
    {
        assign(values.data(), values.size());
    }

    InlineList(const InlineList &other)
    {
        assign(other.data(), other.size());
    }

    InlineList(InlineList &&other) noexcept { steal(other); }

    InlineList &
    operator=(const InlineList &other)
    {
        if (this != &other) {
            release();
            assign(other.data(), other.size());
        }
        return *this;
    }

    InlineList &
    operator=(InlineList &&other) noexcept
    {
        if (this != &other) {
            release();
            steal(other);
        }
        return *this;
    }

    ~InlineList() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *data() { return onHeap() ? heap() : items_; }
    const T *data() const { return onHeap() ? heap() : items_; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }

    const T &
    at(std::size_t i) const
    {
        if (i >= size_)
            throw std::out_of_range("InlineList::at");
        return data()[i];
    }

    const T &front() const { return data()[0]; }

    friend bool
    operator==(const InlineList &a, const InlineList &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    /** Lexicographic, as std::vector orders. */
    friend auto
    operator<=>(const InlineList &a, const InlineList &b)
    {
        return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                      b.begin(), b.end());
    }

  private:
    bool onHeap() const { return size_ > N; }

    T *
    heap() const
    {
        T *block;
        std::memcpy(&block, items_, sizeof block);
        return block;
    }

    /** Fill an empty list with @p count values. */
    void
    assign(const T *values, std::size_t count)
    {
        T *dest = items_;
        if (count > N) {
            dest = new T[count];
            std::memcpy(items_, &dest, sizeof dest);
        }
        std::copy_n(values, count, dest);
        size_ = static_cast<std::uint32_t>(count);
    }

    /** Take @p other's values (or its heap block), leaving it empty. */
    void
    steal(InlineList &other)
    {
        std::memcpy(items_, other.items_, sizeof items_);
        size_ = other.size_;
        other.size_ = 0;
    }

    void
    release()
    {
        if (onHeap())
            delete[] heap();
        size_ = 0;
    }

    T items_[N]{};
    std::uint32_t size_ = 0;
};

} // namespace qra

#endif // QRA_CIRCUIT_INLINE_LIST_HH
