// Byte-level serialization for protocol messages.
//
// Every request/reply that crosses a context boundary is serialized through
// these classes so message *sizes* reported in Table 2 reflect real encoded
// bytes, not sizeof() of in-memory structs. Encoding is little-endian
// fixed-width for trivially-copyable scalars plus length-prefixed spans.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace omsp {

// Serialized size of a length-prefixed span of n elements of T — the single
// source of wire-layout arithmetic for put_span/get_span payloads, so code
// that pre-accounts message volumes can never drift from the encoder.
template <typename T>
  requires std::is_trivially_copyable_v<T>
constexpr std::size_t span_wire_size(std::size_t n) {
  return sizeof(std::uint32_t) + n * sizeof(T);
}

class ByteWriter {
public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  // Length-prefixed span of trivially copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> values) {
    put<std::uint32_t>(static_cast<std::uint32_t>(values.size()));
    put_bytes(values.data(), values.size_bytes());
  }

  void put_string(std::string_view s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }

  std::size_t size() const { return buf_.size(); }
  const std::uint8_t* data() const { return buf_.data(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& bytes() const { return buf_; }

private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    OMSP_CHECK_MSG(pos_ + sizeof(T) <= size_, "ByteReader underflow");
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  void get_bytes(void* out, std::size_t n) {
    OMSP_CHECK_MSG(pos_ + n <= size_, "ByteReader underflow");
    if (n == 0) return; // out may be null for an empty span (vector::data())
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_span() {
    const auto count = get<std::uint32_t>();
    // Check the length field before allocating from it.
    OMSP_CHECK_MSG(count <= remaining() / sizeof(T), "ByteReader underflow");
    std::vector<T> out(count);
    get_bytes(out.data(), count * sizeof(T));
    return out;
  }

  std::string get_string() {
    const auto count = get<std::uint32_t>();
    OMSP_CHECK_MSG(count <= remaining(), "ByteReader underflow");
    std::string out(count, '\0');
    get_bytes(out.data(), count);
    return out;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

} // namespace omsp
