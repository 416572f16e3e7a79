#include <gtest/gtest.h>

#include <cstring>

#include "common/serialize.hpp"

namespace omsp {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.put<std::uint8_t>(7);
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<std::int64_t>(-42);
  w.put<double>(3.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 7);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<std::int64_t>(), -42);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.25);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, SpanRoundTrip) {
  std::vector<std::uint32_t> values{1, 2, 3, 5, 8, 13};
  ByteWriter w;
  w.put_span<std::uint32_t>({values.data(), values.size()});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_span<std::uint32_t>(), values);
}

TEST(Serialize, EmptySpan) {
  ByteWriter w;
  w.put_span<std::uint64_t>({});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_span<std::uint64_t>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string("with\0nul", 8));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string("with\0nul", 8));
}

TEST(Serialize, MixedSequence) {
  ByteWriter w;
  for (int i = 0; i < 100; ++i) {
    w.put<std::uint16_t>(static_cast<std::uint16_t>(i));
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(i % 17),
                                   static_cast<std::uint8_t>(i));
    w.put_span<std::uint8_t>({blob.data(), blob.size()});
  }
  ByteReader r(w.bytes());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.get<std::uint16_t>(), i);
    const auto blob = r.get_span<std::uint8_t>();
    ASSERT_EQ(blob.size(), static_cast<std::size_t>(i % 17));
    for (auto b : blob) EXPECT_EQ(b, static_cast<std::uint8_t>(i));
  }
  EXPECT_TRUE(r.done());
}

TEST(SerializeDeath, UnderflowAborts) {
  ByteWriter w;
  w.put<std::uint16_t>(1);
  ByteReader r(w.bytes());
  (void)r.get<std::uint16_t>();
  EXPECT_DEATH((void)r.get<std::uint32_t>(), "underflow");
}

} // namespace
} // namespace omsp
