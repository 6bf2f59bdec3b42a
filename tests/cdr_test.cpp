#include <gtest/gtest.h>

#include "cdr/cdr.hpp"

namespace eternal::cdr {
namespace {

TEST(Cdr, PrimitiveRoundTrip) {
  Writer enc;
  enc.put_octet(0xAB);
  enc.put_boolean(true);
  enc.put_char('x');
  enc.put_short(-1234);
  enc.put_ushort(54321);
  enc.put_long(-123456789);
  enc.put_ulong(4000000000u);
  enc.put_longlong(-99887766554433LL);
  enc.put_ulonglong(18446744073709551610ULL);
  enc.put_float(3.5f);
  enc.put_double(-2.25);

  Decoder dec(enc.written());
  EXPECT_EQ(dec.get_octet(), 0xAB);
  EXPECT_TRUE(dec.get_boolean());
  EXPECT_EQ(dec.get_char(), 'x');
  EXPECT_EQ(dec.get_short(), -1234);
  EXPECT_EQ(dec.get_ushort(), 54321);
  EXPECT_EQ(dec.get_long(), -123456789);
  EXPECT_EQ(dec.get_ulong(), 4000000000u);
  EXPECT_EQ(dec.get_longlong(), -99887766554433LL);
  EXPECT_EQ(dec.get_ulonglong(), 18446744073709551610ULL);
  EXPECT_FLOAT_EQ(dec.get_float(), 3.5f);
  EXPECT_DOUBLE_EQ(dec.get_double(), -2.25);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Cdr, AlignmentRules) {
  Writer enc;
  enc.put_octet(1);   // offset 0
  enc.put_ulong(7);   // pads to 4, value at 4..7
  EXPECT_EQ(enc.size(), 8u);
  enc.put_octet(2);   // offset 8
  enc.put_double(1.5);  // pads to 16
  EXPECT_EQ(enc.size(), 24u);

  Decoder dec(enc.written());
  EXPECT_EQ(dec.get_octet(), 1);
  EXPECT_EQ(dec.get_ulong(), 7u);
  EXPECT_EQ(dec.get_octet(), 2);
  EXPECT_DOUBLE_EQ(dec.get_double(), 1.5);
}

TEST(Cdr, StringRoundTrip) {
  Writer enc;
  enc.put_string("hello world");
  enc.put_string("");
  Decoder dec(enc.written());
  EXPECT_EQ(dec.get_string(), "hello world");
  EXPECT_EQ(dec.get_string(), "");
}

TEST(Cdr, StringIncludesNulInLength) {
  Writer enc;
  enc.put_string("ab");
  // ulong(3) + 'a' 'b' '\0'
  EXPECT_EQ(enc.size(), 7u);
  EXPECT_EQ(enc.written()[0], 3u);
}

TEST(Cdr, OctetSeqRoundTrip) {
  Bytes payload{1, 2, 3, 4, 5};
  Writer enc;
  enc.put_octet_seq(payload);
  Decoder dec(enc.written());
  EXPECT_EQ(dec.get_octet_seq(), payload);
}

TEST(Cdr, EmptyOctetSeq) {
  Writer enc;
  enc.put_octet_seq(std::span<const std::uint8_t>{});
  Decoder dec(enc.written());
  EXPECT_TRUE(dec.get_octet_seq().empty());
  EXPECT_TRUE(dec.exhausted());
}

TEST(Cdr, UnderflowThrows) {
  Writer enc;
  enc.put_ulong(1);
  Decoder dec(enc.written());
  dec.get_ulong();
  EXPECT_THROW(dec.get_ulong(), MarshalError);
}

TEST(Cdr, MalformedStringThrows) {
  Writer enc;
  enc.put_ulong(100);  // claims 100 bytes that are not there
  Decoder dec(enc.written());
  EXPECT_THROW(dec.get_string(), MarshalError);
}

TEST(Cdr, StringMissingNulThrows) {
  Writer enc;
  enc.put_ulong(2);
  enc.put_octet('a');
  enc.put_octet('b');  // no NUL
  Decoder dec(enc.written());
  EXPECT_THROW(dec.get_string(), MarshalError);
}

TEST(Cdr, EncapsulationRoundTrip) {
  Writer outer;
  outer.put_octet(9);
  outer.begin_octet_seq();
  outer.put_boolean(kHostLittleEndian);
  outer.put_ulong(0xDEADBEEF);
  outer.put_string("enc");
  outer.end_octet_seq();
  outer.put_ulong(77);

  Decoder dec(outer.written());
  EXPECT_EQ(dec.get_octet(), 9);
  Decoder in = dec.get_encapsulation();
  EXPECT_EQ(in.get_ulong(), 0xDEADBEEF);
  EXPECT_EQ(in.get_string(), "enc");
  EXPECT_EQ(dec.get_ulong(), 77u);
}

TEST(Cdr, EncapsulationAlignmentIsSelfRelative) {
  // The flag octet is offset 0 of the encapsulation; a ulong inside must sit
  // at offset 4 regardless of the encapsulation's position in the outer
  // stream.
  Writer outer;
  outer.put_octet(0);  // shift the encapsulation to an odd outer offset
  outer.begin_octet_seq();
  outer.put_boolean(kHostLittleEndian);
  outer.put_ulong(42);
  EXPECT_EQ(outer.end_octet_seq(), 8u);  // flag + 3 pad + 4 value
  Decoder dec(outer.written());
  dec.get_octet();
  Decoder in = dec.get_encapsulation();
  EXPECT_EQ(in.get_ulong(), 42u);
}

TEST(Cdr, ByteSwappedDecode) {
  // Hand-build a big-endian ulong and decode with swap on a little-endian
  // host (or vice versa: the test is symmetric through the swap flag).
  Bytes raw{0x01, 0x02, 0x03, 0x04};
  Decoder dec(raw, /*swap=*/true);
  const std::uint32_t v = dec.get_ulong();
  if (kHostLittleEndian) {
    EXPECT_EQ(v, 0x01020304u);
  } else {
    EXPECT_EQ(v, 0x04030201u);
  }
}

TEST(Cdr, RawBytesRoundTrip) {
  Bytes raw{9, 8, 7};
  Writer enc;
  enc.put_raw(raw);
  Decoder dec(enc.written());
  auto view = dec.get_raw(3);
  EXPECT_EQ(Bytes(view.begin(), view.end()), raw);
  EXPECT_THROW(dec.get_raw(1), MarshalError);
}

}  // namespace
}  // namespace eternal::cdr
