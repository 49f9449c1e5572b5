// The byte primitives under the recovery and replication formats: CRC-32
// known answers, stream chaining and a differential against a byte-wise
// reference at every length and alignment; the exact little-endian bytes of
// ByteWriter; and golden frame pins for the snapshot seal, the replication
// codec and the journal framing. The pins were recorded from the byte-wise
// implementation, so any faster encoder must reproduce them exactly.

#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/recovery/journal.hpp"
#include "core/recovery/snapshot.hpp"
#include "core/recovery/storage.hpp"
#include "core/replication/replication.hpp"

namespace {

using tora::core::recovery::JournalWriter;
using tora::core::recovery::MemStorage;
using tora::core::recovery::RecordType;
using tora::core::recovery::seal_snapshot;
using tora::core::replication::decode_frame;
using tora::core::replication::encode_record;
using tora::core::replication::encode_rotate;
using tora::core::replication::ReplicationFrame;
using tora::util::ByteReader;
using tora::util::ByteWriter;
using tora::util::crc32;

/// The textbook bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320) with the
/// same seed chaining as util::crc32.
std::uint32_t reference_crc32(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

/// Deterministic pseudo-random bytes (xorshift64*).
std::string noise(std::size_t n, std::uint64_t state) {
  std::string out(n, '\0');
  for (char& c : out) {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    c = static_cast<char>((state * 0x2545F4914F6CDD1Dull) >> 56);
  }
  return out;
}

std::string unhex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

// ------------------------------------------------------------------ crc32

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32(std::string(32, '\0')), 0x190A55ADu);
}

TEST(Crc32, ChainingMatchesOnePass) {
  // The journal's record_crc form: crc32(payload, crc32(type byte)).
  const std::string data = noise(1000, 7);
  const std::uint32_t whole = crc32(data);
  for (std::size_t cut : {0, 1, 7, 8, 9, 63, 500, 999, 1000}) {
    const std::string_view a = std::string_view(data).substr(0, cut);
    const std::string_view b = std::string_view(data).substr(cut);
    EXPECT_EQ(crc32(b, crc32(a)), whole) << "cut at " << cut;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLen = 4100;
  const std::string buffer = noise(kMaxLen + 8, 42);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::string_view data =
        std::string_view(buffer).substr(offset, kMaxLen);
    // The reference for length n+1 extends length n's by one byte.
    std::uint32_t want = 0;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) want = reference_crc32(data.substr(len - 1, 1), want);
      ASSERT_EQ(crc32(data.substr(0, len)), want)
          << "offset " << offset << " length " << len;
    }
    // A nonzero seed goes through the same word loop.
    EXPECT_EQ(crc32(data, 0xDEADBEEFu), reference_crc32(data, 0xDEADBEEFu));
  }
}

// ------------------------------------------------------------- ByteWriter

TEST(ByteWriter, WritesExactLittleEndianBytes) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  w.f64(1.0);
  w.f64(-0.0);
  w.f64(std::bit_cast<double>(0x7FF8000000000123ull));  // NaN with payload
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str(std::string("a\0b", 3));
  EXPECT_EQ(to_hex(w.bytes()),
            "ab"
            "04030201"
            "0807060504030201"
            "000000000000f03f"
            "0000000000000080"
            "230100000000f87f"
            "0100000000000000"
            "03000000"
            "610062");
  EXPECT_EQ(w.size(), 1u + 4 + 8 + 4 * 8 + 4 + 3);
}

TEST(ByteWriter, ReserveChangesNoBytes) {
  ByteWriter plain;
  ByteWriter reserved;
  reserved.reserve(1 << 16);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    plain.u64(i * 0x9E3779B97F4A7C15ull);
    reserved.u64(i * 0x9E3779B97F4A7C15ull);
    plain.u32(static_cast<std::uint32_t>(i));
    reserved.u32(static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(plain.bytes(), reserved.bytes());
}

TEST(ByteReader, RoundTripsEveryBitPattern) {
  const double nan_payload = std::bit_cast<double>(0x7FF8000000000123ull);
  const double subnormal = std::numeric_limits<double>::denorm_min();
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xFFFFFFFFu);
  w.u64(0xFFFFFFFFFFFFFFFFull);
  w.f64(-0.0);
  w.f64(nan_payload);
  w.f64(subnormal);
  w.str("tail");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xABu);
  EXPECT_EQ(r.u32(), 0xFFFFFFFFu);
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x8000000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(nan_payload));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(subnormal));
  EXPECT_EQ(r.str(), "tail");
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, EveryTruncatedReadThrows) {
  ByteWriter w;
  w.u32(7);
  w.u64(9);
  w.f64(0.5);
  w.str("xyz");
  const std::string bytes = w.bytes();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    ByteReader r(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW(
        {
          r.u32();
          r.u64();
          r.f64();
          r.str();
        },
        std::runtime_error)
        << "prefix of " << keep << " bytes";
  }
}

// ------------------------------------------------------------ frame pins

std::string pin_body() {
  std::string body(300, '\0');
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>((i * 37 + 11) & 0xFF);
  }
  return body;
}

TEST(FramePins, SealSnapshotOf300Bytes) {
  const std::string body = pin_body();
  // "TORASNAP", u32 version 1, body, u32 crc32 of everything before it.
  EXPECT_EQ(seal_snapshot(body),
            unhex("544f5241534e415001000000") + body + unhex("c53a669f"));
}

TEST(FramePins, EncodeRotate) {
  const std::string body = pin_body();
  // 'R', op 4, u64 epoch 7, u64 tick 99, u32 length 300, body, u32 crc.
  EXPECT_EQ(encode_rotate(7, body, 99),
            unhex("5204"
                  "0700000000000000"
                  "6300000000000000"
                  "2c010000") +
                body + unhex("d7cfdfd2"));
}

TEST(FramePins, EncodeRecord) {
  EXPECT_EQ(to_hex(encode_record(RecordType::Input,
                                 std::string("bin\0\n\xffpayload", 12))),
            "5202040c00000062696e000aff7061796c6f6110c097b5");
}

TEST(FramePins, JournalRecordFrame) {
  MemStorage storage;
  {
    JournalWriter writer(storage.open_append("j"));
    writer.append(RecordType::TaskCompleted,
                  std::string("task\0\xff\n done", 11));
    writer.sync();
  }
  // u32 length 11, type byte, payload, u32 crc32(type byte + payload).
  EXPECT_EQ(to_hex(*storage.read_file("j")),
            "0b000000147461736b00ff0a20646f6eb6594d49");
}

TEST(FramePins, ThreeMegabyteRotateRoundTrips) {
  const std::string body = noise(3 << 20, 3);
  const std::string wire = encode_rotate(12, body, 345678);
  ASSERT_EQ(wire.size(), 1 + 1 + 8 + 8 + 4 + body.size() + 4);
  const auto frame = decode_frame(wire);
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->op, ReplicationFrame::Op::Rotate);
  EXPECT_EQ(frame->epoch, 12u);
  EXPECT_EQ(frame->tick, 345678u);
  EXPECT_TRUE(frame->body == body);
  EXPECT_EQ(reference_crc32(std::string_view(wire).substr(1, wire.size() - 5)),
            ByteReader(std::string_view(wire).substr(wire.size() - 4)).u32());

  std::string flipped = wire;
  flipped[wire.size() / 2] = static_cast<char>(flipped[wire.size() / 2] ^ 1);
  EXPECT_FALSE(decode_frame(flipped));
}

}  // namespace
