#include "src/support/rlp.h"

namespace pevm {
namespace {

bool IsSingleByte(BytesView data) { return data.size() == 1 && data[0] < 0x80; }

// Emits the length prefix for a payload of `len` bytes, where `base` is 0x80
// for strings and 0xc0 for lists.
void AppendLengthPrefix(Bytes& out, size_t len, uint8_t base) {
  if (len <= 55) {
    out.push_back(static_cast<uint8_t>(base + len));
    return;
  }
  const size_t len_bytes = RlpPrefixLength(len) - 1;
  out.push_back(static_cast<uint8_t>(base + 55 + len_bytes));
  for (size_t i = len_bytes; i-- > 0;) {
    out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
}

}  // namespace

size_t RlpPrefixLength(size_t len) {
  if (len <= 55) {
    return 1;
  }
  size_t n = 1;
  for (; len > 0; len >>= 8) {
    ++n;
  }
  return n;
}

size_t RlpBytesLength(BytesView data) {
  return IsSingleByte(data) ? 1 : RlpPrefixLength(data.size()) + data.size();
}

size_t RlpUintLength(const U256& value) {
  unsigned len = value.ByteLength();
  if (len == 1 && value.AsUint64() < 0x80) {
    return 1;
  }
  return RlpPrefixLength(len) + len;
}

void RlpAppendBytes(Bytes& out, BytesView data) {
  if (IsSingleByte(data)) {
    out.push_back(data[0]);
    return;
  }
  AppendLengthPrefix(out, data.size(), 0x80);
  out.insert(out.end(), data.begin(), data.end());
}

void RlpAppendUint(Bytes& out, const U256& value) {
  std::array<uint8_t, 32> be = value.ToBigEndian();
  unsigned len = value.ByteLength();
  RlpAppendBytes(out, BytesView(be.data() + (32 - len), len));
}

void RlpAppendListPrefix(Bytes& out, size_t payload_len) {
  AppendLengthPrefix(out, payload_len, 0xc0);
}

void RlpAppendStringPrefix(Bytes& out, size_t len) { AppendLengthPrefix(out, len, 0x80); }

Bytes RlpEncodeBytes(BytesView data) {
  Bytes out;
  RlpAppendBytes(out, data);
  return out;
}

Bytes RlpEncodeUint(const U256& value) {
  Bytes out;
  RlpAppendUint(out, value);
  return out;
}

Bytes RlpEncodeList(std::span<const Bytes> items) {
  size_t payload = 0;
  for (const Bytes& item : items) {
    payload += item.size();
  }
  Bytes out;
  RlpAppendListPrefix(out, payload);
  for (const Bytes& item : items) {
    out.insert(out.end(), item.begin(), item.end());
  }
  return out;
}

}  // namespace pevm
