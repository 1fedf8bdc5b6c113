// Recursive Length Prefix encoding (yellow paper appendix B) — the encoding
// the Merkle Patricia Trie nodes and account bodies use.
//
// Two shapes: value-returning encoders for one-off items, and append-style
// writers for hot paths that build a whole list in one reusable buffer
// (compute the payload length with the *Length helpers, append the list
// prefix, then append each item) without allocating per item.
#ifndef SRC_SUPPORT_RLP_H_
#define SRC_SUPPORT_RLP_H_

#include <span>

#include "src/support/bytes.h"
#include "src/support/u256.h"

namespace pevm {

// Encodes a byte string.
Bytes RlpEncodeBytes(BytesView data);

// Encodes an unsigned integer as its minimal big-endian byte string (zero
// encodes as the empty string, per the yellow paper).
Bytes RlpEncodeUint(const U256& value);

// Wraps already-encoded items into a list.
Bytes RlpEncodeList(std::span<const Bytes> items);

// Size of the length prefix for a payload of `len` bytes (string or list),
// excluding the single-byte-string case, which has no prefix.
size_t RlpPrefixLength(size_t len);

// Encoded size of the byte string `data`.
size_t RlpBytesLength(BytesView data);

// Encoded size of the unsigned integer `value`.
size_t RlpUintLength(const U256& value);

// Appends the encoding of the byte string `data` to `out`.
void RlpAppendBytes(Bytes& out, BytesView data);

// Appends the encoding of the unsigned integer `value` to `out`.
void RlpAppendUint(Bytes& out, const U256& value);

// Appends the prefix of a list whose items encode to `payload_len` bytes;
// the caller appends the items next.
void RlpAppendListPrefix(Bytes& out, size_t payload_len);

// Appends the length prefix of a byte string of `len` bytes; the caller
// appends the bytes next. Not for a single byte below 0x80, which encodes as
// itself with no prefix.
void RlpAppendStringPrefix(Bytes& out, size_t len);

}  // namespace pevm

#endif  // SRC_SUPPORT_RLP_H_
