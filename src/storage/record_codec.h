// Serialization of tuples into page records.

#ifndef DQEP_STORAGE_RECORD_CODEC_H_
#define DQEP_STORAGE_RECORD_CODEC_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/tuple.h"

namespace dqep {

/// Encodes a tuple: u16 value count, then per value a 1-byte type tag
/// followed by the payload (int64: 8 bytes; string: u32 length + bytes).
std::string EncodeTuple(const Tuple& tuple);

/// Appends EncodeTuple(tuple) to `out` (reusing its capacity).
void EncodeTupleTo(const Tuple& tuple, std::string* out);

/// EncodeTuple(tuple).size(), without encoding.
size_t EncodedTupleBytes(const Tuple& tuple);

/// Decodes EncodeTuple output.
Result<Tuple> DecodeTuple(std::string_view bytes);

/// Decodes into `out`, overwriting slots in place and reusing their value
/// storage (no allocations once `out` has seen a tuple of the same shape).
/// The batch scan path decodes every tuple through this.
Status DecodeTupleInto(std::string_view bytes, Tuple* out);

}  // namespace dqep

#endif  // DQEP_STORAGE_RECORD_CODEC_H_
