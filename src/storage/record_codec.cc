#include "storage/record_codec.h"

#include <cstring>

namespace dqep {

namespace {

constexpr uint8_t kTagInt64 = 0;
constexpr uint8_t kTagString = 1;

template <typename T>
void PutRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool GetRaw(std::string_view* in, T* out) {
  if (in->size() < sizeof(T)) {
    return false;
  }
  std::memcpy(out, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

}  // namespace

std::string EncodeTuple(const Tuple& tuple) {
  std::string out;
  EncodeTupleTo(tuple, &out);
  return out;
}

void EncodeTupleTo(const Tuple& tuple, std::string* out) {
  PutRaw<uint16_t>(out, static_cast<uint16_t>(tuple.size()));
  for (int32_t i = 0; i < tuple.size(); ++i) {
    const Value& value = tuple.value(i);
    if (value.is_int64()) {
      out->push_back(static_cast<char>(kTagInt64));
      PutRaw<int64_t>(out, value.AsInt64());
    } else {
      out->push_back(static_cast<char>(kTagString));
      const std::string& s = value.AsString();
      PutRaw<uint32_t>(out, static_cast<uint32_t>(s.size()));
      out->append(s);
    }
  }
}

size_t EncodedTupleBytes(const Tuple& tuple) {
  size_t bytes = sizeof(uint16_t);
  for (int32_t i = 0; i < tuple.size(); ++i) {
    const Value& value = tuple.value(i);
    bytes += 1 + (value.is_int64() ? sizeof(int64_t)
                                   : sizeof(uint32_t) + value.AsString().size());
  }
  return bytes;
}

Result<Tuple> DecodeTuple(std::string_view bytes) {
  Tuple tuple;
  DQEP_RETURN_IF_ERROR(DecodeTupleInto(bytes, &tuple));
  return tuple;
}

Status DecodeTupleInto(std::string_view bytes, Tuple* out) {
  DQEP_CHECK(out != nullptr);
  uint16_t count = 0;
  if (!GetRaw(&bytes, &count)) {
    return Status::Corruption("truncated tuple header");
  }
  out->Resize(count);
  for (uint16_t i = 0; i < count; ++i) {
    if (bytes.empty()) {
      return Status::Corruption("truncated tuple value tag");
    }
    uint8_t tag = static_cast<uint8_t>(bytes.front());
    bytes.remove_prefix(1);
    if (tag == kTagInt64) {
      int64_t v = 0;
      if (!GetRaw(&bytes, &v)) {
        return Status::Corruption("truncated int64 value");
      }
      out->mutable_value(i)->SetInt64(v);
    } else if (tag == kTagString) {
      uint32_t length = 0;
      if (!GetRaw(&bytes, &length) || bytes.size() < length) {
        return Status::Corruption("truncated string value");
      }
      out->mutable_value(i)->SetString(bytes.substr(0, length));
      bytes.remove_prefix(length);
    } else {
      return Status::Corruption("unknown value tag");
    }
  }
  if (!bytes.empty()) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return Status::OK();
}

}  // namespace dqep
