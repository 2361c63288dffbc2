// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/common/value.h"

#include <cmath>
#include <functional>
#include <sstream>

namespace cepshed {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

double Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return 0.0;
  }
}

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  if (type() == ValueType::kString || other.type() == ValueType::kString) {
    if (type() != other.type()) return false;
    return AsString() == other.AsString();
  }
  if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
    return AsInt() == other.AsInt();
  }
  return ToDouble() == other.ToDouble();
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) return -2;
  const bool lhs_str = type() == ValueType::kString;
  const bool rhs_str = other.type() == ValueType::kString;
  if (lhs_str != rhs_str) return -2;
  if (lhs_str) {
    const int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
    const int64_t a = AsInt();
    const int64_t b = other.AsInt();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  const double a = ToDouble();
  const double b = other.ToDouble();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt:
      // Through the double the int promotes to, the way Equals() compares
      // an int with a double: Value(2) and Value(2.0) hash alike, and so
      // do the int 2^53 + 1 and the double 2^53 it rounds to. Ints a
      // double represents exactly hash as they always did; int -> double
      // is defined for every int64 (the reverse cast is not).
      return std::hash<double>()(static_cast<double>(AsInt()));
    case ValueType::kDouble:
      return std::hash<double>()(AsDouble());
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

}  // namespace cepshed
