// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Event schema: the set of event types and the set of named, typed
// attributes shared by the events of a stream (see §III-A of the paper:
// events are instances e = <a1, ..., an> of a schema A = <A1, ..., An>).

#ifndef CEPSHED_CEP_SCHEMA_H_
#define CEPSHED_CEP_SCHEMA_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace cepshed {

/// \brief A named, typed attribute of the event schema.
struct AttributeDef {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// \brief The schema of an event stream: event type names plus the union of
/// attributes events may carry. Events of a type that lacks an attribute
/// store null for it.
///
/// The schema is immutable once handed to an Engine; build it fully first.
class Schema {
 public:
  Schema() = default;

  /// Registers an event type name; returns its dense id.
  /// Fails with AlreadyExists on duplicates.
  Result<int> AddEventType(std::string name);

  /// Registers an attribute; returns its dense index.
  /// Fails with AlreadyExists on duplicates.
  Result<int> AddAttribute(std::string name, ValueType type);

  /// Returns the id of an event type, or -1 if unknown.
  int EventTypeId(std::string_view name) const;
  /// Returns the name of an event type id. Requires a valid id.
  const std::string& EventTypeName(int id) const { return event_types_.at(static_cast<size_t>(id)); }
  /// Number of registered event types.
  size_t num_event_types() const { return event_types_.size(); }

  /// Returns the index of an attribute, or -1 if unknown.
  int AttributeIndex(std::string_view name) const;
  /// Returns the attribute definition at `index`. Requires a valid index.
  const AttributeDef& attribute(int index) const { return attributes_.at(static_cast<size_t>(index)); }
  /// Number of registered attributes.
  size_t num_attributes() const { return attributes_.size(); }

 private:
  /// Transparent hashing: the lookups take a string_view (a CSV cell) and
  /// probe the map without building a std::string per call.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  using NameMap = std::unordered_map<std::string, int, NameHash, std::equal_to<>>;

  std::vector<std::string> event_types_;
  NameMap type_ids_;
  std::vector<AttributeDef> attributes_;
  NameMap attr_indexes_;
};

}  // namespace cepshed

#endif  // CEPSHED_CEP_SCHEMA_H_
