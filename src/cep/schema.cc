// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/cep/schema.h"

namespace cepshed {

Result<int> Schema::AddEventType(std::string name) {
  if (type_ids_.count(name) > 0) {
    return Status::AlreadyExists("event type '" + name + "' already registered");
  }
  const int id = static_cast<int>(event_types_.size());
  type_ids_.emplace(name, id);
  event_types_.push_back(std::move(name));
  return id;
}

Result<int> Schema::AddAttribute(std::string name, ValueType type) {
  if (attr_indexes_.count(name) > 0) {
    return Status::AlreadyExists("attribute '" + name + "' already registered");
  }
  const int index = static_cast<int>(attributes_.size());
  attr_indexes_.emplace(name, index);
  attributes_.push_back(AttributeDef{std::move(name), type});
  return index;
}

int Schema::EventTypeId(std::string_view name) const {
  auto it = type_ids_.find(name);
  return it == type_ids_.end() ? -1 : it->second;
}

int Schema::AttributeIndex(std::string_view name) const {
  auto it = attr_indexes_.find(name);
  return it == attr_indexes_.end() ? -1 : it->second;
}

}  // namespace cepshed
