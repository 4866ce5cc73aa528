#include "src/func/function.h"

namespace dfunc {

FunctionCtx::FunctionCtx(DataSetList inputs) : inputs_(std::move(inputs)) {}

dbase::Result<std::string> FunctionCtx::SingleInput(std::string_view set_name) const {
  const DataSet* set = input_set(set_name);
  if (set == nullptr) {
    return dbase::NotFound("no input set named " + std::string(set_name));
  }
  if (set->items.empty()) {
    return dbase::FailedPrecondition("input set is empty: " + std::string(set_name));
  }
  return set->items.front().data.ToString();
}

void FunctionCtx::EmitOutput(std::string_view set_name, Payload data, std::string key) {
  DataSet* set = FindSet(outputs_, set_name);
  if (set == nullptr) {
    outputs_.push_back(DataSet{std::string(set_name), {}});
    set = &outputs_.back();
  }
  set->items.push_back(DataItem{std::move(key), std::move(data)});
}

}  // namespace dfunc
