#ifndef TNMINE_ML_ARFF_H_
#define TNMINE_ML_ARFF_H_

#include <string>

#include "common/parse.h"
#include "ml/attribute_table.h"

namespace tnmine::ml {

/// Serializes `table` as a Weka ARFF document — the interchange format of
/// the tool the paper's Section-7 experiments ran in. Numeric attributes
/// become `@attribute <name> numeric`, nominal ones enumerate their
/// values.
std::string WriteArff(const AttributeTable& table,
                      const std::string& relation_name);

/// Parses an ARFF document produced by WriteArff (a practical subset of
/// the format: `@relation`, `@attribute ... numeric`, `@attribute
/// {v1,v2,...}`, `@data` with comma-separated rows; `%` comments and blank
/// lines are skipped; strings may be single-quoted). Numeric cells are
/// parsed with the strict locale-independent helpers in common/parse.h.
/// Returns false and fills `error` (line/message) on malformed input.
bool ReadArff(const std::string& text, AttributeTable* table,
              ParseError* error);

/// Convenience wrappers over files. LoadArff reports a parse failure as
/// ParseError::ToString().
bool SaveArff(const AttributeTable& table, const std::string& relation_name,
              const std::string& path, std::string* error);
bool LoadArff(const std::string& path, AttributeTable* table,
              std::string* error);

}  // namespace tnmine::ml

#endif  // TNMINE_ML_ARFF_H_
