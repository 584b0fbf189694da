// The command-line plumbing shared by fuzzymatch_cli, fuzzymatch_server
// and fuzzymatch_loadgen: one strict --flag parser and the CSV loader.
//
// A flag takes the next token as its value unless that token starts with
// "--", so optional-value flags (--metrics, --watch) compose with the
// others. Every failure is a one-line Status: an unknown flag, a stray
// positional token, or a numeric value that does not parse or is out of
// range. A malformed number never reads as 0.

#ifndef FUZZYMATCH_TOOLS_ARGS_H_
#define FUZZYMATCH_TOOLS_ARGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "common/string_util.h"
#include "storage/database.h"

namespace fuzzymatch {

class Args {
 public:
  /// Parses argv[first..argc); `first` skips the program name and, for
  /// the CLI, the subcommand.
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        if (stray_.empty()) stray_ = key;
        continue;
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Fails on a stray positional token or the first flag outside `known`.
  Status RejectUnknown(const std::set<std::string>& known) const {
    if (!stray_.empty()) {
      return Status::InvalidArgument("unexpected argument '" + stray_ + "'");
    }
    for (const auto& [key, value] : values_) {
      if (known.count(key) == 0) {
        return Status::InvalidArgument("unknown flag --" + key);
      }
    }
    return Status::OK();
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
    if (it->second.empty() || end == nullptr || *end != '\0' || errno != 0) {
      return Status::InvalidArgument(
          StringPrintf("--%s: '%s' is not an integer", key.c_str(),
                       it->second.c_str()));
    }
    return v;
  }

  /// GetInt plus a range check, for values a narrowing cast would
  /// otherwise silently truncate or wrap.
  Result<int64_t> GetIntInRange(const std::string& key, int64_t fallback,
                                int64_t lo, int64_t hi) const {
    FM_ASSIGN_OR_RETURN(const int64_t v, GetInt(key, fallback));
    if (v < lo || v > hi) {
      return Status::InvalidArgument(
          StringPrintf("--%s: %lld out of range [%lld, %lld]", key.c_str(),
                       static_cast<long long>(v), static_cast<long long>(lo),
                       static_cast<long long>(hi)));
    }
    return v;
  }

  Result<double> GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || end == nullptr || *end != '\0' || errno != 0 ||
        !std::isfinite(v)) {
      return Status::InvalidArgument(
          StringPrintf("--%s: '%s' is not a number", key.c_str(),
                       it->second.c_str()));
    }
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string stray_;  // first token that is neither a flag nor a value
};

/// One CSV record as a row; empty fields are NULL.
inline Row FieldsToRow(const std::vector<std::string>& fields) {
  Row row;
  row.reserve(fields.size());
  for (const auto& f : fields) {
    if (f.empty()) {
      row.emplace_back(std::nullopt);
    } else {
      row.emplace_back(f);
    }
  }
  return row;
}

/// Loads a CSV (header + records) into a new table named `name`.
inline Result<Table*> LoadCsvTable(Database* db, const std::string& name,
                                   const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open " + path);
  }
  CsvReader reader(&in);
  std::vector<std::string> fields;
  FM_ASSIGN_OR_RETURN(const bool has_header, reader.Next(&fields));
  if (!has_header) {
    return Status::InvalidArgument(path + " is empty");
  }
  FM_ASSIGN_OR_RETURN(Table * table, db->CreateTable(name, Schema(fields)));
  const size_t arity = fields.size();
  for (;;) {
    FM_ASSIGN_OR_RETURN(const bool more, reader.Next(&fields));
    if (!more) break;
    if (fields.size() != arity) {
      return Status::InvalidArgument(
          StringPrintf("%s row %llu has %zu fields, header has %zu",
                       path.c_str(),
                       static_cast<unsigned long long>(reader.records_read()),
                       fields.size(), arity));
    }
    FM_RETURN_IF_ERROR(table->Insert(FieldsToRow(fields)).status());
  }
  return table;
}

}  // namespace fuzzymatch

#endif  // FUZZYMATCH_TOOLS_ARGS_H_
