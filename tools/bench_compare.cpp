// bench_compare — regression checker for the BENCH_*.json files emitted by
// the benchmark harness (schema "pglo-bench-v1"; see DESIGN.md §9).
//
//   bench_compare --validate FILE
//       Validates FILE against the schema. Exit 0 when well-formed.
//
//   bench_compare [--tolerance=0.10] BASELINE NEW
//       Validates both files, then compares simulated times keyed on
//       (config, op). A row regresses when
//           new.simulated_seconds > base.simulated_seconds * (1 + tol)
//       or when a timed baseline row is missing from NEW (coverage loss).
//       --tolerance=0.0 means equal: a row whose simulated time changed
//       in either direction fails, and each row's `values` are gated too
//       (a baseline value — Figure 1's storage bytes, an ablation's hit
//       rate — fails when NEW lacks it or holds a different number).
//       Values only in NEW are informational. At a nonzero tolerance
//       faster rows pass and every value is informational, because some
//       benches record wall-clock numbers there (the obs bench's
//       overheads). New rows and counter drift are reported
//       informationally only. Exit 0 when no regression, 1 otherwise.
//
// Simulated time is deterministic, so the tolerance guards against real
// behavioural change (extra I/O, lost cache hits), not measurement noise;
// comparing a file against itself always exits 0.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

using pglo::JsonValue;
using pglo::ParseJsonFile;
using pglo::Result;

namespace {

struct Row {
  std::string config;
  std::string op;
  double seconds = 0.0;
  bool has_seconds = false;
  std::map<std::string, double> values;
};

/// Validates the pglo-bench-v1 shape; appends human-readable problems.
bool Validate(const JsonValue& doc, const std::string& label,
              std::vector<std::string>* errors) {
  size_t before = errors->size();
  auto err = [&](const std::string& msg) {
    errors->push_back(label + ": " + msg);
  };
  if (!doc.is_object()) {
    err("top level is not an object");
    return false;
  }
  const JsonValue* schema = doc.Get("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != "pglo-bench-v1") {
    err("missing or unexpected \"schema\" (want \"pglo-bench-v1\")");
  }
  const JsonValue* bench = doc.Get("bench");
  if (bench == nullptr || !bench->is_string() || bench->string_value.empty()) {
    err("missing \"bench\" name");
  }
  const JsonValue* quick = doc.Get("quick");
  if (quick == nullptr || !quick->is_bool()) err("missing \"quick\" flag");

  std::vector<std::string> config_names;
  const JsonValue* configs = doc.Get("configs");
  if (configs == nullptr || !configs->is_array()) {
    err("missing \"configs\" array");
  } else {
    for (const JsonValue& c : configs->array) {
      const JsonValue* name = c.is_object() ? c.Get("name") : nullptr;
      if (name == nullptr || !name->is_string()) {
        err("config entry without a string \"name\"");
        continue;
      }
      config_names.push_back(name->string_value);
      for (const auto& [key, value] : c.object) {
        if (!value.is_string()) {
          err("config \"" + name->string_value + "\" field \"" + key +
              "\" is not a string");
        }
      }
    }
  }

  const JsonValue* results = doc.Get("results");
  if (results == nullptr || !results->is_array()) {
    err("missing \"results\" array");
  } else {
    for (const JsonValue& r : results->array) {
      if (!r.is_object()) {
        err("result entry is not an object");
        continue;
      }
      const JsonValue* config = r.Get("config");
      const JsonValue* op = r.Get("op");
      if (config == nullptr || !config->is_string() || op == nullptr ||
          !op->is_string()) {
        err("result entry without string \"config\"/\"op\"");
        continue;
      }
      bool known = false;
      for (const std::string& name : config_names) {
        if (name == config->string_value) known = true;
      }
      if (!known) {
        err("result references unknown config \"" + config->string_value +
            "\"");
      }
      const JsonValue* seconds = r.Get("simulated_seconds");
      if (seconds != nullptr &&
          (!seconds->is_number() || seconds->number < 0)) {
        err("result " + config->string_value + "/" + op->string_value +
            " has a non-numeric or negative \"simulated_seconds\"");
      }
      const JsonValue* values = r.Get("values");
      if (values != nullptr) {
        if (!values->is_object()) {
          err("result " + config->string_value + "/" + op->string_value +
              " \"values\" is not an object");
        } else {
          for (const auto& [key, value] : values->object) {
            if (!value.is_number()) {
              err("value \"" + key + "\" of " + config->string_value + "/" +
                  op->string_value + " is not a number");
            }
          }
        }
      }
    }
  }

  const JsonValue* counters = doc.Get("counters");
  if (counters != nullptr) {
    if (!counters->is_object()) {
      err("\"counters\" is not an object");
    } else {
      for (const auto& [config, table] : counters->object) {
        if (!table.is_object()) {
          err("counters for \"" + config + "\" is not an object");
          continue;
        }
        for (const auto& [name, value] : table.object) {
          if (!value.is_number()) {
            err("counter \"" + name + "\" of \"" + config +
                "\" is not a number");
          }
        }
      }
    }
  }
  return errors->size() == before;
}

std::vector<Row> Rows(const JsonValue& doc) {
  std::vector<Row> rows;
  const JsonValue* results = doc.Get("results");
  if (results == nullptr || !results->is_array()) return rows;
  for (const JsonValue& r : results->array) {
    if (!r.is_object()) continue;
    const JsonValue* config = r.Get("config");
    const JsonValue* op = r.Get("op");
    if (config == nullptr || op == nullptr) continue;
    Row row;
    row.config = config->string_value;
    row.op = op->string_value;
    const JsonValue* seconds = r.Get("simulated_seconds");
    if (seconds != nullptr && seconds->is_number()) {
      row.seconds = seconds->number;
      row.has_seconds = true;
    }
    const JsonValue* values = r.Get("values");
    if (values != nullptr && values->is_object()) {
      for (const auto& [key, value] : values->object) {
        if (value.is_number()) row.values[key] = value.number;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

const Row* FindRow(const std::vector<Row>& rows, const Row& key) {
  for (const Row& row : rows) {
    if (row.config == key.config && row.op == key.op) return &row;
  }
  return nullptr;
}

Result<JsonValue> Load(const std::string& path,
                       std::vector<std::string>* errors) {
  Result<JsonValue> doc = ParseJsonFile(path);
  if (!doc.ok()) {
    errors->push_back(path + ": " + doc.status().ToString());
  }
  return doc;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --validate FILE\n"
               "       %s [--tolerance=0.10] BASELINE NEW\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool validate_only = false;
  double tolerance = 0.10;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--validate") == 0) {
      validate_only = true;
    } else if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      char* end = nullptr;
      tolerance = std::strtod(argv[i] + 12, &end);
      if (end == nullptr || *end != '\0' || tolerance < 0) {
        std::fprintf(stderr, "bad --tolerance value: %s\n", argv[i] + 12);
        return 2;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return Usage(argv[0]);
    } else {
      files.push_back(argv[i]);
    }
  }

  std::vector<std::string> errors;
  if (validate_only) {
    if (files.size() != 1) return Usage(argv[0]);
    Result<JsonValue> doc = Load(files[0], &errors);
    if (doc.ok()) Validate(doc.value(), files[0], &errors);
    for (const std::string& e : errors) {
      std::fprintf(stderr, "INVALID %s\n", e.c_str());
    }
    if (!errors.empty()) return 1;
    std::printf("%s: valid pglo-bench-v1\n", files[0].c_str());
    return 0;
  }

  if (files.size() != 2) return Usage(argv[0]);
  Result<JsonValue> base = Load(files[0], &errors);
  Result<JsonValue> next = Load(files[1], &errors);
  if (base.ok()) Validate(base.value(), files[0], &errors);
  if (next.ok()) Validate(next.value(), files[1], &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "INVALID %s\n", e.c_str());
  }
  if (!errors.empty()) return 1;

  // Quick-scale results are not comparable to full-scale ones.
  const JsonValue* base_quick = base.value().Get("quick");
  const JsonValue* next_quick = next.value().Get("quick");
  if (base_quick->bool_value != next_quick->bool_value) {
    std::fprintf(stderr,
                 "cannot compare: %s is %s-scale, %s is %s-scale\n",
                 files[0].c_str(), base_quick->bool_value ? "quick" : "full",
                 files[1].c_str(), next_quick->bool_value ? "quick" : "full");
    return 1;
  }

  std::vector<Row> base_rows = Rows(base.value());
  std::vector<Row> next_rows = Rows(next.value());
  const bool exact = tolerance == 0.0;
  int regressions = 0;
  int compared = 0;
  for (const Row& b : base_rows) {
    if (!b.has_seconds) continue;
    const Row* n = FindRow(next_rows, b);
    if (n == nullptr || !n->has_seconds) {
      std::printf("REGRESSION %s / %s: present in baseline, missing from "
                  "%s\n",
                  b.config.c_str(), b.op.c_str(), files[1].c_str());
      ++regressions;
      continue;
    }
    ++compared;
    double limit = b.seconds * (1.0 + tolerance);
    double delta =
        b.seconds > 0 ? 100.0 * (n->seconds / b.seconds - 1.0) : 0.0;
    if (exact && n->seconds != b.seconds) {
      std::printf("REGRESSION %s / %s: %.17gs -> %.17gs (%+.3g%%, must be "
                  "equal)\n",
                  b.config.c_str(), b.op.c_str(), b.seconds, n->seconds,
                  delta);
      ++regressions;
    } else if (n->seconds > limit) {
      std::printf("REGRESSION %s / %s: %.4fs -> %.4fs (%+.1f%%, limit "
                  "+%.0f%%)\n",
                  b.config.c_str(), b.op.c_str(), b.seconds, n->seconds,
                  delta, 100.0 * tolerance);
      ++regressions;
    } else if (delta <= -1.0) {
      std::printf("improved   %s / %s: %.4fs -> %.4fs (%+.1f%%)\n",
                  b.config.c_str(), b.op.c_str(), b.seconds, n->seconds,
                  delta);
    }
  }
  for (const Row& n : next_rows) {
    if (n.has_seconds && FindRow(base_rows, n) == nullptr) {
      std::printf("new row    %s / %s: %.4fs (no baseline)\n",
                  n.config.c_str(), n.op.c_str(), n.seconds);
    }
  }

  // Exact mode gates the values as well: every baseline value must be in
  // NEW, bit for bit.
  int values_compared = 0;
  if (exact) {
    for (const Row& b : base_rows) {
      const Row* n = FindRow(next_rows, b);
      for (const auto& [key, value] : b.values) {
        const double* got = nullptr;
        if (n != nullptr) {
          auto it = n->values.find(key);
          if (it != n->values.end()) got = &it->second;
        }
        if (got == nullptr) {
          std::printf("REGRESSION %s / %s value %s: present in baseline, "
                      "missing from %s\n",
                      b.config.c_str(), b.op.c_str(), key.c_str(),
                      files[1].c_str());
          ++regressions;
          continue;
        }
        ++values_compared;
        if (*got != value) {
          std::printf("REGRESSION %s / %s value %s: %.17g -> %.17g\n",
                      b.config.c_str(), b.op.c_str(), key.c_str(), value,
                      *got);
          ++regressions;
        }
      }
    }
  }

  // Informational physical-work drift: device seek counts and storage-
  // manager block reads explain *why* simulated times moved (e.g. vectored
  // I/O should show seeks falling alongside times), and the fragmentation
  // family — FSM hit/miss rates, versions relocated by compaction, pages
  // reclaimed by vacuum — explains churn-benchmark movement the same way.
  // Never affects the exit code.
  auto tracked = [](const std::string& name) {
    auto has = [&](const char* prefix, const char* suffix) {
      size_t plen = std::strlen(prefix);
      size_t slen = std::strlen(suffix);
      return name.size() > plen + slen && name.compare(0, plen, prefix) == 0 &&
             name.compare(name.size() - slen, slen, suffix) == 0;
    };
    return has("device.", ".seeks") || has("smgr.", ".blocks_read") ||
           name == "heap.fsm.hits" || name == "heap.fsm.misses" ||
           has("lo.", ".pages_relocated") || has("lo.", ".pages_reclaimed");
  };
  const JsonValue* base_counters = base.value().Get("counters");
  const JsonValue* next_counters = next.value().Get("counters");
  if (base_counters != nullptr && base_counters->is_object() &&
      next_counters != nullptr && next_counters->is_object()) {
    for (const auto& [config, table] : base_counters->object) {
      if (!table.is_object()) continue;
      const JsonValue* next_table = next_counters->Get(config);
      if (next_table == nullptr || !next_table->is_object()) continue;
      for (const auto& [name, value] : table.object) {
        if (!tracked(name) || !value.is_number()) continue;
        const JsonValue* next_value = next_table->Get(name);
        if (next_value == nullptr || !next_value->is_number()) continue;
        if (next_value->number == value.number) continue;
        double delta = value.number > 0
                           ? 100.0 * (next_value->number / value.number - 1.0)
                           : 0.0;
        std::printf("counter    %s / %s: %.0f -> %.0f (%+.1f%%)\n",
                    config.c_str(), name.c_str(), value.number,
                    next_value->number, delta);
      }
    }
  }

  if (regressions > 0) {
    std::printf("%d regression(s) over %d compared row(s)\n", regressions,
                compared);
    return 1;
  }
  if (exact) {
    std::printf("OK: %d row(s) and %d value(s) equal to baseline\n",
                compared, values_compared);
  } else {
    std::printf("OK: %d row(s) within +%.0f%% of baseline\n", compared,
                100.0 * tolerance);
  }
  return 0;
}
