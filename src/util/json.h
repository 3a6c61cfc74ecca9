// Minimal JSON document builder for machine-readable bench output
// (BENCH_<name>.json). Insertion-ordered objects and deterministic number
// formatting, so identical experiment results render to identical bytes.
// Build-only — parsing stays in the tests that consume the output.
#ifndef SRC_UTIL_JSON_H_
#define SRC_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace deepplan {

// Scalar encoders: each returns the value rendered as a JSON token.
struct Json {
  static std::string Str(const std::string& s);  // quoted + escaped
  static std::string Num(double v);              // %.12g; NaN/Inf become null
  static std::string Int(std::int64_t v);
  static std::string Bool(bool v);
};

// Object with insertion-ordered keys. Set() escapes strings; SetRaw() takes a
// pre-rendered JSON token, which is how objects and arrays nest (pass another
// builder's Render() output).
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& string_value);
  JsonObject& Set(const std::string& key, const char* string_value);
  JsonObject& Set(const std::string& key, double v);
  JsonObject& Set(const std::string& key, std::int64_t v);
  JsonObject& Set(const std::string& key, int v);
  JsonObject& Set(const std::string& key, bool v);
  JsonObject& SetRaw(const std::string& key, std::string raw_json);

  bool empty() const { return fields_.empty(); }
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

class JsonArray {
 public:
  JsonArray& Add(const std::string& string_value);
  JsonArray& Add(double v);
  JsonArray& Add(std::int64_t v);
  JsonArray& Add(int v);
  JsonArray& AddRaw(std::string raw_json);

  bool empty() const { return items_.empty(); }
  std::string Render() const;

 private:
  std::vector<std::string> items_;
};

// Writes `json` and a trailing newline to `path`, then closes the file.
// Returns false when the file cannot be opened or any byte fails to land (a
// full disk, /dev/full), so callers can exit nonzero instead of reporting a
// write that did not happen. Every JSON artefact is written through here.
bool WriteJsonFile(const std::string& path, const std::string& json);

}  // namespace deepplan

#endif  // SRC_UTIL_JSON_H_
