#include "src/util/json.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace deepplan {

std::string Json::Str(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Json::Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Json::Int(std::int64_t v) { return std::to_string(v); }

std::string Json::Bool(bool v) { return v ? "true" : "false"; }

JsonObject& JsonObject::SetRaw(const std::string& key, std::string raw_json) {
  fields_.emplace_back(key, std::move(raw_json));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, const std::string& string_value) {
  return SetRaw(key, Json::Str(string_value));
}

JsonObject& JsonObject::Set(const std::string& key, const char* string_value) {
  return SetRaw(key, Json::Str(string_value));
}

JsonObject& JsonObject::Set(const std::string& key, double v) {
  return SetRaw(key, Json::Num(v));
}

JsonObject& JsonObject::Set(const std::string& key, std::int64_t v) {
  return SetRaw(key, Json::Int(v));
}

JsonObject& JsonObject::Set(const std::string& key, int v) {
  return SetRaw(key, Json::Int(v));
}

JsonObject& JsonObject::Set(const std::string& key, bool v) {
  return SetRaw(key, Json::Bool(v));
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out += Json::Str(fields_[i].first);
    out.push_back(':');
    out += fields_[i].second;
  }
  out.push_back('}');
  return out;
}

JsonArray& JsonArray::AddRaw(std::string raw_json) {
  items_.push_back(std::move(raw_json));
  return *this;
}

JsonArray& JsonArray::Add(const std::string& string_value) {
  return AddRaw(Json::Str(string_value));
}

JsonArray& JsonArray::Add(double v) { return AddRaw(Json::Num(v)); }

JsonArray& JsonArray::Add(std::int64_t v) { return AddRaw(Json::Int(v)); }

JsonArray& JsonArray::Add(int v) { return AddRaw(Json::Int(v)); }

std::string JsonArray::Render() const {
  std::string out = "[";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) {
      out.push_back(',');
    }
    out += items_[i];
  }
  out.push_back(']');
  return out;
}

bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::binary);
  out << json << '\n';
  // close() flushes: a write the buffer was still holding fails here.
  out.close();
  return !out.fail();
}

}  // namespace deepplan
