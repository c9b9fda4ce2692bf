#include "serve/protocol.hpp"

#include <sstream>

#include "accel/stats_io.hpp"
#include "serve/json.hpp"

namespace dim::serve {
namespace {

// Echoable id from a parsed value: string, or integer >= 0.
bool read_id(const JsonValue& v, RequestId& out) {
  if (v.is_string()) {
    out.is_string = true;
    out.text = v.string;
    return true;
  }
  if (v.is_u64()) {
    out.is_string = false;
    out.text = std::to_string(v.as_u64());
    return true;
  }
  return false;
}

void write_id(std::ostream& out, const RequestId& id) {
  if (id.text.empty() && !id.is_string) {
    out << "null";
  } else if (id.is_string) {
    out << '"' << accel::json_escape(id.text) << '"';
  } else {
    out << id.text;
  }
}

struct FieldError {
  std::string detail;
};

uint64_t get_u64(const JsonValue& obj, const char* key, uint64_t fallback) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  if (!v->is_u64()) throw FieldError{std::string(key) + " must be a non-negative integer"};
  return v->as_u64();
}

bool get_bool(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) throw FieldError{std::string(key) + " must be a boolean"};
  return v->boolean;
}

std::string get_string(const JsonValue& obj, const char* key,
                       const std::string& fallback) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) throw FieldError{std::string(key) + " must be a string"};
  return v->string;
}

bool valid_shape(const std::string& name) {
  return name == "config1" || name == "config2" || name == "config3" ||
         name == "ideal";
}

void parse_program_selection(const JsonValue& doc, Request& req) {
  req.workload = get_string(doc, "workload", "");
  req.source = get_string(doc, "source", "");
  const uint64_t scale = get_u64(doc, "scale", 1);
  if (scale < 1 || scale > 64) throw FieldError{"scale must be in [1, 64]"};
  req.scale = static_cast<int>(scale);
  if (req.workload.empty() && req.source.empty()) {
    throw FieldError{"either workload or source is required"};
  }
  if (!req.workload.empty() && !req.source.empty()) {
    throw FieldError{"workload and source are mutually exclusive"};
  }
}

void parse_point_config(const JsonValue& doc, Request& req) {
  req.shape = get_string(doc, "shape", req.shape);
  if (!valid_shape(req.shape)) throw FieldError{"unknown shape " + req.shape};
  req.slots = get_u64(doc, "slots", req.slots);
  if (req.slots < 1 || req.slots > 4096) throw FieldError{"slots must be in [1, 4096]"};
  req.speculation = get_bool(doc, "spec", req.speculation);
  req.want_baseline = get_bool(doc, "baseline", req.want_baseline);
}

// Optional scheduling fields, legal on every queued kind (run/sweep/fuzz).
// `deadline_ms: 0` is allowed and means "already expired" — it pins the
// deadline_expired path deterministically in tests.
void parse_scheduling(const JsonValue& doc, Request& req) {
  const uint64_t priority = get_u64(doc, "priority", 0);
  if (priority > static_cast<uint64_t>(kMaxPriority)) {
    throw FieldError{"priority must be in [0, 9]"};
  }
  req.priority = static_cast<int>(priority);
  if (const JsonValue* d = doc.get("deadline_ms")) {
    if (!d->is_u64()) throw FieldError{"deadline_ms must be a non-negative integer"};
    req.has_deadline = true;
    req.deadline_ms = d->as_u64();
  }
}

}  // namespace

ParseOutcome parse_request(const std::string& line) {
  ParseOutcome outcome;
  if (line.size() > kMaxRequestBytes) {
    outcome.error = kErrParse;
    outcome.detail = "request line exceeds " +
                     std::to_string(kMaxRequestBytes) + " bytes";
    return outcome;
  }
  JsonValue doc;
  try {
    doc = parse_json(line);
  } catch (const JsonError& e) {
    outcome.error = kErrParse;
    outcome.detail = e.what();
    return outcome;
  }
  if (!doc.is_object()) {
    outcome.error = kErrParse;
    outcome.detail = "request must be a JSON object";
    return outcome;
  }
  // Recover the id first so every later failure can still be correlated.
  if (const JsonValue* id = doc.get("id")) {
    if (!read_id(*id, outcome.id)) {
      outcome.error = kErrBadRequest;
      outcome.detail = "id must be a string or a non-negative integer";
      return outcome;
    }
  } else {
    outcome.error = kErrBadRequest;
    outcome.detail = "id is required";
    return outcome;
  }

  Request req;
  req.id = outcome.id;
  const std::string kind = [&] {
    const JsonValue* k = doc.get("kind");
    return (k != nullptr && k->is_string()) ? k->string : std::string();
  }();

  try {
    if (kind == "ping") {
      req.kind = RequestKind::kPing;
    } else if (kind == "run") {
      req.kind = RequestKind::kRun;
      parse_program_selection(doc, req);
      parse_point_config(doc, req);
      if (const JsonValue* b = doc.get("budget")) {
        if (!b->is_u64()) throw FieldError{"budget must be a non-negative integer"};
        req.budget = b->as_u64();
        if (req.budget == 0) {
          // A zero budget simulates nothing: zero cycles on both sides, so
          // any speedup in the response would divide by zero. Rejected
          // here so the executor never sees it.
          outcome.error = kErrZeroBudget;
          outcome.detail = "budget must be positive; omit it for an unbudgeted run";
          return outcome;
        }
      }
      parse_scheduling(doc, req);
    } else if (kind == "sweep") {
      req.kind = RequestKind::kSweep;
      parse_program_selection(doc, req);
      parse_point_config(doc, req);
      if (const JsonValue* shapes = doc.get("shapes")) {
        if (!shapes->is_array() || shapes->array.empty()) {
          throw FieldError{"shapes must be a non-empty array"};
        }
        for (const JsonValue& s : shapes->array) {
          if (!s.is_string() || !valid_shape(s.string)) {
            throw FieldError{"shapes entries must name config1|config2|config3|ideal"};
          }
          req.shapes.push_back(s.string);
        }
      }
      if (const JsonValue* slots = doc.get("slots_axis")) {
        if (!slots->is_array() || slots->array.empty()) {
          throw FieldError{"slots_axis must be a non-empty array"};
        }
        for (const JsonValue& s : slots->array) {
          if (!s.is_u64() || s.as_u64() < 1 || s.as_u64() > 4096) {
            throw FieldError{"slots_axis entries must be integers in [1, 4096]"};
          }
          req.slots_axis.push_back(s.as_u64());
        }
      }
      if (const JsonValue* spec = doc.get("spec_axis")) {
        if (!spec->is_array() || spec->array.empty()) {
          throw FieldError{"spec_axis must be a non-empty array"};
        }
        for (const JsonValue& s : spec->array) {
          if (!s.is_bool()) throw FieldError{"spec_axis entries must be booleans"};
          req.spec_axis.push_back(s.boolean);
        }
      }
      if (req.shapes.empty()) req.shapes.push_back(req.shape);
      if (req.slots_axis.empty()) req.slots_axis.push_back(req.slots);
      if (req.spec_axis.empty()) req.spec_axis.push_back(req.speculation);
      parse_scheduling(doc, req);
    } else if (kind == "fuzz") {
      req.kind = RequestKind::kFuzz;
      const uint64_t seeds = get_u64(doc, "seeds", 10);
      if (seeds < 1 || seeds > 100000) throw FieldError{"seeds must be in [1, 100000]"};
      req.seeds = static_cast<int>(seeds);
      req.seed_start = get_u64(doc, "seed_start", 0);
      req.matrix = get_string(doc, "matrix", "quick");
      if (req.matrix != "quick" && req.matrix != "full") {
        throw FieldError{"matrix must be quick or full"};
      }
      parse_scheduling(doc, req);
    } else if (kind == "stats") {
      req.kind = RequestKind::kStats;
    } else if (kind == "cancel") {
      req.kind = RequestKind::kCancel;
      const JsonValue* target = doc.get("target");
      if (target == nullptr || !read_id(*target, req.target)) {
        throw FieldError{"cancel requires a target id"};
      }
    } else if (kind == "shutdown") {
      req.kind = RequestKind::kShutdown;
    } else {
      throw FieldError{kind.empty() ? "kind is required"
                                    : "unknown kind \"" + kind + "\""};
    }
  } catch (const FieldError& e) {
    outcome.error = kErrBadRequest;
    outcome.detail = e.detail;
    return outcome;
  }

  outcome.ok = true;
  outcome.request = std::move(req);
  return outcome;
}

void write_ok_prefix(std::ostream& out, const RequestId& id) {
  out << "{\"id\": ";
  write_id(out, id);
  out << ", \"ok\": true";
}

void write_error_response(std::ostream& out, const RequestId& id,
                          const std::string& error, const std::string& detail) {
  out << "{\"id\": ";
  write_id(out, id);
  out << ", \"ok\": false, \"error\": \"" << accel::json_escape(error)
      << "\", \"detail\": \"" << accel::json_escape(detail) << "\"}\n";
}

void write_pong_response(std::ostream& out, const RequestId& id) {
  write_ok_prefix(out, id);
  out << ", \"kind\": \"pong\"}\n";
}

void write_stats_object(std::ostream& out, const accel::AccelStats& stats) {
  // One schema everywhere: the multi-line write_json_fields body with its
  // newlines folded away is a valid single-line object body.
  std::ostringstream fields;
  accel::write_json_fields(fields, stats, "");
  std::string body = fields.str();
  std::string folded;
  folded.reserve(body.size());
  for (const char c : body) {
    if (c != '\n') folded.push_back(c);
  }
  out << '{' << folded << '}';
}

void write_run_response(std::ostream& out, const RequestId& id, const RunResponse& r) {
  write_ok_prefix(out, id);
  out << ", \"kind\": \"run\", \"halted\": " << (r.halted ? "true" : "false")
      << ", \"hit_budget\": " << (r.hit_budget ? "true" : "false");
  if (r.budget > 0) out << ", \"budget\": " << r.budget;
  if (r.has_baseline) {
    out << ", \"transparent\": " << (r.transparent ? "true" : "false")
        << ", \"speedup\": ";
    const double speedup =
        r.accelerated.cycles == 0
            ? 0.0
            : static_cast<double>(r.baseline.cycles) /
                  static_cast<double>(r.accelerated.cycles);
    accel::write_json_double(out, speedup);
    out << ", \"baseline\": ";
    write_stats_object(out, r.baseline);
  }
  out << ", \"stats\": ";
  write_stats_object(out, r.accelerated);
  out << "}\n";
}

void write_sweep_response(std::ostream& out, const RequestId& id,
                          const std::vector<accel::SweepResult>& results) {
  write_ok_prefix(out, id);
  out << ", \"kind\": \"sweep\", \"cells\": " << results.size()
      << ", \"points\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const accel::SweepResult& r = results[i];
    out << (i == 0 ? "" : ", ") << "{\"label\": \""
        << accel::json_escape(r.label) << "\"";
    if (r.has_baseline) {
      out << ", \"speedup\": ";
      accel::write_json_double(out, r.speedup());
      out << ", \"transparent\": " << (r.transparent ? "true" : "false");
    }
    out << ", \"cycles\": " << r.accelerated.cycles << ", \"instructions\": "
        << r.accelerated.instructions << ", \"coverage\": ";
    accel::write_json_double(out, r.accelerated.array_coverage());
    out << "}";
  }
  out << "]}\n";
}

void write_fuzz_response(std::ostream& out, const RequestId& id, const FuzzResponse& r) {
  write_ok_prefix(out, id);
  out << ", \"kind\": \"fuzz\", \"seeds_run\": " << r.seeds_run
      << ", \"divergent\": " << r.divergent
      << ", \"inconclusive\": " << r.inconclusive
      << ", \"clean\": " << (r.divergent == 0 ? "true" : "false") << "}\n";
}

}  // namespace dim::serve
