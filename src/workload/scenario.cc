#include "workload/scenario.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "workload/dblp.h"
#include "workload/dirty_gen.h"
#include "workload/hosp.h"

namespace certfix {

namespace {

// Trusted sets Z per workload: attributes the certain-fix premise assumes
// correct at entry. hosp keys on the (hospital, measure) pair; dblp needs
// the phi7 LHS {type, a1, a2, ptitle, pages} so repairs can fire.
const std::vector<std::string>& TrustedNames(const std::string& workload) {
  static const std::vector<std::string> kHosp = {"id", "mCode"};
  static const std::vector<std::string> kDblp = {"type", "a1", "a2", "ptitle",
                                                 "pages"};
  return workload == "dblp" ? kDblp : kHosp;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

// Strips a trailing `# comment` from an unquoted value.
std::string StripComment(const std::string& s) {
  size_t pos = s.find('#');
  return pos == std::string::npos ? s : s.substr(0, pos);
}

struct RawValue {
  std::string text;
  bool quoted = false;
};

Result<RawValue> ParseRawValue(const std::string& rhs, size_t line_no) {
  RawValue v;
  std::string t = Trim(rhs);
  if (!t.empty() && t[0] == '"') {
    size_t close = t.find('"', 1);
    if (close == std::string::npos) {
      return Status::ParseError("spec line " + std::to_string(line_no) +
                                ": unterminated string");
    }
    std::string rest = Trim(t.substr(close + 1));
    if (!rest.empty() && rest[0] != '#') {
      return Status::ParseError("spec line " + std::to_string(line_no) +
                                ": trailing text after string value");
    }
    v.text = t.substr(1, close - 1);
    v.quoted = true;
    return v;
  }
  v.text = Trim(StripComment(t));
  if (v.text.empty()) {
    return Status::ParseError("spec line " + std::to_string(line_no) +
                              ": empty value");
  }
  return v;
}

Result<double> ToDouble(const RawValue& v, const std::string& key,
                        size_t line_no) {
  if (v.quoted) {
    return Status::ParseError("spec line " + std::to_string(line_no) + ": " +
                              key + " must be a number");
  }
  char* end = nullptr;
  double d = std::strtod(v.text.c_str(), &end);
  // nan and inf parse, but would slip past every range check in Validate
  // (each comparison with nan is false).
  if (end == v.text.c_str() || *end != '\0' || !std::isfinite(d)) {
    return Status::ParseError("spec line " + std::to_string(line_no) + ": " +
                              key + ": bad number '" + v.text + "'");
  }
  return d;
}

Result<uint64_t> ToUint(const RawValue& v, const std::string& key,
                        size_t line_no) {
  if (v.quoted || v.text.empty() ||
      v.text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::ParseError("spec line " + std::to_string(line_no) + ": " +
                              key + ": bad unsigned integer '" + v.text + "'");
  }
  errno = 0;
  const uint64_t n = std::strtoull(v.text.c_str(), nullptr, 10);
  if (errno == ERANGE) {  // strtoull saturates instead of failing
    return Status::ParseError("spec line " + std::to_string(line_no) + ": " +
                              key + ": out of range '" + v.text + "'");
  }
  return n;
}

Result<std::string> ToStr(const RawValue& v, const std::string& key,
                          size_t line_no) {
  if (!v.quoted) {
    return Status::ParseError("spec line " + std::to_string(line_no) + ": " +
                              key + " must be a quoted string");
  }
  return v.text;
}

Status ApplyTopLevel(ScenarioSpec* spec, const std::string& key,
                     const RawValue& v, size_t line_no) {
  if (key == "name") {
    CERTFIX_ASSIGN_OR_RETURN(spec->name, ToStr(v, key, line_no));
  } else if (key == "workload") {
    CERTFIX_ASSIGN_OR_RETURN(spec->workload, ToStr(v, key, line_no));
  } else if (key == "seed") {
    CERTFIX_ASSIGN_OR_RETURN(spec->seed, ToUint(v, key, line_no));
  } else if (key == "master_rows") {
    CERTFIX_ASSIGN_OR_RETURN(spec->master_rows, ToUint(v, key, line_no));
  } else if (key == "initial_rows") {
    CERTFIX_ASSIGN_OR_RETURN(spec->initial_rows, ToUint(v, key, line_no));
  } else if (key == "deltas") {
    CERTFIX_ASSIGN_OR_RETURN(spec->num_deltas, ToUint(v, key, line_no));
  } else if (key == "duplicate_rate") {
    CERTFIX_ASSIGN_OR_RETURN(spec->duplicate_rate, ToDouble(v, key, line_no));
  } else {
    return Status::ParseError("spec line " + std::to_string(line_no) +
                              ": unknown key '" + key + "'");
  }
  return Status::OK();
}

Status ApplyPopularity(PopularityOptions* o, const std::string& key,
                       const RawValue& v, size_t line_no) {
  if (key == "kind") {
    CERTFIX_ASSIGN_OR_RETURN(std::string text, ToStr(v, key, line_no));
    CERTFIX_ASSIGN_OR_RETURN(o->kind, ParsePopularityKind(text));
  } else if (key == "alpha") {
    CERTFIX_ASSIGN_OR_RETURN(o->alpha, ToDouble(v, key, line_no));
  } else if (key == "hot_fraction") {
    CERTFIX_ASSIGN_OR_RETURN(o->hot_fraction, ToDouble(v, key, line_no));
  } else if (key == "hot_rate") {
    CERTFIX_ASSIGN_OR_RETURN(o->hot_rate, ToDouble(v, key, line_no));
  } else if (key == "shift_every") {
    CERTFIX_ASSIGN_OR_RETURN(o->shift_every, ToUint(v, key, line_no));
  } else {
    return Status::ParseError("spec line " + std::to_string(line_no) +
                              ": unknown [popularity] key '" + key + "'");
  }
  return Status::OK();
}

Status ApplyArrival(ArrivalOptions* o, const std::string& key,
                    const RawValue& v, size_t line_no) {
  if (key == "kind") {
    CERTFIX_ASSIGN_OR_RETURN(std::string text, ToStr(v, key, line_no));
    CERTFIX_ASSIGN_OR_RETURN(o->kind, ParseArrivalKind(text));
  } else if (key == "insert_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->insert_weight, ToDouble(v, key, line_no));
  } else if (key == "update_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->update_weight, ToDouble(v, key, line_no));
  } else if (key == "delete_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->delete_weight, ToDouble(v, key, line_no));
  } else if (key == "master_ratio") {
    CERTFIX_ASSIGN_OR_RETURN(o->master_ratio, ToDouble(v, key, line_no));
  } else if (key == "master_insert_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->master_insert_weight,
                             ToDouble(v, key, line_no));
  } else if (key == "master_update_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->master_update_weight,
                             ToDouble(v, key, line_no));
  } else if (key == "master_delete_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->master_delete_weight,
                             ToDouble(v, key, line_no));
  } else if (key == "burst_min") {
    CERTFIX_ASSIGN_OR_RETURN(o->burst_min, ToUint(v, key, line_no));
  } else if (key == "burst_max") {
    CERTFIX_ASSIGN_OR_RETURN(o->burst_max, ToUint(v, key, line_no));
  } else {
    return Status::ParseError("spec line " + std::to_string(line_no) +
                              ": unknown [arrival] key '" + key + "'");
  }
  return Status::OK();
}

Status ApplyErrors(ScenarioSpec* spec, const std::string& key,
                   const RawValue& v, size_t line_no) {
  ErrorModelOptions* o = &spec->errors;
  if (key == "tuple_error_rate") {
    CERTFIX_ASSIGN_OR_RETURN(o->tuple_error_rate, ToDouble(v, key, line_no));
  } else if (key == "burst_continue") {
    CERTFIX_ASSIGN_OR_RETURN(o->burst_continue, ToDouble(v, key, line_no));
  } else if (key == "cluster_len") {
    CERTFIX_ASSIGN_OR_RETURN(o->cluster_len, ToUint(v, key, line_no));
  } else if (key == "cell_rate") {
    CERTFIX_ASSIGN_OR_RETURN(o->cell_rate, ToDouble(v, key, line_no));
  } else if (key == "typo_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->typo_weight, ToDouble(v, key, line_no));
  } else if (key == "null_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->null_weight, ToDouble(v, key, line_no));
  } else if (key == "transpose_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->transpose_weight, ToDouble(v, key, line_no));
  } else if (key == "swap_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->swap_weight, ToDouble(v, key, line_no));
  } else if (key == "hostile_weight") {
    CERTFIX_ASSIGN_OR_RETURN(o->hostile_weight, ToDouble(v, key, line_no));
  } else if (key == "master_noise_rate") {
    CERTFIX_ASSIGN_OR_RETURN(spec->master_noise_rate,
                             ToDouble(v, key, line_no));
  } else {
    return Status::ParseError("spec line " + std::to_string(line_no) +
                              ": unknown [errors] key '" + key + "'");
  }
  return Status::OK();
}

// Renders a tuple the way WriteCsv renders rows: null as "".
std::vector<std::string> RenderTuple(const Tuple& t) {
  std::vector<std::string> fields(t.size());
  for (AttrId a = 0; a < t.size(); ++a) {
    const Value& v = t.at(a);
    if (!v.is_null()) fields[a] = v.ToString();
  }
  return fields;
}

std::vector<std::string> RenderRow(const Relation& rel, size_t row) {
  std::vector<std::string> fields(rel.schema()->num_attrs());
  for (AttrId a = 0; a < rel.schema()->num_attrs(); ++a) {
    const Value& v = rel.Cell(row, a);
    if (!v.is_null()) fields[a] = v.ToString();
  }
  return fields;
}

}  // namespace

Status ScenarioSpec::Validate() const {
  if (name.empty()) {
    return Status::InvalidArgument("scenario needs a name");
  }
  if (workload != "hosp" && workload != "dblp") {
    return Status::InvalidArgument("unknown workload '" + workload +
                                   "' (want hosp|dblp)");
  }
  if (master_rows == 0) {
    return Status::InvalidArgument("master_rows must be > 0");
  }
  if (duplicate_rate < 0.0 || duplicate_rate > 1.0 ||
      master_noise_rate < 0.0 || master_noise_rate > 1.0) {
    return Status::InvalidArgument(
        "duplicate_rate and master_noise_rate must be in [0, 1]");
  }
  CERTFIX_RETURN_IF_ERROR(popularity.Validate());
  CERTFIX_RETURN_IF_ERROR(arrival.Validate());
  CERTFIX_RETURN_IF_ERROR(errors.Validate());
  return Status::OK();
}

Result<ScenarioSpec> ParseScenarioSpec(const std::string& text,
                                       const std::string& default_name) {
  ScenarioSpec spec;
  spec.name = default_name;
  std::istringstream in(text);
  std::string line;
  std::string section;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    if (t[0] == '[') {
      if (t.back() != ']') {
        return Status::ParseError("spec line " + std::to_string(line_no) +
                                  ": unterminated section header");
      }
      section = Trim(t.substr(1, t.size() - 2));
      if (section != "popularity" && section != "arrival" &&
          section != "errors") {
        return Status::ParseError("spec line " + std::to_string(line_no) +
                                  ": unknown section [" + section + "]");
      }
      continue;
    }
    size_t eq = t.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("spec line " + std::to_string(line_no) +
                                ": expected key = value");
    }
    std::string key = Trim(t.substr(0, eq));
    if (key.empty()) {
      return Status::ParseError("spec line " + std::to_string(line_no) +
                                ": empty key");
    }
    CERTFIX_ASSIGN_OR_RETURN(RawValue value,
                             ParseRawValue(t.substr(eq + 1), line_no));
    if (section.empty()) {
      CERTFIX_RETURN_IF_ERROR(ApplyTopLevel(&spec, key, value, line_no));
    } else if (section == "popularity") {
      CERTFIX_RETURN_IF_ERROR(
          ApplyPopularity(&spec.popularity, key, value, line_no));
    } else if (section == "arrival") {
      CERTFIX_RETURN_IF_ERROR(
          ApplyArrival(&spec.arrival, key, value, line_no));
    } else {
      CERTFIX_RETURN_IF_ERROR(ApplyErrors(&spec, key, value, line_no));
    }
  }
  CERTFIX_RETURN_IF_ERROR(spec.Validate());
  return spec;
}

Result<ScenarioSpec> LoadScenarioSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open scenario spec " + path);
  std::ostringstream text;
  text << in.rdbuf();
  // Default the name to the file stem: "dir/zipf-hot.toml" -> "zipf-hot".
  std::string stem = path;
  size_t slash = stem.find_last_of("/\\");
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return ParseScenarioSpec(text.str(), stem);
}

Result<Scenario> GenerateScenario(const ScenarioSpec& spec) {
  CERTFIX_RETURN_IF_ERROR(spec.Validate());
  Scenario sc;
  sc.spec = spec;
  const bool dblp = spec.workload == "dblp";
  sc.schema = dblp ? DblpWorkload::MakeSchema() : HospWorkload::MakeSchema();
  sc.rules = dblp ? DblpWorkload::MakeRules(sc.schema)
                  : HospWorkload::MakeRules(sc.schema);
  sc.trusted_names = TrustedNames(spec.workload);
  CERTFIX_ASSIGN_OR_RETURN(std::vector<AttrId> trusted_ids,
                           sc.schema->Resolve(sc.trusted_names));
  sc.trusted = AttrSet::FromVector(trusted_ids);

  // Pools, seeded by the bench_util idiom: master from `seed`, the
  // disjoint non-duplicate pool from seed*31+7 at offset 1e6, and the
  // master-growth pool (rows MI appends) from seed*131+3 at offset 2e6 so
  // grown rows collide with neither.
  Rng master_rng(spec.seed);
  sc.master = dblp ? DblpWorkload::MakeMaster(sc.schema, spec.master_rows,
                                              &master_rng)
                   : HospWorkload::MakeMaster(sc.schema, spec.master_rows,
                                              &master_rng);
  Rng non_master_rng(spec.seed * 31 + 7);
  size_t pool_rows = spec.master_rows / 2 + 1;
  Relation non_master =
      dblp ? DblpWorkload::MakeMaster(sc.schema, pool_rows, &non_master_rng,
                                      1000000)
           : HospWorkload::MakeMaster(sc.schema, pool_rows, &non_master_rng,
                                      1000000);
  Relation growth;
  size_t growth_next = 0;
  if (spec.arrival.master_ratio > 0.0) {
    Rng growth_rng(spec.seed * 131 + 3);
    size_t growth_rows = spec.num_deltas > 0 ? spec.num_deltas : 1;
    growth = dblp ? DblpWorkload::MakeMaster(sc.schema, growth_rows,
                                             &growth_rng, 2000000)
                  : HospWorkload::MakeMaster(sc.schema, growth_rows,
                                             &growth_rng, 2000000);
  }

  // The clean-row source: DirtyGenerator with zero noise — corruption is
  // this module's ErrorModel, which reuses the generator's typo alphabet.
  DirtyGenOptions gen_opts;
  gen_opts.duplicate_rate = spec.duplicate_rate;
  gen_opts.noise_rate = 0.0;
  gen_opts.seed = spec.seed * 13 + 1;
  DirtyGenerator clean_gen(sc.master, non_master, gen_opts);
  ErrorModelOptions err_opts = spec.errors;
  err_opts.protected_attrs = sc.trusted;
  ErrorModel errors(err_opts, spec.seed * 77 + 5, &clean_gen);

  auto next_input_row = [&]() {
    DirtyPair pair = clean_gen.Next();
    Tuple t = pair.dirty;  // noise_rate 0: dirty == clean, scratch-backed
    errors.CorruptTuple(&t);
    return RenderTuple(t);
  };

  sc.initial = Relation(sc.schema);
  std::vector<std::vector<std::string>> live_input;
  live_input.reserve(spec.initial_rows);
  for (size_t i = 0; i < spec.initial_rows; ++i) {
    std::vector<std::string> fields = next_input_row();
    CERTFIX_RETURN_IF_ERROR(sc.initial.AppendStrings(fields));
    live_input.push_back(std::move(fields));
  }
  std::vector<std::vector<std::string>> live_master;
  live_master.reserve(sc.master.size());
  for (size_t i = 0; i < sc.master.size(); ++i) {
    live_master.push_back(RenderRow(sc.master, i));
  }

  // MD below this floor becomes MI: engines need surviving master rows for
  // rules to fire at all, and the floor keeps adversarial specs from
  // deleting the scenario out from under themselves.
  constexpr size_t kMinMasterRows = 8;

  Rng rng(spec.seed * 1009 + 17);
  PopularityModel popularity(spec.popularity);
  ArrivalModel arrival(spec.arrival);
  sc.deltas.reserve(spec.num_deltas);
  for (uint64_t step = 0; step < spec.num_deltas; ++step) {
    OpClass op = arrival.Next(&rng);
    // Re-aim ops their target state cannot satisfy instead of failing:
    // the burst machine may queue deletes against an emptied relation.
    if ((op == OpClass::kUpdate || op == OpClass::kDelete) &&
        live_input.empty()) {
      op = OpClass::kInsert;
    }
    if (op == OpClass::kMasterDelete && live_master.size() <= kMinMasterRows) {
      op = OpClass::kMasterInsert;
    }
    if (op == OpClass::kMasterUpdate && live_master.empty()) {
      op = OpClass::kMasterInsert;
    }

    Delta d;
    switch (op) {
      case OpClass::kInsert: {
        d.kind = DeltaKind::kInsert;
        d.fields = next_input_row();
        live_input.push_back(d.fields);
        break;
      }
      case OpClass::kUpdate: {
        d.kind = DeltaKind::kUpdate;
        d.row = popularity.Pick(live_input.size(), step, &rng);
        d.fields = next_input_row();
        live_input[d.row] = d.fields;
        break;
      }
      case OpClass::kDelete: {
        d.kind = DeltaKind::kDelete;
        d.row = popularity.Pick(live_input.size(), step, &rng);
        live_input.erase(live_input.begin() +
                         static_cast<std::ptrdiff_t>(d.row));
        break;
      }
      case OpClass::kMasterInsert: {
        d.kind = DeltaKind::kMasterInsert;
        d.fields = growth.empty()
                       ? RenderRow(sc.master, rng.Index(sc.master.size()))
                       : RenderRow(growth, growth_next++ % growth.size());
        live_master.push_back(d.fields);
        break;
      }
      case OpClass::kMasterUpdate: {
        d.kind = DeltaKind::kMasterUpdate;
        d.row = popularity.Pick(live_master.size(), step, &rng);
        double roll = rng.NextDouble();
        if (roll < 0.15) {
          // Self-identical update: engines must treat it as a no-op.
          d.fields = live_master[d.row];
        } else if (rng.NextDouble() < spec.master_noise_rate) {
          // Corrupt one cell of the current row: master data goes bad.
          d.fields = live_master[d.row];
          AttrId a = static_cast<AttrId>(rng.Index(d.fields.size()));
          Value v = Value::Parse(d.fields[a], sc.schema->attr_type(a));
          Value bad = errors.CorruptValue(v, sc.schema->attr_type(a),
                                          errors.DrawKind());
          d.fields[a] = bad.is_null() ? "" : bad.ToString();
        } else if (!growth.empty()) {
          // Replace with a fresh consistent row: a record correction.
          d.fields = RenderRow(growth, growth_next++ % growth.size());
        } else {
          d.fields = live_master[d.row];
        }
        live_master[d.row] = d.fields;
        break;
      }
      case OpClass::kMasterDelete: {
        d.kind = DeltaKind::kMasterDelete;
        d.row = popularity.Pick(live_master.size(), step, &rng);
        live_master.erase(live_master.begin() +
                          static_cast<std::ptrdiff_t>(d.row));
        break;
      }
    }
    sc.deltas.push_back(std::move(d));
  }
  return sc;
}

std::string DeltaLogToString(const Scenario& scenario) {
  std::ostringstream out;
  Status st = WriteDeltaLog(scenario.spec.name, scenario.spec.seed,
                            scenario.deltas, out);
  (void)st;  // string streams do not fail
  return out.str();
}

Status ApplyDeltaLog(const std::vector<Delta>& deltas,
                     std::vector<std::vector<std::string>>* input_rows,
                     std::vector<std::vector<std::string>>* master_rows) {
  for (size_t i = 0; i < deltas.size(); ++i) {
    const Delta& d = deltas[i];
    bool master = IsMasterDelta(d.kind);
    std::vector<std::vector<std::string>>* rows =
        master ? master_rows : input_rows;
    switch (d.kind) {
      case DeltaKind::kInsert:
      case DeltaKind::kMasterInsert:
        rows->push_back(d.fields);
        break;
      case DeltaKind::kUpdate:
      case DeltaKind::kMasterUpdate:
        if (d.row >= rows->size()) {
          return Status::OutOfRange("delta " + std::to_string(i) +
                                    ": update row " + std::to_string(d.row) +
                                    " out of range");
        }
        (*rows)[d.row] = d.fields;
        break;
      case DeltaKind::kDelete:
      case DeltaKind::kMasterDelete:
        if (d.row >= rows->size()) {
          return Status::OutOfRange("delta " + std::to_string(i) +
                                    ": delete row " + std::to_string(d.row) +
                                    " out of range");
        }
        rows->erase(rows->begin() + static_cast<std::ptrdiff_t>(d.row));
        break;
    }
  }
  return Status::OK();
}

std::vector<std::vector<std::string>> RenderRows(const Relation& rel) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) rows.push_back(RenderRow(rel, i));
  return rows;
}

Result<Relation> RelationFromRows(
    SchemaPtr schema, const std::vector<std::vector<std::string>>& rows) {
  Relation rel(std::move(schema));
  rel.Reserve(rows.size());
  for (const auto& fields : rows) {
    CERTFIX_RETURN_IF_ERROR(rel.AppendStrings(fields));
  }
  return rel;
}

}  // namespace certfix
