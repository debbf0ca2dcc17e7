#include "crawler/query_json.hpp"

#include <limits>
#include <utility>

#include "util/format.hpp"
#include "util/strings.hpp"

namespace appstore::crawlersim {

namespace {

using query::QueryError;

constexpr std::size_t kMaxJsonFilterDepth = 32;
constexpr std::size_t kMaxListItems = 64;

[[nodiscard]] std::size_t parse_count(const std::string& text, std::string_view name) {
  std::uint64_t value = 0;
  if (!util::parse_u64(text, value)) {
    throw QueryError("bad_query", util::format("query: bad {} '{}'", name, text));
  }
  return static_cast<std::size_t>(value);
}

[[nodiscard]] std::vector<double> parse_fraction_list(const std::string& text) {
  std::vector<double> fractions;
  for (const auto piece : util::split(text, ',')) {
    double value = 0.0;
    if (!util::parse_double(util::trim(piece), value)) {
      throw QueryError("bad_query", util::format("query: bad fraction '{}'", piece));
    }
    fractions.push_back(value);
    if (fractions.size() > kMaxListItems) {
      throw QueryError("bad_query", "query: too many fractions");
    }
  }
  return fractions;
}

[[nodiscard]] std::vector<std::size_t> parse_depth_list(const std::string& text) {
  std::vector<std::size_t> depths;
  for (const auto piece : util::split(text, ',')) {
    depths.push_back(parse_count(std::string(util::trim(piece)), "depth"));
    if (depths.size() > kMaxListItems) {
      throw QueryError("bad_query", "query: too many depths");
    }
  }
  return depths;
}

[[nodiscard]] query::Expr expr_from_json_node(const Json& node, std::size_t depth) {
  if (depth >= kMaxJsonFilterDepth) {
    throw QueryError("bad_filter", "filter: expression too deeply nested");
  }
  if (!node.is_object()) {
    throw QueryError("bad_filter", "filter: expected an object node");
  }
  for (const auto connective : {std::string_view("and"), std::string_view("or")}) {
    const Json* children = node.find(connective);
    if (children == nullptr) continue;
    if (!children->is_array() || children->as_array().empty()) {
      throw QueryError("bad_filter", util::format("filter: '{}' needs a non-empty array",
                                                  connective));
    }
    query::Expr expr;
    expr.kind = connective == "and" ? query::Expr::Kind::kAnd : query::Expr::Kind::kOr;
    for (const Json& child : children->as_array()) {
      expr.children.push_back(expr_from_json_node(child, depth + 1));
    }
    if (expr.children.size() == 1) return std::move(expr.children.front());
    return expr;
  }

  const Json* field = node.find("field");
  const Json* op = node.find("op");
  const Json* value = node.find("value");
  if (field == nullptr || !field->is_string() || op == nullptr || !op->is_string() ||
      value == nullptr) {
    throw QueryError("bad_filter", "filter: leaf needs string 'field', 'op' and 'value'");
  }
  double number = 0.0;
  std::string text;
  bool is_text = false;
  if (value->is_number()) {
    number = value->as_number();
  } else if (value->is_string()) {
    text = value->as_string();
    is_text = true;
  } else {
    throw QueryError("bad_filter", "filter: 'value' must be a number or string");
  }
  return query::Expr::leaf(query::make_comparison(query::parse_field(field->as_string()),
                                                  query::parse_op(op->as_string()), number,
                                                  std::move(text), is_text));
}

[[nodiscard]] QueryRequest request_from_params(
    const std::map<std::string, std::string>& params) {
  const auto kind = params.find("kind");
  if (kind == params.end()) {
    throw QueryError("bad_query", "query: 'kind' is required");
  }
  QueryRequest request;
  if (const auto it = params.find("partial"); it != params.end()) {
    request.partial = it->second == "1" || it->second == "true";
  }
  query::QuerySpec& spec = request.spec;
  spec.kind = query::parse_aggregate_kind(kind->second);
  if (const auto it = params.find("filter"); it != params.end()) {
    spec.filter = query::parse_filter(it->second);
  }
  if (const auto it = params.find("k"); it != params.end()) {
    spec.k = parse_count(it->second, "k");
  }
  if (const auto it = params.find("fractions"); it != params.end()) {
    spec.fractions = parse_fraction_list(it->second);
  }
  if (const auto it = params.find("depths"); it != params.end()) {
    spec.depths = parse_depth_list(it->second);
  }
  if (const auto it = params.find("min_samples"); it != params.end()) {
    spec.min_samples = parse_count(it->second, "min_samples");
  }
  if (const auto it = params.find("points"); it != params.end()) {
    spec.points = parse_count(it->second, "points");
  }
  return request;
}

[[nodiscard]] std::size_t json_count(const Json& value, std::string_view name) {
  if (!value.is_number() || value.as_number() < 0.0) {
    throw QueryError("bad_query", util::format("query: '{}' must be a non-negative number",
                                               name));
  }
  return static_cast<std::size_t>(value.as_number());
}

[[nodiscard]] QueryRequest request_from_body(const std::string& body) {
  const std::optional<Json> parsed = parse_json(body);
  if (!parsed.has_value() || !parsed->is_object()) {
    throw QueryError("bad_query", "query: body is not a JSON object");
  }
  const Json& root = *parsed;
  const Json* kind = root.find("kind");
  if (kind == nullptr || !kind->is_string()) {
    throw QueryError("bad_query", "query: 'kind' is required");
  }
  QueryRequest request;
  if (const Json* flag = root.find("partial"); flag != nullptr) {
    request.partial = flag->is_bool() && flag->as_bool();
  }
  query::QuerySpec& spec = request.spec;
  spec.kind = query::parse_aggregate_kind(kind->as_string());
  if (const Json* filter = root.find("filter"); filter != nullptr && !filter->is_null()) {
    if (filter->is_string()) {
      spec.filter = query::parse_filter(filter->as_string());
    } else {
      spec.filter = expr_from_json_node(*filter, 0);
    }
  }
  if (const Json* k = root.find("k"); k != nullptr) spec.k = json_count(*k, "k");
  if (const Json* fractions = root.find("fractions"); fractions != nullptr) {
    if (!fractions->is_array() || fractions->as_array().size() > kMaxListItems) {
      throw QueryError("bad_query", "query: 'fractions' must be a short array");
    }
    spec.fractions.clear();
    for (const Json& value : fractions->as_array()) {
      if (!value.is_number()) {
        throw QueryError("bad_query", "query: fractions must be numbers");
      }
      spec.fractions.push_back(value.as_number());
    }
  }
  if (const Json* depths = root.find("depths"); depths != nullptr) {
    if (!depths->is_array() || depths->as_array().size() > kMaxListItems) {
      throw QueryError("bad_query", "query: 'depths' must be a short array");
    }
    spec.depths.clear();
    for (const Json& value : depths->as_array()) {
      spec.depths.push_back(json_count(value, "depths"));
    }
  }
  if (const Json* min_samples = root.find("min_samples"); min_samples != nullptr) {
    spec.min_samples = json_count(*min_samples, "min_samples");
  }
  if (const Json* points = root.find("points"); points != nullptr) {
    spec.points = json_count(*points, "points");
  }
  return request;
}

}  // namespace

query::Expr expr_from_json(const Json& node) { return expr_from_json_node(node, 0); }

QueryRequest read_query_request(const net::HttpRequest& request) {
  if (request.method == "POST") return request_from_body(request.body);
  return request_from_params(request.query());
}

query::QuerySpec parse_query_request(const net::HttpRequest& request) {
  return read_query_request(request).spec;
}

Json query_partial_json(const query::PartialAggregate& partial, market::Day day) {
  JsonObject document;
  document.emplace_back("kind", Json(query::to_string(partial.kind)));
  document.emplace_back("day", Json(static_cast<std::int64_t>(day)));
  document.emplace_back("partial", Json(true));
  document.emplace_back(
      "plan", json_object({{"index_scans", static_cast<std::uint64_t>(partial.index_scans)},
                           {"column_scans", static_cast<std::uint64_t>(partial.column_scans)},
                           {"residual_filters",
                            static_cast<std::uint64_t>(partial.residual_filters)}}));
  document.emplace_back("rows_total", Json(partial.rows_total));
  document.emplace_back("rows_selected", Json(partial.rows_selected));

  if (partial.kind == query::AggregateKind::kCategoryAffinity) {
    JsonArray random_walk;
    random_walk.reserve(partial.random_walk.size());
    for (const double value : partial.random_walk) random_walk.emplace_back(value);
    document.emplace_back("random_walk", Json(std::move(random_walk)));
    JsonArray samples;
    samples.reserve(partial.samples.size());
    for (const query::AffinityUserSample& sample : partial.samples) {
      JsonArray row;
      row.reserve(2 + sample.values.size());
      row.emplace_back(static_cast<std::uint64_t>(sample.user));
      row.emplace_back(sample.comments);
      for (const double value : sample.values) row.emplace_back(value);
      samples.emplace_back(std::move(row));
    }
    document.emplace_back("samples", Json(std::move(samples)));
  } else {
    document.emplace_back("app_count", Json(partial.app_count));
    JsonArray counts;
    counts.reserve(partial.counts.size());
    for (const auto& [app, downloads] : partial.counts) {
      JsonArray pair;
      pair.reserve(2);
      pair.emplace_back(static_cast<std::uint64_t>(app));
      pair.emplace_back(downloads);
      counts.emplace_back(std::move(pair));
    }
    document.emplace_back("counts", Json(std::move(counts)));
  }
  return Json(std::move(document));
}

query::PartialAggregate partial_from_json(const Json& document) {
  const auto fail = [](std::string_view what) -> query::PartialAggregate {
    throw QueryError("bad_partial", util::format("partial: {}", what));
  };
  if (!document.is_object()) return fail("not a JSON object");
  const Json* kind = document.find("kind");
  const Json* flag = document.find("partial");
  if (kind == nullptr || !kind->is_string()) return fail("missing 'kind'");
  if (flag == nullptr || !flag->is_bool() || !flag->as_bool()) {
    return fail("missing 'partial: true' marker");
  }
  query::PartialAggregate partial;
  partial.kind = query::parse_aggregate_kind(kind->as_string());
  if (const Json* plan = document.find("plan"); plan != nullptr && plan->is_object()) {
    const auto plan_count = [&](std::string_view name) -> std::uint32_t {
      const Json* value = plan->find(name);
      return value != nullptr && value->is_number()
                 ? static_cast<std::uint32_t>(value->as_number())
                 : 0;
    };
    partial.index_scans = plan_count("index_scans");
    partial.column_scans = plan_count("column_scans");
    partial.residual_filters = plan_count("residual_filters");
  }
  const auto u64_member = [&](std::string_view name) -> std::uint64_t {
    const Json* value = document.find(name);
    return value != nullptr && value->is_number() ? value->as_u64() : 0;
  };
  partial.rows_total = u64_member("rows_total");
  partial.rows_selected = u64_member("rows_selected");

  if (partial.kind == query::AggregateKind::kCategoryAffinity) {
    if (const Json* walk = document.find("random_walk"); walk != nullptr) {
      if (!walk->is_array()) return fail("'random_walk' must be an array");
      for (const Json& value : walk->as_array()) {
        if (!value.is_number()) return fail("random_walk entries must be numbers");
        partial.random_walk.push_back(value.as_number());
      }
    }
    const Json* samples = document.find("samples");
    if (samples == nullptr || !samples->is_array()) return fail("missing 'samples' array");
    for (const Json& row : samples->as_array()) {
      if (!row.is_array() || row.as_array().size() < 2) {
        return fail("sample rows need [user, comments, values...]");
      }
      const JsonArray& fields = row.as_array();
      if (!fields[0].is_number() || !fields[1].is_number()) {
        return fail("sample user/comments must be numbers");
      }
      query::AffinityUserSample sample;
      sample.user = static_cast<std::uint32_t>(fields[0].as_u64());
      sample.comments = fields[1].as_u64();
      for (std::size_t i = 2; i < fields.size(); ++i) {
        if (fields[i].is_null()) {
          sample.values.push_back(std::numeric_limits<double>::quiet_NaN());
        } else if (fields[i].is_number()) {
          sample.values.push_back(fields[i].as_number());
        } else {
          return fail("sample values must be numbers or null");
        }
      }
      partial.samples.push_back(std::move(sample));
    }
  } else {
    partial.app_count = u64_member("app_count");
    const Json* counts = document.find("counts");
    if (counts == nullptr || !counts->is_array()) return fail("missing 'counts' array");
    for (const Json& pair : counts->as_array()) {
      if (!pair.is_array() || pair.as_array().size() != 2 ||
          !pair.as_array()[0].is_number() || !pair.as_array()[1].is_number()) {
        return fail("count entries must be [app, count] pairs");
      }
      partial.counts.emplace_back(static_cast<std::uint32_t>(pair.as_array()[0].as_u64()),
                                  pair.as_array()[1].as_u64());
    }
  }
  return partial;
}

Json query_result_json(const query::QueryResult& result, market::Day day) {
  JsonObject document;
  document.emplace_back("kind", Json(query::to_string(result.kind)));
  document.emplace_back("day", Json(static_cast<std::int64_t>(day)));
  document.emplace_back(
      "plan", json_object({{"index_scans", static_cast<std::uint64_t>(result.index_scans)},
                           {"column_scans", static_cast<std::uint64_t>(result.column_scans)},
                           {"residual_filters",
                            static_cast<std::uint64_t>(result.residual_filters)}}));
  document.emplace_back("rows_total", Json(result.rows_total));
  document.emplace_back("rows_selected", Json(result.rows_selected));

  switch (result.kind) {
    case query::AggregateKind::kTopKDownloads: {
      document.emplace_back("total_downloads", Json(result.total_downloads));
      JsonArray top;
      for (const query::TopKEntry& entry : result.top) {
        top.push_back(json_object({{"app", static_cast<std::uint64_t>(entry.app)},
                                   {"downloads", entry.downloads}}));
      }
      document.emplace_back("top", Json(std::move(top)));
      break;
    }
    case query::AggregateKind::kParetoShare: {
      document.emplace_back("total_downloads", Json(result.total_downloads));
      JsonArray pareto;
      for (const query::ParetoPoint& point : result.pareto) {
        pareto.push_back(json_object({{"fraction", point.fraction}, {"share", point.share}}));
      }
      document.emplace_back("pareto", Json(std::move(pareto)));
      break;
    }
    case query::AggregateKind::kCategoryAffinity: {
      JsonArray affinity;
      for (const query::AffinityDepthPoint& point : result.affinity) {
        affinity.push_back(
            json_object({{"depth", static_cast<std::uint64_t>(point.depth)},
                         {"mean", point.mean},
                         {"random_walk", point.random_walk},
                         {"groups", static_cast<std::uint64_t>(point.groups)},
                         {"samples", static_cast<std::uint64_t>(point.samples)}}));
      }
      document.emplace_back("affinity", Json(std::move(affinity)));
      break;
    }
    case query::AggregateKind::kRankDownloadCurve: {
      document.emplace_back("total_downloads", Json(result.total_downloads));
      JsonArray curve;
      for (const query::CurvePoint& point : result.curve) {
        curve.push_back(json_object({{"rank", point.rank}, {"downloads", point.downloads}}));
      }
      document.emplace_back("curve", Json(std::move(curve)));
      break;
    }
  }
  return Json(std::move(document));
}

}  // namespace appstore::crawlersim
