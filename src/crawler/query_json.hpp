// Wire forms of the query engine: request parsing and response rendering.
//
// /api/v1/query accepts the same query in two shapes:
//
//   GET  ?kind=top_k_downloads&k=10&filter=user==42+and+day<=60
//        (filter in the text grammar of query/expression.hpp; '+' reads as
//        whitespace so the filter survives a URL query string untouched;
//        list parameters are comma-separated: fractions=0.01,0.1)
//
//   POST {"kind": "...", "filter": ..., "k": ..., "fractions": [...],
//         "depths": [...], "min_samples": ..., "points": ...}
//        where "filter" is either the text grammar as a JSON string or a
//        structured tree of {"field","op","value"} leaves nested under
//        {"and": [...]} / {"or": [...]} nodes.
//
// Both parsers produce the same validated query::QuerySpec; every defect
// throws query::QueryError (the service maps it to a 400 envelope, never a
// crash). Rendering is the inverse: one JSON document per QueryResult with
// the plan statistics and the kind-specific payload. See docs/query.md.
#pragma once

#include "crawler/json.hpp"
#include "market/types.hpp"
#include "net/http.hpp"
#include "query/engine.hpp"

namespace appstore::crawlersim {

/// A parsed /api/v1/query request.
struct QueryRequest {
  query::QuerySpec spec;
  /// True when the request asks for the mergeable partial form instead of
  /// the finalized answer: GET ?partial=1 (or =true), or a `"partial": true`
  /// member in the POST body. The flag lives in the query string / body —
  /// not a header — so the per-day response cache (keyed on target + body)
  /// keeps partial and finalized answers distinct.
  bool partial = false;
};

/// Parses a /api/v1/query request (GET query-string or POST JSON body, one
/// parse either way) into its spec and partial flag. Throws
/// query::QueryError("bad_query" / "bad_filter") on any malformed input.
[[nodiscard]] QueryRequest read_query_request(const net::HttpRequest& request);

/// read_query_request(request).spec, for callers that ignore the flag.
[[nodiscard]] query::QuerySpec parse_query_request(const net::HttpRequest& request);

/// Structured JSON filter -> expression AST (exposed for tests).
[[nodiscard]] query::Expr expr_from_json(const Json& node);

/// Renders one engine result as the response document.
[[nodiscard]] Json query_result_json(const query::QueryResult& result, market::Day day);

/// Renders a shard's partial aggregate. Counts are [app, count] pairs and
/// affinity samples are [user, comments, value-per-depth...] rows (NaN as
/// null); doubles use %.17g so the fragment round-trips bit-exactly.
[[nodiscard]] Json query_partial_json(const query::PartialAggregate& partial,
                                      market::Day day);

/// Parses a shard's partial-aggregate response body back into the typed
/// form. Throws query::QueryError("bad_partial") on any malformed document.
[[nodiscard]] query::PartialAggregate partial_from_json(const Json& document);

}  // namespace appstore::crawlersim
