// query/src/parser.cpp — hand-written recursive-descent parser for the
// Cypher-like pattern language (grammar in query/ast.hpp).
//
// The tokenizer is a cursor over the source string: keywords match
// case-insensitively on word boundaries, symbols match literally after
// skipping whitespace. Edge arrows are single tokens ('-[]->', '<-[]-',
// '-[]-') — internal whitespace is not allowed, whitespace around them is.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "lagraph/status.hpp"
#include "query/ast.hpp"

namespace lagraph {
namespace query {

namespace {

struct Cursor {
  const std::string &s;
  std::size_t p = 0;

  void ws() {
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
  }

  [[nodiscard]] bool eof() {
    ws();
    return p >= s.size();
  }

  /// Exact symbol match (after leading whitespace).
  bool lit(const char *t) {
    ws();
    const std::size_t n = std::strlen(t);
    if (s.compare(p, n, t) == 0) {
      p += n;
      return true;
    }
    return false;
  }

  /// Case-insensitive keyword match with a word boundary after it.
  bool kw(const char *t) {
    ws();
    const std::size_t n = std::strlen(t);
    if (p + n > s.size()) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::toupper(static_cast<unsigned char>(s[p + i])) != t[i]) {
        return false;
      }
    }
    if (p + n < s.size()) {
      const unsigned char next = static_cast<unsigned char>(s[p + n]);
      if (std::isalnum(next) || next == '_') return false;
    }
    p += n;
    return true;
  }

  bool ident(std::string *out) {
    ws();
    if (p >= s.size()) return false;
    const unsigned char c0 = static_cast<unsigned char>(s[p]);
    if (!std::isalpha(c0) && c0 != '_') return false;
    std::size_t q = p;
    while (q < s.size()) {
      const unsigned char c = static_cast<unsigned char>(s[q]);
      if (!std::isalnum(c) && c != '_') break;
      ++q;
    }
    out->assign(s, p, q - p);
    p = q;
    return true;
  }

  /// A non-negative decimal that fits int64_t. A longer one fails at the
  /// digit that would overflow, before it is multiplied in.
  bool integer(std::int64_t *out) {
    ws();
    if (p >= s.size() || !std::isdigit(static_cast<unsigned char>(s[p]))) {
      return false;
    }
    std::int64_t v = 0;
    while (p < s.size() && std::isdigit(static_cast<unsigned char>(s[p]))) {
      const int d = s[p] - '0';
      if (v > (std::numeric_limits<std::int64_t>::max() - d) / 10) {
        return false;
      }
      v = v * 10 + d;
      ++p;
    }
    *out = v;
    return true;
  }
};

int fail(char *msg, const Cursor &c, const char *what) {
  if (msg != nullptr) {
    std::snprintf(msg, LAGRAPH_MSG_LEN, "query parse error at offset %zu: %s",
                  c.p, what);
  }
  return LAGRAPH_INVALID_VALUE;
}

/// Variable reference inside MATCH: registers unseen names.
int match_var(Query *q, const std::string &name) {
  const int idx = q->find_var(name);
  if (idx >= 0) return idx;
  q->vars.push_back(name);
  return static_cast<int>(q->vars.size()) - 1;
}

/// '(' ident ')' — one node of a pattern chain.
int parse_node(Query *q, Cursor &c, char *msg, int *out) {
  if (!c.lit("(")) return fail(msg, c, "expected '(' starting a node");
  std::string name;
  if (!c.ident(&name)) return fail(msg, c, "expected a variable name");
  if (!c.lit(")")) return fail(msg, c, "expected ')' closing a node");
  *out = match_var(q, name);
  return LAGRAPH_OK;
}

/// node (edge node)* — one comma-separated pattern.
int parse_pattern(Query *q, Cursor &c, char *msg) {
  int cur = -1;
  int rc = parse_node(q, c, msg, &cur);
  if (rc != LAGRAPH_OK) return rc;
  for (;;) {
    EdgeDir dir;
    bool swap = false;
    // Order matters: '-[]->' and '<-[]-' before the bare '-[]-'.
    if (c.lit("-[]->")) {
      dir = EdgeDir::out;
    } else if (c.lit("<-[]-")) {
      dir = EdgeDir::out;
      swap = true;  // normalize to a forward edge with flipped endpoints
    } else if (c.lit("-[]-")) {
      dir = EdgeDir::both;
    } else {
      return LAGRAPH_OK;
    }
    int next = -1;
    rc = parse_node(q, c, msg, &next);
    if (rc != LAGRAPH_OK) return rc;
    EdgeConstraint e;
    e.src = swap ? next : cur;
    e.dst = swap ? cur : next;
    e.dir = dir;
    q->edges.push_back(e);
    cur = next;
  }
}

/// Variable reference outside MATCH: must already be bound by a pattern.
int bound_var(const Query &q, Cursor &c, char *msg, int *out) {
  std::string name;
  if (!c.ident(&name)) return fail(msg, c, "expected a variable name");
  const int idx = q.find_var(name);
  if (idx < 0) return fail(msg, c, "unknown variable (not bound by MATCH)");
  *out = idx;
  return LAGRAPH_OK;
}

bool parse_cmp(Cursor &c, CmpOp *out) {
  if (c.lit(">=")) {
    *out = CmpOp::ge;
  } else if (c.lit("<=")) {
    *out = CmpOp::le;
  } else if (c.lit(">")) {
    *out = CmpOp::gt;
  } else if (c.lit("<")) {
    *out = CmpOp::lt;
  } else if (c.lit("=")) {
    *out = CmpOp::eq;
  } else {
    return false;
  }
  return true;
}

/// One WHERE predicate: pin, inequality, or degree constraint.
int parse_predicate(Query *q, Cursor &c, char *msg) {
  int var = -1;
  int rc = bound_var(*q, c, msg, &var);
  if (rc != LAGRAPH_OK) return rc;
  if (c.lit(".")) {
    DegreeConstraint d;
    d.var = var;
    if (c.kw("OUT")) {
      d.out_degree = true;
    } else if (c.kw("IN")) {
      d.out_degree = false;
    } else {
      return fail(msg, c, "expected 'out' or 'in' after '.'");
    }
    if (!parse_cmp(c, &d.cmp)) {
      return fail(msg, c, "expected a comparison (>=, <=, >, <, =)");
    }
    if (!c.integer(&d.bound)) {
      return fail(msg, c, "expected a degree bound");
    }
    q->degs.push_back(d);
    return LAGRAPH_OK;
  }
  if (c.lit("<>")) {
    NeqConstraint ne;
    ne.a = var;
    rc = bound_var(*q, c, msg, &ne.b);
    if (rc != LAGRAPH_OK) return rc;
    q->neqs.push_back(ne);
    return LAGRAPH_OK;
  }
  if (c.lit("=")) {
    PinConstraint pin;
    pin.var = var;
    if (!c.integer(&pin.node)) return fail(msg, c, "expected a node id");
    q->pins.push_back(pin);
    return LAGRAPH_OK;
  }
  return fail(msg, c, "expected '=', '<>', or '.' in predicate");
}

}  // namespace

const char *cmp_name(CmpOp op) {
  switch (op) {
    case CmpOp::ge: return ">=";
    case CmpOp::le: return "<=";
    case CmpOp::gt: return ">";
    case CmpOp::lt: return "<";
    case CmpOp::eq: return "=";
  }
  return "?";
}

int parse(Query *out, const std::string &text, char *msg) {
  detail::clear_msg(msg);
  if (out == nullptr) {
    return detail::set_msg(msg, LAGRAPH_NULL_POINTER, "parse: out is null");
  }
  *out = Query{};
  out->text = text;
  Cursor c{text};

  if (!c.kw("MATCH")) return fail(msg, c, "expected MATCH");
  int rc = parse_pattern(out, c, msg);
  if (rc != LAGRAPH_OK) return rc;
  while (c.lit(",")) {
    rc = parse_pattern(out, c, msg);
    if (rc != LAGRAPH_OK) return rc;
  }

  if (c.kw("WHERE")) {
    do {
      rc = parse_predicate(out, c, msg);
      if (rc != LAGRAPH_OK) return rc;
    } while (c.kw("AND"));
  }

  if (!c.kw("RETURN")) return fail(msg, c, "expected RETURN");
  if (c.kw("COUNT")) {
    if (!c.lit("(") || !c.lit("*") || !c.lit(")")) {
      return fail(msg, c, "expected COUNT(*)");
    }
    out->count_only = true;
  } else {
    do {
      int var = -1;
      rc = bound_var(*out, c, msg, &var);
      if (rc != LAGRAPH_OK) return rc;
      out->returns.push_back(var);
    } while (c.lit(","));
  }

  if (c.kw("LIMIT")) {
    if (!c.integer(&out->limit)) {
      return fail(msg, c, "expected a LIMIT count");
    }
  }

  if (!c.eof()) return fail(msg, c, "trailing input after query");
  return LAGRAPH_OK;
}

}  // namespace query
}  // namespace lagraph
