#include "parser/parser.h"

#include <algorithm>

#include "util/str_util.h"

namespace relopt {

namespace {

/// Recursive-descent parser over a token stream.
class Parser {
 public:
  Parser(std::string sql, std::vector<Token> tokens)
      : sql_(std::move(sql)), tokens_(std::move(tokens)) {}

  Result<std::vector<StatementPtr>> ParseAll() {
    std::vector<StatementPtr> stmts;
    while (!Peek().Is(TokenKind::kEnd)) {
      if (Peek().IsSymbol(";")) {
        Advance();
        continue;
      }
      size_t start = Peek().position;
      RELOPT_ASSIGN_OR_RETURN(StatementPtr stmt, ParseOne());
      // The statement's source text runs to the next token (";" or end).
      stmt->text = std::string(
          Trim(std::string_view(sql_).substr(start, Peek().position - start)));
      stmts.push_back(std::move(stmt));
    }
    return stmts;
  }

  Result<StatementPtr> ParseOne() {
    param_count_ = 0;
    RELOPT_ASSIGN_OR_RETURN(StatementPtr stmt, ParseOneDispatch());
    stmt->num_parameters = param_count_;
    return stmt;
  }

  Result<StatementPtr> ParseOneDispatch() {
    const Token& t = Peek();
    if (t.IsWord("create")) return ParseCreate();
    if (t.IsWord("drop")) return ParseDrop();
    if (t.IsWord("insert")) return ParseInsert();
    if (t.IsWord("select")) return ParseSelect();
    if (t.IsWord("explain")) return ParseExplain();
    if (t.IsWord("analyze")) return ParseAnalyze();
    if (t.IsWord("delete")) return ParseDelete();
    if (t.IsWord("update")) return ParseUpdate();
    return Error("expected a statement, got '" + t.text + "'");
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool MatchWord(const char* word) {
    if (Peek().IsWord(word)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchSymbol(const char* sym) {
    if (Peek().IsSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectWord(const char* word) {
    if (!MatchWord(word)) {
      return Status::ParseError(std::string("expected '") + word + "', got '" + Peek().text +
                                "' at offset " + std::to_string(Peek().position));
    }
    return Status::OK();
  }
  Status ExpectSymbol(const char* sym) {
    if (!MatchSymbol(sym)) {
      return Status::ParseError(std::string("expected '") + sym + "', got '" + Peek().text +
                                "' at offset " + std::to_string(Peek().position));
    }
    return Status::OK();
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(Peek().position));
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (!Peek().Is(TokenKind::kIdentifier)) {
      return Status::ParseError(std::string("expected ") + what + ", got '" + Peek().text +
                                "' at offset " + std::to_string(Peek().position));
    }
    return Advance().text;
  }

  /// True for identifiers that are reserved as clause keywords and therefore
  /// cannot start/continue an alias.
  static bool IsReservedWord(const Token& t) {
    static const char* kReserved[] = {"select", "from",  "where", "group", "having", "order",
                                      "limit",  "join",  "on",    "and",   "or",     "not",
                                      "as",     "inner", "by",    "asc",   "desc",   "values",
                                      "union",  "cross", "case",  "when",  "then",   "else",
                                      "end"};
    for (const char* w : kReserved) {
      if (t.IsWord(w)) return true;
    }
    return false;
  }

  // ------------------------------------------------------------ statements

  Result<StatementPtr> ParseCreate() {
    RELOPT_RETURN_NOT_OK(ExpectWord("create"));
    bool clustered = MatchWord("clustered");
    if (MatchWord("table")) {
      if (clustered) return Error("CLUSTERED applies to indexes, not tables");
      auto stmt = std::make_unique<CreateTableStmt>();
      RELOPT_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
      RELOPT_RETURN_NOT_OK(ExpectSymbol("("));
      do {
        ColumnDef def;
        RELOPT_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("column name"));
        RELOPT_ASSIGN_OR_RETURN(std::string type_name, ExpectIdentifier("column type"));
        if (!ParseTypeName(type_name, &def.type)) {
          return Error("unknown type '" + type_name + "'");
        }
        stmt->columns.push_back(std::move(def));
      } while (MatchSymbol(","));
      RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      return StatementPtr(std::move(stmt));
    }
    if (MatchWord("index")) {
      auto stmt = std::make_unique<CreateIndexStmt>();
      stmt->clustered = clustered;
      RELOPT_ASSIGN_OR_RETURN(stmt->index_name, ExpectIdentifier("index name"));
      RELOPT_RETURN_NOT_OK(ExpectWord("on"));
      RELOPT_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
      RELOPT_RETURN_NOT_OK(ExpectSymbol("("));
      do {
        RELOPT_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (MatchSymbol(","));
      RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      return StatementPtr(std::move(stmt));
    }
    return Error("expected TABLE or INDEX after CREATE");
  }

  Result<StatementPtr> ParseDrop() {
    RELOPT_RETURN_NOT_OK(ExpectWord("drop"));
    RELOPT_RETURN_NOT_OK(ExpectWord("table"));
    auto stmt = std::make_unique<DropTableStmt>();
    if (Peek().IsWord("if") && Peek(1).IsWord("exists")) {
      Advance();
      Advance();
      stmt->if_exists = true;
    }
    RELOPT_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseInsert() {
    RELOPT_RETURN_NOT_OK(ExpectWord("insert"));
    RELOPT_RETURN_NOT_OK(ExpectWord("into"));
    auto stmt = std::make_unique<InsertStmt>();
    RELOPT_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    if (MatchSymbol("(")) {
      do {
        RELOPT_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
      } while (MatchSymbol(","));
      RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
    }
    RELOPT_RETURN_NOT_OK(ExpectWord("values"));
    do {
      RELOPT_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      do {
        RELOPT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
        row.push_back(std::move(e));
      } while (MatchSymbol(","));
      RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
    } while (MatchSymbol(","));
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseExplain() {
    RELOPT_RETURN_NOT_OK(ExpectWord("explain"));
    auto stmt = std::make_unique<ExplainStmt>();
    stmt->analyze = MatchWord("analyze");
    stmt->trace = MatchWord("trace");
    RELOPT_ASSIGN_OR_RETURN(stmt->inner, ParseSelect());
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseAnalyze() {
    RELOPT_RETURN_NOT_OK(ExpectWord("analyze"));
    auto stmt = std::make_unique<AnalyzeStmt>();
    if (Peek().Is(TokenKind::kIdentifier)) {
      stmt->table_name = Advance().text;
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDelete() {
    RELOPT_RETURN_NOT_OK(ExpectWord("delete"));
    RELOPT_RETURN_NOT_OK(ExpectWord("from"));
    auto stmt = std::make_unique<DeleteStmt>();
    RELOPT_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    if (MatchWord("where")) {
      RELOPT_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseUpdate() {
    RELOPT_RETURN_NOT_OK(ExpectWord("update"));
    auto stmt = std::make_unique<UpdateStmt>();
    RELOPT_ASSIGN_OR_RETURN(stmt->table_name, ExpectIdentifier("table name"));
    RELOPT_RETURN_NOT_OK(ExpectWord("set"));
    do {
      RELOPT_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      RELOPT_RETURN_NOT_OK(ExpectSymbol("="));
      RELOPT_ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
      stmt->assignments.emplace_back(std::move(col), std::move(value));
    } while (MatchSymbol(","));
    if (MatchWord("where")) {
      RELOPT_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseSelect() {
    RELOPT_RETURN_NOT_OK(ExpectWord("select"));
    auto stmt = std::make_unique<SelectStmt>();
    if (MatchWord("distinct")) {
      stmt->distinct = true;
    } else {
      MatchWord("all");
    }

    // Select list.
    do {
      SelectItem item;
      if (Peek().IsSymbol("*")) {
        Advance();
        item.is_star = true;
      } else {
        RELOPT_ASSIGN_OR_RETURN(item.expr, ParseExpression());
        if (MatchWord("as")) {
          RELOPT_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        } else if (Peek().Is(TokenKind::kIdentifier) && !IsReservedWord(Peek())) {
          item.alias = Advance().text;
        }
      }
      stmt->items.push_back(std::move(item));
    } while (MatchSymbol(","));

    // FROM with comma and JOIN ... ON forms.
    std::vector<ExprPtr> join_conds;
    if (MatchWord("from")) {
      RELOPT_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
      stmt->from.push_back(std::move(first));
      while (true) {
        if (MatchSymbol(",")) {
          RELOPT_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
          stmt->from.push_back(std::move(ref));
          continue;
        }
        bool cross = false;
        if (Peek().IsWord("cross") && Peek(1).IsWord("join")) {
          Advance();
          Advance();
          cross = true;
        } else if (Peek().IsWord("inner") && Peek(1).IsWord("join")) {
          Advance();
          Advance();
        } else if (Peek().IsWord("join")) {
          Advance();
        } else {
          break;
        }
        RELOPT_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        if (!cross) {
          RELOPT_RETURN_NOT_OK(ExpectWord("on"));
          RELOPT_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpression());
          join_conds.push_back(std::move(cond));
        }
      }
    }

    if (MatchWord("where")) {
      RELOPT_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    // Fold ON conditions into WHERE (inner-join semantics).
    for (ExprPtr& cond : join_conds) {
      stmt->where = stmt->where ? MakeAnd(std::move(stmt->where), std::move(cond))
                                : std::move(cond);
    }

    if (MatchWord("group")) {
      RELOPT_RETURN_NOT_OK(ExpectWord("by"));
      do {
        RELOPT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
        stmt->group_by.push_back(std::move(e));
      } while (MatchSymbol(","));
    }
    if (MatchWord("having")) {
      RELOPT_ASSIGN_OR_RETURN(stmt->having, ParseExpression());
    }
    if (MatchWord("order")) {
      RELOPT_RETURN_NOT_OK(ExpectWord("by"));
      do {
        OrderByItem item;
        RELOPT_ASSIGN_OR_RETURN(item.expr, ParseExpression());
        if (MatchWord("desc")) {
          item.desc = true;
        } else {
          MatchWord("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (MatchSymbol(","));
    }
    if (MatchWord("limit")) {
      if (!Peek().Is(TokenKind::kIntLiteral)) return Error("expected integer after LIMIT");
      stmt->limit = Advance().int_value;
    }
    return StatementPtr(std::move(stmt));
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    RELOPT_ASSIGN_OR_RETURN(ref.table_name, ExpectIdentifier("table name"));
    if (MatchSymbol("(")) {
      // Table function: `name()` — introspection functions take no arguments.
      if (!MatchSymbol(")")) return Error("table functions take no arguments; expected ')'");
      ref.is_function = true;
    }
    if (MatchWord("as")) {
      RELOPT_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("alias"));
    } else if (Peek().Is(TokenKind::kIdentifier) && !IsReservedWord(Peek())) {
      ref.alias = Advance().text;
    }
    if (ref.alias.empty()) ref.alias = ref.table_name;
    return ref;
  }

  // ----------------------------------------------------------- expressions
  //
  // Depth limit (kMaxExpressionDepth): Nested() guards each recursive
  // descent, and every expression parse function leaves the height of the
  // tree it returns in height_, which Grow() raises and checks.

  Status DepthError() const {
    return Error("expression nests deeper than " + std::to_string(kMaxExpressionDepth) +
                 " levels");
  }

  /// Runs `parse` one nesting level deeper; fails past the limit.
  Result<ExprPtr> Nested(Result<ExprPtr> (Parser::*parse)()) {
    if (depth_ >= kMaxExpressionDepth) return DepthError();
    ++depth_;
    Result<ExprPtr> e = (this->*parse)();
    --depth_;
    return e;
  }

  /// `*h` becomes the height of a node over subtrees of heights `*h` and
  /// `child`; fails past the limit.
  Status Grow(int* h, int child) const {
    *h = std::max(*h, child) + 1;
    return *h > kMaxExpressionDepth ? DepthError() : Status::OK();
  }

  Result<ExprPtr> ParseExpression() { return Nested(&Parser::ParseOr); }

  Result<ExprPtr> ParseOr() {
    RELOPT_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    int h = height_;
    while (MatchWord("or")) {
      RELOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      RELOPT_RETURN_NOT_OK(Grow(&h, height_));
      left = MakeOr(std::move(left), std::move(right));
    }
    height_ = h;
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    RELOPT_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    int h = height_;
    while (Peek().IsWord("and")) {
      Advance();
      RELOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      RELOPT_RETURN_NOT_OK(Grow(&h, height_));
      left = MakeAnd(std::move(left), std::move(right));
    }
    height_ = h;
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (MatchWord("not")) {
      RELOPT_ASSIGN_OR_RETURN(ExprPtr child, Nested(&Parser::ParseNot));
      RELOPT_RETURN_NOT_OK(Grow(&height_, 0));
      return MakeNot(std::move(child));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    RELOPT_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    const int left_height = height_;

    // IS [NOT] NULL
    if (Peek().IsWord("is")) {
      Advance();
      bool negated = MatchWord("not");
      RELOPT_RETURN_NOT_OK(ExpectWord("null"));
      RELOPT_RETURN_NOT_OK(Grow(&height_, 0));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(left), negated));
    }

    // [NOT] BETWEEN a AND b / [NOT] IN (v, ...)
    bool negate = false;
    if (Peek().IsWord("not") && (Peek(1).IsWord("between") || Peek(1).IsWord("in"))) {
      Advance();
      negate = true;
    }
    if (MatchWord("between")) return ParseBetween(std::move(left), left_height, negate);
    if (MatchWord("in")) return ParseInList(std::move(left), left_height, negate);

    // Plain comparison operators.
    CompareOp op;
    if (MatchSymbol("=")) {
      op = CompareOp::kEq;
    } else if (MatchSymbol("<>")) {
      op = CompareOp::kNe;
    } else if (MatchSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (MatchSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (MatchSymbol("<")) {
      op = CompareOp::kLt;
    } else if (MatchSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return left;
    }
    RELOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    int h = left_height;
    RELOPT_RETURN_NOT_OK(Grow(&h, height_));
    height_ = h;
    return MakeComparison(op, std::move(left), std::move(right));
  }

  /// `left [NOT] BETWEEN lo AND hi` after BETWEEN, desugared to a range.
  [[gnu::noinline]] Result<ExprPtr> ParseBetween(ExprPtr left, int left_height, bool negate) {
    RELOPT_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    int h = std::max(left_height, height_);
    RELOPT_RETURN_NOT_OK(ExpectWord("and"));
    RELOPT_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    RELOPT_RETURN_NOT_OK(Grow(&h, height_));  // the two comparisons
    RELOPT_RETURN_NOT_OK(Grow(&h, 0));        // their AND
    if (negate) RELOPT_RETURN_NOT_OK(Grow(&h, 0));
    height_ = h;
    ExprPtr ge = MakeComparison(CompareOp::kGe, left->Clone(), std::move(lo));
    ExprPtr le = MakeComparison(CompareOp::kLe, std::move(left), std::move(hi));
    ExprPtr both = MakeAnd(std::move(ge), std::move(le));
    return negate ? MakeNot(std::move(both)) : std::move(both);
  }

  /// `left [NOT] IN (v, ...)` after IN, desugared to an OR of equalities.
  [[gnu::noinline]] Result<ExprPtr> ParseInList(ExprPtr left, int left_height, bool negate) {
    RELOPT_RETURN_NOT_OK(ExpectSymbol("("));
    ExprPtr disjunction;
    int h = 0;
    do {
      RELOPT_ASSIGN_OR_RETURN(ExprPtr v, ParseAdditive());
      int eq_height = left_height;
      RELOPT_RETURN_NOT_OK(Grow(&eq_height, height_));
      if (disjunction) {
        RELOPT_RETURN_NOT_OK(Grow(&h, eq_height));
      } else {
        h = eq_height;
      }
      ExprPtr eq = MakeComparison(CompareOp::kEq, left->Clone(), std::move(v));
      disjunction = disjunction ? MakeOr(std::move(disjunction), std::move(eq)) : std::move(eq);
    } while (MatchSymbol(","));
    RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
    if (negate) RELOPT_RETURN_NOT_OK(Grow(&h, 0));
    height_ = h;
    return negate ? MakeNot(std::move(disjunction)) : std::move(disjunction);
  }

  Result<ExprPtr> ParseAdditive() {
    RELOPT_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    int h = height_;
    while (true) {
      ArithOp op;
      if (MatchSymbol("+")) {
        op = ArithOp::kAdd;
      } else if (MatchSymbol("-")) {
        op = ArithOp::kSub;
      } else {
        height_ = h;
        return left;
      }
      RELOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      RELOPT_RETURN_NOT_OK(Grow(&h, height_));
      left = std::make_unique<ArithmeticExpr>(op, std::move(left), std::move(right));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    RELOPT_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    int h = height_;
    while (true) {
      ArithOp op;
      if (MatchSymbol("*")) {
        op = ArithOp::kMul;
      } else if (MatchSymbol("/")) {
        op = ArithOp::kDiv;
      } else if (MatchSymbol("%")) {
        op = ArithOp::kMod;
      } else {
        height_ = h;
        return left;
      }
      RELOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      RELOPT_RETURN_NOT_OK(Grow(&h, height_));
      left = std::make_unique<ArithmeticExpr>(op, std::move(left), std::move(right));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (MatchSymbol("-")) {
      RELOPT_ASSIGN_OR_RETURN(ExprPtr child, Nested(&Parser::ParseUnary));
      // Fold -literal immediately so negative literals are simple.
      if (child->kind() == ExprKind::kLiteral) {
        const Value& v = static_cast<LiteralExpr*>(child.get())->value();
        if (!v.is_null() && v.type() == TypeId::kInt64) return MakeLiteral(Value::Int(-v.AsInt()));
        if (!v.is_null() && v.type() == TypeId::kDouble) {
          return MakeLiteral(Value::Double(-v.AsDouble()));
        }
      }
      RELOPT_RETURN_NOT_OK(Grow(&height_, 0));
      return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kSub,
                                                      MakeLiteral(Value::Int(0)),
                                                      std::move(child)));
    }
    return ParsePrimary();
  }

  /// Leaves height_ at the height of what it returns: 1 for a leaf, the
  /// inner height for a parenthesized expression, one above the tallest
  /// argument or arm for calls and CASE.
  Result<ExprPtr> ParsePrimary() {
    height_ = 1;
    const Token& t = Peek();
    if (t.Is(TokenKind::kIntLiteral)) {
      Advance();
      return MakeLiteral(Value::Int(t.int_value));
    }
    if (t.Is(TokenKind::kDoubleLiteral)) {
      Advance();
      return MakeLiteral(Value::Double(t.double_value));
    }
    if (t.Is(TokenKind::kStringLiteral)) {
      Advance();
      return MakeLiteral(Value::String(t.text));
    }
    if (t.IsSymbol("?")) {
      // Positional prepared-statement parameter, numbered in source order.
      Advance();
      return ExprPtr(std::make_unique<ParameterExpr>(param_count_++));
    }
    if (t.IsSymbol("(")) {
      Advance();
      RELOPT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
      RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }
    if (t.Is(TokenKind::kIdentifier)) return ParseIdentifierExpr();
    return Error("expected an expression, got '" + t.text + "'");
  }

  /// Keywords, calls and column references. Kept out of ParsePrimary, like
  /// CASE, BETWEEN and IN, so deeply nested parentheses recurse through
  /// small stack frames.
  [[gnu::noinline]] Result<ExprPtr> ParseIdentifierExpr() {
    const Token& t = Peek();
    if (t.IsWord("null")) {
      Advance();
      return MakeLiteral(Value::Null());
    }
    if (t.IsWord("true")) {
      Advance();
      return MakeLiteral(Value::Bool(true));
    }
    if (t.IsWord("false")) {
      Advance();
      return MakeLiteral(Value::Bool(false));
    }
    if (t.IsWord("case")) {
      Advance();
      return ParseCase();
    }
    // Aggregate call?
    std::optional<AggFunc> agg;
    if (t.IsWord("count")) agg = AggFunc::kCount;
    if (t.IsWord("sum")) agg = AggFunc::kSum;
    if (t.IsWord("min")) agg = AggFunc::kMin;
    if (t.IsWord("max")) agg = AggFunc::kMax;
    if (t.IsWord("avg")) agg = AggFunc::kAvg;
    if (agg.has_value() && Peek(1).IsSymbol("(")) {
      Advance();  // name
      Advance();  // (
      if (*agg == AggFunc::kCount && MatchSymbol("*")) {
        RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
        return ExprPtr(std::make_unique<AggregateCallExpr>(AggFunc::kCountStar, nullptr));
      }
      RELOPT_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpression());
      RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
      RELOPT_RETURN_NOT_OK(Grow(&height_, 0));
      return ExprPtr(std::make_unique<AggregateCallExpr>(*agg, std::move(arg)));
    }
    // Scalar function call? Names are not reserved: only `ident(` forms a
    // call, so tables/columns may still shadow these names.
    if (Peek(1).IsSymbol("(")) {
      std::string fname = t.text;
      for (char& ch : fname) {
        if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
      }
      ScalarFunc sf;
      if (LookupScalarFunc(fname, &sf)) {
        Advance();  // name
        Advance();  // (
        std::vector<ExprPtr> fargs;
        int args_height = 0;  // tallest argument
        if (!Peek().IsSymbol(")")) {
          do {
            RELOPT_ASSIGN_OR_RETURN(ExprPtr a, ParseExpression());
            args_height = std::max(args_height, height_);
            fargs.push_back(std::move(a));
          } while (MatchSymbol(","));
        }
        RELOPT_RETURN_NOT_OK(ExpectSymbol(")"));
        RELOPT_RETURN_NOT_OK(Grow(&args_height, 0));
        height_ = args_height;
        return ExprPtr(std::make_unique<FunctionCallExpr>(sf, std::move(fargs)));
      }
    }
    // Column reference: ident or ident.ident. Reserved clause keywords
    // cannot name columns (catches "SELECT FROM t" and friends).
    if (IsReservedWord(t)) {
      return Error("unexpected keyword '" + t.text + "' in expression");
    }
    Advance();
    if (Peek().IsSymbol(".")) {
      Advance();
      RELOPT_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      return MakeColumnRef(t.text, std::move(col));
    }
    return MakeColumnRef("", t.text);
  }

  /// CASE ... END after the CASE keyword. Simple CASE carries an operand
  /// before the first WHEN; it is lowered here into searched form (operand =
  /// value per arm) so the binder and both evaluation engines see one CASE
  /// shape.
  [[gnu::noinline]] Result<ExprPtr> ParseCase() {
    ExprPtr operand;
    int operand_height = 0;
    if (!Peek().IsWord("when")) {
      RELOPT_ASSIGN_OR_RETURN(operand, ParseExpression());
      operand_height = height_;
    }
    int arms_height = 0;  // tallest arm
    std::vector<ExprPtr> whens, thens;
    while (MatchWord("when")) {
      RELOPT_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpression());
      if (operand != nullptr) {
        RELOPT_RETURN_NOT_OK(Grow(&height_, operand_height));
        cond = MakeComparison(CompareOp::kEq, operand->Clone(), std::move(cond));
      }
      arms_height = std::max(arms_height, height_);
      RELOPT_RETURN_NOT_OK(ExpectWord("then"));
      RELOPT_ASSIGN_OR_RETURN(ExprPtr then, ParseExpression());
      arms_height = std::max(arms_height, height_);
      whens.push_back(std::move(cond));
      thens.push_back(std::move(then));
    }
    if (whens.empty()) return Error("CASE needs at least one WHEN arm");
    ExprPtr else_expr;
    if (MatchWord("else")) {
      RELOPT_ASSIGN_OR_RETURN(else_expr, ParseExpression());
      arms_height = std::max(arms_height, height_);
    }
    RELOPT_RETURN_NOT_OK(ExpectWord("end"));
    RELOPT_RETURN_NOT_OK(Grow(&arms_height, 0));
    height_ = arms_height;
    return ExprPtr(std::make_unique<CaseExpr>(std::move(whens), std::move(thens),
                                              std::move(else_expr)));
  }

  std::string sql_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t param_count_ = 0;  ///< `?` placeholders seen in the current statement
  int depth_ = 0;   ///< recursive-descent nesting of the current expression
  int height_ = 0;  ///< height of the expression tree last returned
};

}  // namespace

Result<std::vector<StatementPtr>> ParseScript(const std::string& sql) {
  RELOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseAll();
}

Result<StatementPtr> ParseStatement(const std::string& sql) {
  RELOPT_ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, ParseScript(sql));
  if (stmts.size() != 1) {
    return Status::ParseError("expected exactly one statement, got " +
                              std::to_string(stmts.size()));
  }
  return std::move(stmts[0]);
}

}  // namespace relopt
