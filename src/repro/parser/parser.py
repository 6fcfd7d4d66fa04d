"""Recursive-descent parser for Tetra.

The original system used a Bison-generated LALR parser; this reproduction
uses recursive descent over the scanner's token stream (see DESIGN.md §4 for
why the substitution is behaviour-preserving).  The grammar is exactly the
language of the paper: function definitions, Python-style suites, the four
parallel constructs, and a conventional expression grammar.

Every parse error carries the offending span and a message phrased for a
beginner — Tetra is an educational language, and its original motivation
includes friendlier tooling than C/C++.
"""

from __future__ import annotations

from ..errors import TetraSyntaxError
from ..lexer import Scanner, Token, TokenType
from ..source import SourceFile, Span
from ..tetra_ast import (
    ArrayLiteral,
    ArrayTypeExpr,
    Attribute,
    Assign,
    AugAssign,
    BackgroundBlock,
    BinaryOp,
    BinOp,
    Block,
    BoolLiteral,
    Break,
    Call,
    ClassDef,
    ClassTypeExpr,
    Continue,
    Declare,
    DictLiteral,
    DictTypeExpr,
    ElifClause,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    If,
    Index,
    FieldDecl,
    IntLiteral,
    LockStmt,
    MethodCall,
    Name,
    ParallelBlock,
    ParallelFor,
    Param,
    Pass,
    PrimitiveTypeExpr,
    Program,
    RangeLiteral,
    RealLiteral,
    Return,
    Stmt,
    StringLiteral,
    TryStmt,
    TupleLiteral,
    TupleTypeExpr,
    TypeExpr,
    Unary,
    UnaryOp,
    Unpack,
    While,
)

_TT = TokenType

_AUG_OPS: dict[TokenType, BinaryOp] = {
    _TT.PLUS_ASSIGN: BinaryOp.ADD,
    _TT.MINUS_ASSIGN: BinaryOp.SUB,
    _TT.STAR_ASSIGN: BinaryOp.MUL,
    _TT.SLASH_ASSIGN: BinaryOp.DIV,
    _TT.PERCENT_ASSIGN: BinaryOp.MOD,
}

_COMPARISON_OPS: dict[TokenType, BinaryOp] = {
    _TT.EQ: BinaryOp.EQ,
    _TT.NE: BinaryOp.NE,
    _TT.LT: BinaryOp.LT,
    _TT.LE: BinaryOp.LE,
    _TT.GT: BinaryOp.GT,
    _TT.GE: BinaryOp.GE,
}

_ADDITIVE_OPS: dict[TokenType, BinaryOp] = {
    _TT.PLUS: BinaryOp.ADD,
    _TT.MINUS: BinaryOp.SUB,
}

_MULTIPLICATIVE_OPS: dict[TokenType, BinaryOp] = {
    _TT.STAR: BinaryOp.MUL,
    _TT.SLASH: BinaryOp.DIV,
    _TT.PERCENT: BinaryOp.MOD,
}

_TYPE_KEYWORD_NAMES = {
    _TT.KW_INT: "int",
    _TT.KW_REAL: "real",
    _TT.KW_STRING: "string",
    _TT.KW_BOOL: "bool",
}


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.tokens = Scanner(source).scan()
        self.pos = 0

    # ------------------------------------------------------------------
    # Token stream helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def at(self, *types: TokenType) -> bool:
        return self.current.type in types

    def advance(self) -> Token:
        tok = self.current
        if tok.type is not _TT.EOF:
            self.pos += 1
        return tok

    def accept(self, type_: TokenType) -> Token | None:
        if self.current.type is type_:
            return self.advance()
        return None

    def expect(self, type_: TokenType, what: str | None = None) -> Token:
        if self.current.type is type_:
            return self.advance()
        raise self.error(what or f"expected {type_.value!r}")

    def error(self, message: str, span: Span | None = None) -> TetraSyntaxError:
        tok = self.current
        got = {
            _TT.NEWLINE: "end of line",
            _TT.INDENT: "indent",
            _TT.DEDENT: "end of block",
            _TT.EOF: "end of file",
        }.get(tok.type, f"{tok.text!r}")
        return TetraSyntaxError(
            f"{message}, but found {got}", span or tok.span
        ).attach_source(self.source)

    def too_deep(self) -> TetraSyntaxError:
        """The error for Python's recursion limit, at the token being
        read: the descent takes about eleven frames per parenthesis, so
        the limit, not a constant, bounds how deeply a program nests."""
        return TetraSyntaxError(
            "the program nests too deeply here to parse; split this "
            "expression or block into smaller parts",
            self.current.span,
        ).attach_source(self.source)

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def parse_program(self) -> Program:
        functions: list[FunctionDef] = []
        classes: list[ClassDef] = []
        while not self.at(_TT.EOF):
            if self.accept(_TT.NEWLINE):
                continue
            if self.at(_TT.KW_DEF):
                functions.append(self.parse_function())
            elif self.at(_TT.KW_CLASS):
                classes.append(self.parse_class())
            else:
                raise self.error(
                    "expected a function or class definition at the top "
                    "level (Tetra programs are lists of 'def' and 'class' "
                    "blocks)"
                )
        first = functions[0].span if functions else self.current.span
        if classes and (not functions or classes[0].span.start < first.start):
            first = classes[0].span
        return Program(functions=functions, classes=classes, span=first)

    def parse_class(self) -> ClassDef:
        start = self.expect(_TT.KW_CLASS)
        name_tok = self.expect(_TT.IDENT, "expected a class name after 'class'")
        self.expect(_TT.COLON, "expected ':' after the class name")
        self.expect(_TT.NEWLINE, "expected a new line after ':'")
        self.expect(_TT.INDENT, "expected an indented class body")
        fields: list[FieldDecl] = []
        methods: list[FunctionDef] = []
        while not self.at(_TT.DEDENT, _TT.EOF):
            if self.accept(_TT.NEWLINE):
                continue
            if self.at(_TT.KW_PASS):
                self.advance()
                self.expect(_TT.NEWLINE, "expected end of line after 'pass'")
                continue
            if self.at(_TT.KW_DEF):
                methods.append(self.parse_function())
                continue
            field_name = self.expect(
                _TT.IDENT,
                "expected a field declaration (name type) or a method "
                "(def ...) in the class body",
            )
            field_type = self.parse_type()
            self.expect(_TT.NEWLINE, "expected end of line after the field")
            fields.append(FieldDecl(
                name=str(field_name.value), type=field_type,
                span=field_name.span,
            ))
        self.expect(_TT.DEDENT)
        return ClassDef(
            name=str(name_tok.value), fields=fields, methods=methods,
            span=start.span.merge(name_tok.span),
        )

    def parse_function(self) -> FunctionDef:
        start = self.expect(_TT.KW_DEF)
        name_tok = self.expect(_TT.IDENT, "expected a function name after 'def'")
        self.expect(_TT.LPAREN, "expected '(' after the function name")
        params: list[Param] = []
        if not self.at(_TT.RPAREN):
            params.append(self.parse_param())
            while self.accept(_TT.COMMA):
                params.append(self.parse_param())
        self.expect(_TT.RPAREN, "expected ')' to close the parameter list")
        return_type: TypeExpr | None = None
        if not self.at(_TT.COLON):
            starts_type = (self.current.type in _TYPE_KEYWORD_NAMES
                           or self.at(_TT.LBRACKET, _TT.LBRACE, _TT.LPAREN,
                                      _TT.IDENT))
            if not starts_type:
                raise self.error(
                    "expected ':' or a return type after the parameter list"
                )
            return_type = self.parse_type()
        body = self.parse_suite("function body")
        return FunctionDef(
            name=str(name_tok.value),
            params=params,
            return_type=return_type,
            body=body,
            span=start.span.merge(name_tok.span),
        )

    def parse_param(self) -> Param:
        name_tok = self.expect(_TT.IDENT, "expected a parameter name")
        ty = self.parse_type()
        return Param(name=str(name_tok.value), type=ty, span=name_tok.span.merge(ty.span))

    def parse_type(self) -> TypeExpr:
        tok = self.current
        if tok.type in _TYPE_KEYWORD_NAMES:
            self.advance()
            return PrimitiveTypeExpr(name=_TYPE_KEYWORD_NAMES[tok.type], span=tok.span)
        if tok.type is _TT.LBRACKET:
            self.advance()
            element = self.parse_type()
            close = self.expect(_TT.RBRACKET, "expected ']' to close the array type")
            return ArrayTypeExpr(element=element, span=tok.span.merge(close.span))
        if tok.type is _TT.LBRACE:
            self.advance()
            key = self.parse_type()
            self.expect(_TT.COLON, "expected ':' between the key and value types")
            value = self.parse_type()
            close = self.expect(_TT.RBRACE, "expected '}' to close the dict type")
            return DictTypeExpr(key=key, value=value,
                                span=tok.span.merge(close.span))
        if tok.type is _TT.IDENT:
            self.advance()
            return ClassTypeExpr(name=str(tok.value), span=tok.span)
        if tok.type is _TT.LPAREN:
            self.advance()
            elements = [self.parse_type()]
            while self.accept(_TT.COMMA):
                elements.append(self.parse_type())
            close = self.expect(_TT.RPAREN, "expected ')' to close the tuple type")
            if len(elements) < 2:
                raise self.error(
                    "a tuple type needs at least two element types", tok.span
                )
            return TupleTypeExpr(elements=elements,
                                 span=tok.span.merge(close.span))
        raise self.error(
            "expected a type (one of: int, real, string, bool, [T] for "
            "arrays, {K: V} for dicts, or (T1, T2) for tuples)"
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_suite(self, what: str) -> Block:
        """``: NEWLINE INDENT stmt+ DEDENT``"""
        colon = self.expect(_TT.COLON, f"expected ':' to begin the {what}")
        self.expect(_TT.NEWLINE, "expected a new line after ':'")
        self.expect(
            _TT.INDENT,
            f"expected an indented block for the {what} "
            "(indent the lines under the ':')",
        )
        statements: list[Stmt] = []
        while not self.at(_TT.DEDENT, _TT.EOF):
            statements.append(self.parse_statement())
        self.expect(_TT.DEDENT)
        return Block(statements=statements, span=colon.span)

    def parse_statement(self) -> Stmt:
        t = self.current.type
        if t is _TT.KW_IF:
            return self.parse_if()
        if t is _TT.KW_WHILE:
            return self.parse_while()
        if t is _TT.KW_FOR:
            return self.parse_for()
        if t is _TT.KW_PARALLEL:
            return self.parse_parallel()
        if t is _TT.KW_BACKGROUND:
            return self.parse_background()
        if t is _TT.KW_LOCK:
            return self.parse_lock()
        if t is _TT.KW_TRY:
            return self.parse_try()
        return self.parse_simple_statement()

    def parse_try(self) -> TryStmt:
        start = self.expect(_TT.KW_TRY)
        body = self.parse_suite("'try' body")
        self.expect(
            _TT.KW_CATCH,
            "expected 'catch' after the 'try' block (every try needs a "
            "handler)",
        )
        name_tok = self.expect(
            _TT.IDENT,
            "expected a name after 'catch' to hold the error message",
        )
        handler = self.parse_suite("'catch' body")
        return TryStmt(body=body, error_name=str(name_tok.value),
                       handler=handler, span=start.span)

    def parse_if(self) -> If:
        start = self.expect(_TT.KW_IF)
        cond = self.parse_expression()
        then = self.parse_suite("'if' body")
        elifs: list[ElifClause] = []
        while self.at(_TT.KW_ELIF):
            elif_tok = self.advance()
            elif_cond = self.parse_expression()
            elif_body = self.parse_suite("'elif' body")
            elifs.append(ElifClause(cond=elif_cond, body=elif_body, span=elif_tok.span))
        orelse: Block | None = None
        if self.accept(_TT.KW_ELSE):
            orelse = self.parse_suite("'else' body")
        return If(cond=cond, then=then, elifs=elifs, orelse=orelse, span=start.span)

    def parse_while(self) -> While:
        start = self.expect(_TT.KW_WHILE)
        cond = self.parse_expression()
        body = self.parse_suite("'while' body")
        return While(cond=cond, body=body, span=start.span)

    def parse_for(self) -> For:
        start = self.expect(_TT.KW_FOR)
        var_tok = self.expect(_TT.IDENT, "expected a loop variable after 'for'")
        self.expect(_TT.KW_IN, "expected 'in' after the loop variable")
        iterable = self.parse_expression()
        body = self.parse_suite("'for' body")
        return For(var=str(var_tok.value), iterable=iterable, body=body, span=start.span)

    def parse_parallel(self) -> Stmt:
        start = self.expect(_TT.KW_PARALLEL)
        if self.at(_TT.KW_FOR):
            self.advance()
            var_tok = self.expect(_TT.IDENT, "expected a loop variable after 'parallel for'")
            self.expect(_TT.KW_IN, "expected 'in' after the loop variable")
            iterable = self.parse_expression()
            body = self.parse_suite("'parallel for' body")
            return ParallelFor(
                var=str(var_tok.value), iterable=iterable, body=body, span=start.span
            )
        body = self.parse_suite("'parallel' block")
        return ParallelBlock(body=body, span=start.span)

    def parse_background(self) -> BackgroundBlock:
        start = self.expect(_TT.KW_BACKGROUND)
        body = self.parse_suite("'background' block")
        return BackgroundBlock(body=body, span=start.span)

    def parse_lock(self) -> LockStmt:
        start = self.expect(_TT.KW_LOCK)
        name_tok = self.expect(
            _TT.IDENT,
            "expected a lock name after 'lock' (lock names live in their own "
            "namespace; any identifier works)",
        )
        body = self.parse_suite("'lock' block")
        return LockStmt(name=str(name_tok.value), body=body, span=start.span)

    def parse_simple_statement(self) -> Stmt:
        t = self.current.type
        if t is _TT.KW_RETURN:
            start = self.advance()
            value: Expr | None = None
            if not self.at(_TT.NEWLINE):
                value = self.parse_expression()
            self.expect(_TT.NEWLINE, "expected end of line after 'return'")
            return Return(value=value, span=start.span)
        if t is _TT.KW_BREAK:
            start = self.advance()
            self.expect(_TT.NEWLINE, "expected end of line after 'break'")
            return Break(span=start.span)
        if t is _TT.KW_CONTINUE:
            start = self.advance()
            self.expect(_TT.NEWLINE, "expected end of line after 'continue'")
            return Continue(span=start.span)
        if t is _TT.KW_PASS:
            start = self.advance()
            self.expect(_TT.NEWLINE, "expected end of line after 'pass'")
            return Pass(span=start.span)

        declaration = self._try_parse_declaration()
        if declaration is not None:
            return declaration

        expr = self.parse_expression()
        if self.at(_TT.COMMA):
            # ``a, b = expr`` — tuple destructuring.
            targets = [expr]
            while self.accept(_TT.COMMA):
                targets.append(self.parse_expression())
            self.expect(
                _TT.ASSIGN,
                "expected '=' after the unpacking targets",
            )
            for target in targets:
                self._check_assign_target(target)
            value = self.parse_expression()
            self.expect(_TT.NEWLINE, "expected end of line after the assignment")
            return Unpack(targets=targets, value=value, span=expr.span)
        if self.at(_TT.ASSIGN):
            self.advance()
            self._check_assign_target(expr)
            value = self.parse_expression()
            self.expect(_TT.NEWLINE, "expected end of line after the assignment")
            return Assign(target=expr, value=value, span=expr.span)
        if self.current.type in _AUG_OPS:
            op_tok = self.advance()
            self._check_assign_target(expr)
            value = self.parse_expression()
            self.expect(_TT.NEWLINE, "expected end of line after the assignment")
            return AugAssign(
                target=expr, op=_AUG_OPS[op_tok.type], value=value, span=expr.span
            )
        self.expect(_TT.NEWLINE, "expected end of line after the expression")
        return ExprStmt(expr=expr, span=expr.span)

    #: Tokens that can open a type annotation.
    _TYPE_START = frozenset({
        _TT.KW_INT, _TT.KW_REAL, _TT.KW_STRING, _TT.KW_BOOL,
        _TT.LBRACKET, _TT.LBRACE, _TT.LPAREN, _TT.IDENT,
    })

    def _try_parse_declaration(self) -> Declare | None:
        """``name type = value`` — attempted with backtracking.

        The lookahead ``IDENT <type-start>`` is almost unambiguous; the one
        collision (``x[[1, 2][0]] = ...``) fails the type parse and falls
        back to the expression route.
        """
        if self.current.type is not _TT.IDENT:
            return None
        nxt = self.peek()
        if nxt.type not in self._TYPE_START:
            return None
        # ``xs[i] = v`` (indexing) vs ``xs [int] = []`` (declaration) and
        # ``f(x)`` (call) vs ``p (int, int) = ...`` (declaration): a bracket
        # or paren glued directly to the name is always indexing/calling.
        if (nxt.type in (_TT.LBRACKET, _TT.LPAREN)
                and nxt.span.start == self.current.span.end):
            return None
        saved = self.pos
        name_tok = self.advance()
        try:
            declared = self.parse_type()
            self.expect(_TT.ASSIGN,
                        "expected '=' after the declared type")
        except TetraSyntaxError:
            self.pos = saved
            return None
        value = self.parse_expression()
        self.expect(_TT.NEWLINE, "expected end of line after the declaration")
        return Declare(name=str(name_tok.value), declared_type=declared,
                       value=value, span=name_tok.span)

    def _check_assign_target(self, target: Expr) -> None:
        if isinstance(target, Name):
            return
        if isinstance(target, Index):
            self._check_assign_target(target.base)
            return
        if isinstance(target, Attribute):
            self._check_assign_target(target.base)
            return
        raise self.error(
            "this is not something that can be assigned to "
            "(assign to a variable, element, or field)",
            target.span,
        )

    # ------------------------------------------------------------------
    # Expressions (precedence climbing, one level per method)
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.at(_TT.KW_OR):
            self.advance()
            right = self.parse_and()
            left = BinOp(op=BinaryOp.OR, left=left, right=right,
                         span=left.span.merge(right.span))
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.at(_TT.KW_AND):
            self.advance()
            right = self.parse_not()
            left = BinOp(op=BinaryOp.AND, left=left, right=right,
                         span=left.span.merge(right.span))
        return left

    def parse_not(self) -> Expr:
        if self.at(_TT.KW_NOT):
            tok = self.advance()
            operand = self.parse_not()
            return Unary(op=UnaryOp.NOT, operand=operand,
                         span=tok.span.merge(operand.span))
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        while self.current.type in _COMPARISON_OPS:
            op = _COMPARISON_OPS[self.advance().type]
            right = self.parse_additive()
            left = BinOp(op=op, left=left, right=right,
                         span=left.span.merge(right.span))
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.current.type in _ADDITIVE_OPS:
            op = _ADDITIVE_OPS[self.advance().type]
            right = self.parse_multiplicative()
            left = BinOp(op=op, left=left, right=right,
                         span=left.span.merge(right.span))
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.current.type in _MULTIPLICATIVE_OPS:
            op = _MULTIPLICATIVE_OPS[self.advance().type]
            right = self.parse_unary()
            left = BinOp(op=op, left=left, right=right,
                         span=left.span.merge(right.span))
        return left

    def parse_unary(self) -> Expr:
        if self.at(_TT.MINUS):
            tok = self.advance()
            operand = self.parse_unary()
            return Unary(op=UnaryOp.NEG, operand=operand,
                         span=tok.span.merge(operand.span))
        if self.at(_TT.PLUS):
            tok = self.advance()
            operand = self.parse_unary()
            return Unary(op=UnaryOp.POS, operand=operand,
                         span=tok.span.merge(operand.span))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_postfix()
        if self.at(_TT.STARSTAR):
            self.advance()
            # Right-associative: the exponent re-enters at unary level so
            # ``2 ** -3`` and ``2 ** 3 ** 2`` parse the way Python users expect.
            exponent = self.parse_unary()
            return BinOp(op=BinaryOp.POW, left=base, right=exponent,
                         span=base.span.merge(exponent.span))
        return base

    def parse_postfix(self) -> Expr:
        expr = self.parse_atom()
        while True:
            if self.at(_TT.LBRACKET):
                self.advance()
                index = self.parse_expression()
                close = self.expect(_TT.RBRACKET, "expected ']' to close the index")
                expr = Index(base=expr, index=index,
                             span=expr.span.merge(close.span))
                continue
            if self.at(_TT.DOT):
                self.advance()
                attr_tok = self.expect(
                    _TT.IDENT, "expected a field or method name after '.'"
                )
                if self.at(_TT.LPAREN):
                    self.advance()
                    args: list[Expr] = []
                    if not self.at(_TT.RPAREN):
                        args.append(self.parse_expression())
                        while self.accept(_TT.COMMA):
                            args.append(self.parse_expression())
                    close = self.expect(
                        _TT.RPAREN, "expected ')' to close the call"
                    )
                    expr = MethodCall(
                        base=expr, method=str(attr_tok.value), args=args,
                        span=expr.span.merge(close.span),
                    )
                else:
                    expr = Attribute(
                        base=expr, attr=str(attr_tok.value),
                        span=expr.span.merge(attr_tok.span),
                    )
                continue
            return expr

    def parse_atom(self) -> Expr:
        tok = self.current
        if tok.type is _TT.INT:
            self.advance()
            return IntLiteral(value=int(tok.value), span=tok.span)  # type: ignore[arg-type]
        if tok.type is _TT.REAL:
            self.advance()
            return RealLiteral(value=float(tok.value), span=tok.span)  # type: ignore[arg-type]
        if tok.type is _TT.STRING:
            self.advance()
            return StringLiteral(value=str(tok.value), span=tok.span)
        if tok.type is _TT.KW_TRUE:
            self.advance()
            return BoolLiteral(value=True, span=tok.span)
        if tok.type is _TT.KW_FALSE:
            self.advance()
            return BoolLiteral(value=False, span=tok.span)
        if tok.type is _TT.IDENT:
            self.advance()
            if self.at(_TT.LPAREN):
                self.advance()
                args: list[Expr] = []
                if not self.at(_TT.RPAREN):
                    args.append(self.parse_expression())
                    while self.accept(_TT.COMMA):
                        args.append(self.parse_expression())
                close = self.expect(_TT.RPAREN, "expected ')' to close the call")
                return Call(func=str(tok.value), args=args, span=tok.span.merge(close.span))
            return Name(id=str(tok.value), span=tok.span)
        if tok.type in _TYPE_KEYWORD_NAMES:
            # Conversion calls: the type names double as functions
            # (``int("42")``, ``real(n)``), mirroring Python.
            self.advance()
            self.expect(
                _TT.LPAREN,
                f"'{tok.text}' is a type name; to convert a value call it "
                f"like a function: {tok.text}(value)",
            )
            args: list[Expr] = []
            if not self.at(_TT.RPAREN):
                args.append(self.parse_expression())
                while self.accept(_TT.COMMA):
                    args.append(self.parse_expression())
            close = self.expect(_TT.RPAREN, "expected ')' to close the call")
            return Call(func=_TYPE_KEYWORD_NAMES[tok.type], args=args,
                        span=tok.span.merge(close.span))
        if tok.type is _TT.LPAREN:
            self.advance()
            inner = self.parse_expression()
            if self.at(_TT.COMMA):
                elements = [inner]
                while self.accept(_TT.COMMA):
                    if self.at(_TT.RPAREN):
                        break  # tolerate a trailing comma
                    elements.append(self.parse_expression())
                close = self.expect(
                    _TT.RPAREN, "expected ')' to close the tuple"
                )
                if len(elements) < 2:
                    raise self.error(
                        "a tuple needs at least two elements "
                        "(parentheses alone just group)",
                        tok.span,
                    )
                return TupleLiteral(elements=elements,
                                    span=tok.span.merge(close.span))
            self.expect(_TT.RPAREN, "expected ')' to close the parenthesis")
            return inner
        if tok.type is _TT.LBRACKET:
            return self.parse_bracketed()
        if tok.type is _TT.LBRACE:
            return self.parse_dict_literal()
        raise self.error("expected an expression")

    def parse_dict_literal(self) -> DictLiteral:
        """``{k: v, ...}`` — possibly empty (requires a typed declaration)."""
        open_tok = self.expect(_TT.LBRACE)
        entries: list[tuple[Expr, Expr]] = []
        if not self.at(_TT.RBRACE):
            while True:
                key = self.parse_expression()
                self.expect(_TT.COLON, "expected ':' between a dict key and value")
                value = self.parse_expression()
                entries.append((key, value))
                if not self.accept(_TT.COMMA):
                    break
                if self.at(_TT.RBRACE):
                    break  # tolerate a trailing comma
        close = self.expect(_TT.RBRACE, "expected '}' to close the dict literal")
        return DictLiteral(entries=entries, span=open_tok.span.merge(close.span))

    def parse_bracketed(self) -> Expr:
        """Array literal ``[a, b, c]`` or range literal ``[a ... b]``."""
        open_tok = self.expect(_TT.LBRACKET)
        if self.at(_TT.RBRACKET):
            close = self.advance()
            return ArrayLiteral(elements=[], span=open_tok.span.merge(close.span))
        first = self.parse_expression()
        if self.at(_TT.ELLIPSIS):
            self.advance()
            stop = self.parse_expression()
            close = self.expect(_TT.RBRACKET, "expected ']' to close the range")
            return RangeLiteral(start=first, stop=stop,
                                span=open_tok.span.merge(close.span))
        elements = [first]
        while self.accept(_TT.COMMA):
            if self.at(_TT.RBRACKET):
                break  # tolerate a trailing comma
            elements.append(self.parse_expression())
        close = self.expect(_TT.RBRACKET, "expected ']' to close the array literal")
        return ArrayLiteral(elements=elements, span=open_tok.span.merge(close.span))


def parse_source(source: SourceFile | str, name: str = "<string>") -> Program:
    """Parse Tetra source text into a :class:`Program`."""
    if isinstance(source, str):
        source = SourceFile.from_string(source, name)
    parser = Parser(source)
    try:
        return parser.parse_program()
    except RecursionError:
        raise parser.too_deep() from None


def parse_expression(text: str) -> Expr:
    """Parse a single expression (used by the debugger's ``print`` command)."""
    source = SourceFile.from_string(text, "<expr>")
    parser = Parser(source)
    try:
        expr = parser.parse_expression()
    except RecursionError:
        raise parser.too_deep() from None
    parser.accept(_TT.NEWLINE)
    if not parser.at(_TT.EOF):
        raise parser.error("unexpected trailing input after the expression")
    return expr
