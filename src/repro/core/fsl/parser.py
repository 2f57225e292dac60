"""Recursive-descent parser for FSL.

Grammar (sections may appear in any order and repeat)::

    script        := (var_decl | filter_table | node_table | scenario)* EOF
    var_decl      := "VAR" IDENT ("," IDENT)* ";"
    filter_table  := "FILTER_TABLE" filter_def+ "END"
    filter_def    := IDENT ":" tuple ("," tuple)*
    tuple         := "(" INT INT [INT] (INT | IDENT) ")"
    node_table    := "NODE_TABLE" node_def+ "END"
    node_def      := IDENT MAC IP
    scenario      := "SCENARIO" IDENT [DURATION] decl* rule* "END"
    decl          := IDENT ":" "(" args ")"            # counter declaration
    rule          := "(" condition ")" ">>" action (";" action)* ";"
    condition     := "TRUE" | or_expr
    or_expr       := and_expr (("||"|OR) and_expr)*
    and_expr      := unary (("&&"|AND) unary)*
    unary         := ("!"|NOT) unary | "(" or_expr ")" | term
    term          := operand relop operand
    action        := NAME "(" args ")" | NAME args     # paper allows both

The lexer pre-classifies MAC, IP and duration literals, so the parser never
has to disambiguate them from identifiers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ...errors import FslParseError
from .ast import (
    ActionAst,
    AndAst,
    CondAst,
    CounterDeclAst,
    FilterDefAst,
    NodeDefAst,
    NotAst,
    OrAst,
    PatchAst,
    RuleAst,
    ScenarioAst,
    ScriptAst,
    TermAst,
    TrueAst,
    TupleAst,
)
from .tokens import TokKind, Token, tokenize

_RELOPS = {
    TokKind.GT: ">",
    TokKind.LT: "<",
    TokKind.GE: ">=",
    TokKind.LE: "<=",
    TokKind.EQ: "=",
    TokKind.NE: "!=",
}

#: The action keywords of Tables I and II (plus the FLAG_ERR spelling used
#: in Table II and the FLAG_ERROR spelling used in the scripts).
ACTION_NAMES = {
    "ASSIGN_CNTR",
    "ENABLE_CNTR",
    "DISABLE_CNTR",
    "INCR_CNTR",
    "DECR_CNTR",
    "RESET_CNTR",
    "SET_CURTIME",
    "ELAPSED_TIME",
    "DROP",
    "DELAY",
    "REORDER",
    "DUP",
    "MODIFY",
    "FAIL",
    "CRASH",
    "RESTART",
    "STOP",
    "FLAG_ERR",
    "FLAG_ERROR",
}

_SECTION_KEYWORDS = {"VAR", "FILTER_TABLE", "NODE_TABLE", "SCENARIO", "END"}


class Parser:
    """One-shot parser over a token list."""

    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self) -> Token:
        """The token after the current one."""
        return self._tokens[min(self._pos + 1, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind is not TokKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokKind, what: str = "") -> Token:
        token = self._cur
        if token.kind is not kind:
            wanted = what or kind.value
            raise FslParseError(
                f"expected {wanted}, found {token.text!r}", token.line, token.column
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._cur
        if token.kind is not TokKind.IDENT or token.text != word:
            raise FslParseError(
                f"expected {word}, found {token.text!r}", token.line, token.column
            )
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        return self._cur.kind is TokKind.IDENT and self._cur.text == word

    # -- entry point ------------------------------------------------------

    def parse(self) -> ScriptAst:
        script = ScriptAst()
        while self._cur.kind is not TokKind.EOF:
            if self._at_keyword("VAR"):
                self._parse_vars(script)
            elif self._at_keyword("FILTER_TABLE"):
                self._parse_filter_table(script)
            elif self._at_keyword("NODE_TABLE"):
                self._parse_node_table(script)
            elif self._at_keyword("SCENARIO"):
                script.scenarios.append(self._parse_scenario())
            else:
                token = self._cur
                raise FslParseError(
                    f"expected a section keyword, found {token.text!r}",
                    token.line,
                    token.column,
                )
        return script

    # -- sections -------------------------------------------------------------

    def _parse_vars(self, script: ScriptAst) -> None:
        self._expect_keyword("VAR")
        while True:
            name = self._expect(TokKind.IDENT, "variable name")
            script.variables.append(name.text)
            if self._cur.kind is TokKind.COMMA:
                self._advance()
                continue
            break
        self._expect(TokKind.SEMI)

    def _parse_filter_table(self, script: ScriptAst) -> None:
        self._expect_keyword("FILTER_TABLE")
        while not self._at_keyword("END"):
            script.filters.append(self._parse_filter_def())
        self._expect_keyword("END")

    def _parse_filter_def(self) -> FilterDefAst:
        name = self._expect(TokKind.IDENT, "packet type name")
        self._expect(TokKind.COLON)
        tuples = [self._parse_filter_tuple()]
        while self._cur.kind is TokKind.COMMA:
            self._advance()
            tuples.append(self._parse_filter_tuple())
        return FilterDefAst(name.text, tuple(tuples), name.line)

    def _parse_filter_tuple(self) -> TupleAst:
        lparen = self._expect(TokKind.LPAREN)
        offset = int(self._expect(TokKind.INT, "offset").value)
        nbytes = int(self._expect(TokKind.INT, "byte count").value)
        items: List[Union[int, str]] = []
        while self._cur.kind is not TokKind.RPAREN:
            token = self._cur
            if token.kind is TokKind.INT:
                items.append(int(token.value))
            elif token.kind is TokKind.IDENT:
                items.append(token.text)
            else:
                raise FslParseError(
                    f"bad filter tuple element {token.text!r}", token.line, token.column
                )
            self._advance()
        self._expect(TokKind.RPAREN)
        if len(items) == 1:
            mask: Optional[int] = None
            pattern = items[0]
        elif len(items) == 2:
            if not isinstance(items[0], int):
                raise FslParseError("filter mask must be an integer", lparen.line)
            mask = items[0]
            pattern = items[1]
        else:
            raise FslParseError(
                "filter tuple needs (offset nbytes [mask] pattern)", lparen.line
            )
        return TupleAst(offset, nbytes, pattern, mask, lparen.line)

    def _parse_node_table(self, script: ScriptAst) -> None:
        self._expect_keyword("NODE_TABLE")
        while not self._at_keyword("END"):
            name = self._expect(TokKind.IDENT, "node name")
            mac = self._expect(TokKind.MAC, "MAC address")
            ip = self._expect(TokKind.IP, "IP address")
            script.nodes.append(NodeDefAst(name.text, mac.text, ip.text, name.line))
        self._expect_keyword("END")

    # -- scenario ---------------------------------------------------------------

    def _parse_scenario(self) -> ScenarioAst:
        header = self._expect_keyword("SCENARIO")
        name = self._expect(TokKind.IDENT, "scenario name")
        timeout_ns = 0
        if self._cur.kind is TokKind.DURATION:
            timeout_ns = int(self._advance().value)
        counters: List[CounterDeclAst] = []
        rules: List[RuleAst] = []
        while not self._at_keyword("END"):
            if self._cur.kind is TokKind.EOF:
                raise FslParseError("scenario missing END", header.line)
            if (
                self._cur.kind is TokKind.IDENT
                and self._cur.text not in _SECTION_KEYWORDS
                and self._peek().kind is TokKind.COLON
            ):
                counters.append(self._parse_counter_decl())
            elif self._cur.kind is TokKind.LPAREN:
                rules.append(self._parse_rule())
            else:
                token = self._cur
                raise FslParseError(
                    f"expected a counter declaration or rule, found {token.text!r}",
                    token.line,
                    token.column,
                )
        self._expect_keyword("END")
        return ScenarioAst(
            name.text, timeout_ns, tuple(counters), tuple(rules), header.line
        )

    def _parse_counter_decl(self) -> CounterDeclAst:
        name = self._expect(TokKind.IDENT, "counter name")
        self._expect(TokKind.COLON)
        self._expect(TokKind.LPAREN)
        args: List[str] = []
        while self._cur.kind is not TokKind.RPAREN:
            token = self._cur
            if token.kind is not TokKind.IDENT:
                raise FslParseError(
                    f"bad counter declaration element {token.text!r}",
                    token.line,
                    token.column,
                )
            args.append(token.text)
            self._advance()
            if self._cur.kind is TokKind.COMMA:
                self._advance()
        self._expect(TokKind.RPAREN)
        if len(args) not in (1, 4):
            raise FslParseError(
                "counter declaration needs (pkt, src, dst, SEND|RECV) or (node)",
                name.line,
            )
        return CounterDeclAst(name.text, tuple(args), name.line)

    # -- rules ------------------------------------------------------------------

    def _parse_rule(self) -> RuleAst:
        lparen = self._expect(TokKind.LPAREN)
        condition = self._parse_condition()
        self._expect(TokKind.RPAREN)
        self._expect(TokKind.ARROW, "'>>'")
        actions = [self._parse_action()]
        self._expect(TokKind.SEMI)
        # Further actions belong to this rule until a new rule's "(" or END.
        while self._cur.kind is TokKind.IDENT and self._cur.text in ACTION_NAMES:
            actions.append(self._parse_action())
            self._expect(TokKind.SEMI)
        return RuleAst(condition, tuple(actions), lparen.line)

    def _parse_condition(self) -> CondAst:
        if self._at_keyword("TRUE"):
            self._advance()
            return TrueAst()
        return self._parse_or()

    def _parse_or(self) -> CondAst:
        children = [self._parse_and()]
        while self._cur.kind is TokKind.OR:
            self._advance()
            children.append(self._parse_and())
        return children[0] if len(children) == 1 else OrAst(tuple(children))

    def _parse_and(self) -> CondAst:
        children = [self._parse_unary()]
        while self._cur.kind is TokKind.AND:
            self._advance()
            children.append(self._parse_unary())
        return children[0] if len(children) == 1 else AndAst(tuple(children))

    def _parse_unary(self) -> CondAst:
        if self._cur.kind is TokKind.NOT:
            self._advance()
            return NotAst(self._parse_unary())
        if self._cur.kind is TokKind.LPAREN:
            self._advance()
            inner = self._parse_or()
            self._expect(TokKind.RPAREN)
            return inner
        return self._parse_term()

    def _parse_term(self) -> CondAst:
        lhs = self._parse_operand()
        op_token = self._cur
        if op_token.kind not in _RELOPS:
            raise FslParseError(
                f"expected a relational operator, found {op_token.text!r}",
                op_token.line,
                op_token.column,
            )
        self._advance()
        rhs = self._parse_operand()
        return TermAst(lhs, _RELOPS[op_token.kind], rhs, op_token.line)

    def _parse_operand(self) -> Union[int, str]:
        token = self._cur
        if token.kind is TokKind.INT:
            self._advance()
            return int(token.value)
        if token.kind is TokKind.IDENT:
            self._advance()
            return token.text
        raise FslParseError(
            f"expected a counter or integer, found {token.text!r}",
            token.line,
            token.column,
        )

    # -- actions -----------------------------------------------------------------

    def _parse_action(self) -> ActionAst:
        name = self._expect(TokKind.IDENT, "action name")
        if name.text not in ACTION_NAMES:
            raise FslParseError(
                f"unknown action {name.text!r}", name.line, name.column
            )
        args: List[object] = []
        if self._cur.kind is TokKind.LPAREN:
            self._advance()
            args = self._parse_action_args(stop=TokKind.RPAREN)
            self._expect(TokKind.RPAREN)
        elif self._cur.kind is not TokKind.SEMI:
            # Paper style without parentheses: DROP TCP_synack, node2, ...
            args = self._parse_action_args(stop=TokKind.SEMI)
        return ActionAst(name.text, tuple(args), name.line)

    def _parse_action_args(self, stop: TokKind) -> List[object]:
        args: List[object] = []
        while self._cur.kind is not stop:
            args.append(self._parse_action_arg())
            if self._cur.kind is TokKind.COMMA:
                self._advance()
            elif self._cur.kind is not stop:
                token = self._cur
                raise FslParseError(
                    f"expected ',' or {stop.value!r} in action arguments, "
                    f"found {token.text!r}",
                    token.line,
                    token.column,
                )
        return args

    def _parse_action_arg(self) -> object:
        token = self._cur
        if token.kind is TokKind.INT:
            self._advance()
            return int(token.value)
        if token.kind is TokKind.DURATION:
            self._advance()
            return ("duration", int(token.value))
        if token.kind is TokKind.IDENT:
            self._advance()
            return token.text
        if token.kind is TokKind.LBRACKET:
            # A reorder permutation: [3 1 2] (commas optional).
            self._advance()
            order: List[int] = []
            while self._cur.kind is not TokKind.RBRACKET:
                order.append(int(self._expect(TokKind.INT, "permutation index").value))
                if self._cur.kind is TokKind.COMMA:
                    self._advance()
            self._expect(TokKind.RBRACKET)
            return tuple(order)
        if token.kind is TokKind.LPAREN:
            # A MODIFY patch: (offset 0xDEADBEEF) — pattern width from text.
            self._advance()
            offset = int(self._expect(TokKind.INT, "patch offset").value)
            pattern = self._expect(TokKind.INT, "patch bytes")
            self._expect(TokKind.RPAREN)
            data = _pattern_bytes(pattern)
            return PatchAst(offset, data)
        raise FslParseError(
            f"bad action argument {token.text!r}", token.line, token.column
        )


def _pattern_bytes(token: Token) -> bytes:
    """Bytes of a patch literal; hex literals keep their written width."""
    text = token.text.lower()
    if text.startswith("0x"):
        digits = text[2:]
        if len(digits) % 2:
            digits = "0" + digits
        return bytes.fromhex(digits)
    value = int(token.value)
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def parse_script(text: str) -> ScriptAst:
    """Parse FSL source into a :class:`ScriptAst`."""
    return Parser(text).parse()
