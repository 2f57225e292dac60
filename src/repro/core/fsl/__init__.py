"""The Fault Specification Language front-end: lexer, parser, compiler."""

from .ast import ScriptAst
from .compiler import compile_script
from .parser import parse_script
from .tokens import TokKind, Token, tokenize


def compile_text(text: str, scenario_name=None):
    """Parse and compile FSL source in one step."""
    return compile_script(parse_script(text), scenario_name)


__all__ = [
    "ScriptAst",
    "TokKind",
    "Token",
    "compile_script",
    "compile_text",
    "parse_script",
    "tokenize",
]
