"""The Fault Specification Language front-end: lexer, parser, compiler."""

from .ast import ScriptAst
from .compiler import compile_script
from .parser import parse_script
from .tokens import TokKind, Token, tokenize


def compile_text(text: str, scenario_name=None):
    """Parse and compile FSL source in one step; the program records the
    source it came from (:attr:`CompiledProgram.source`)."""
    program = compile_script(parse_script(text), scenario_name)
    program.source = (text, scenario_name)
    return program


__all__ = [
    "ScriptAst",
    "TokKind",
    "Token",
    "compile_script",
    "compile_text",
    "parse_script",
    "tokenize",
]
