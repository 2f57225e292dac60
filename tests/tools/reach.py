"""The reach survey: which ``src/repro`` functions the user entry points enter.

Runs every entry point a user has (the examples, the CLI on the shipped
scenarios, serial/parallel/tcp sweeps with journal, resume and cache, the
paper figures, the golden runs and the ledger's ``--quick``) as
subprocesses under ``sys.settrace``.  A ``sitecustomize.py`` put first on
``PYTHONPATH`` installs the tracer in every process, forked slots and
``repro worker`` included, and appends each newly entered code object to a
per-pid file at once, so a slot's ``os._exit`` loses nothing.  A write that
fails is recorded, and the survey then fails naming the process.

``tests/tools/reach.txt`` lists every ``def`` no entry point entered and
every defaulted parameter no non-test call passes, one sorted line each:
``module:Qual.name verdict [reason] -- why``.  A verdict is ``delete`` or
``keep`` with a reason from ``DEF_REASONS`` (``PARAM_REASONS`` for a
parameter line, written ``module:Qual.name(param=)``).

    python tests/tools/reach.py           # trace, rewrite reach.txt (verdicts kept)
    python tests/tools/reach.py --check   # trace, fail on anything unlisted or stale
"""

import argparse
import ast
import functools
import os
import pathlib
import signal
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
LIST = pathlib.Path(__file__).with_name("reach.txt")

DEF_REASONS = ("repr", "paper", "interface", "oracle", "ledger", "api", "deploy")
PARAM_REASONS = ("api", "deploy", "input")

SITECUSTOMIZE = '''\
import os, sys, threading
_seen = {}
def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code  # held, so an id is never reused
        if code.co_filename.startswith(%(roots)r):
            # CPython unsets a tracer that raises, for the rest of the
            # thread: a failed write must not hide every later entry.
            try:
                with open(os.path.join(%(out)r, str(os.getpid())), "a") as f:
                    f.write(code.co_filename + "\\t" + code.co_qualname + "\\n")
            except Exception as exc:
                del _seen[id(code)]  # a later entry of it writes again
                _failed(exc)
def _failed(exc):
    note = "pid %%d (%%s): %%r\\n" %% (os.getpid(), " ".join(sys.argv), exc)
    try:
        with open(os.path.join(%(err)r, str(os.getpid())), "a") as f:
            f.write(note)
    except Exception:
        sys.stderr.write("reach tracer: " + note)
sys.settrace(_trace)
threading.settrace(_trace)
'''


# -- the static half: every def, every defaulted parameter -----------------

def _module(path: pathlib.Path, base: pathlib.Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defs(tree: ast.AST):
    """(qualname, def node, enclosing class or None) in co_qualname form.
    Only statements hold a def, so expressions are not walked."""
    todo = [(tree, "", None)]
    while todo:
        node, prefix, cls = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child, cls
                todo.append((child, f"{prefix}{child.name}.<locals>.", None))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}{child.name}.", child))
            elif isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case)):
                todo.append((child, prefix, cls))


@functools.lru_cache(maxsize=None)
def _parse(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def _trees(base: pathlib.Path):
    for path in sorted(base.rglob("*.py")):
        yield path, _parse(path)


@functools.lru_cache(maxsize=None)
def _index() -> tuple:
    """(``module:qualname``, def node, enclosing class) for every def in src/repro."""
    return tuple((f"{_module(path, SRC.parent)}:{qual}", node, cls)
                 for path, tree in _trees(SRC) for qual, node, cls in _defs(tree))


def src_defs() -> dict:
    """``module:qualname`` -> def node, for every def in src/repro."""
    return {name: node for name, node, _ in _index()}


def count_def_defaults() -> int:
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in src_defs().values())


def _caller_trees():
    yield from _trees(SRC)
    yield from _trees(ROOT / "examples")
    for path in sorted((ROOT / "benchmarks" / "ledger").glob("*.py")):
        if not path.name.startswith("test_"):
            yield path, _parse(path)


def _shape(call: ast.Call):
    splat = any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords)
    return len(call.args), {k.arg for k in call.keywords}, splat


@functools.lru_cache(maxsize=None)
def _calls():
    """name -> [(positional count, keywords, splatted)] over non-test code,
    and the names that escape as values (passed, stored: called unseen).
    Annotations, ``isinstance`` types, bases and ``except`` types are no
    escape; a ``super().__init__(...)`` also counts as a call of its class."""
    calls, escaped = {}, set()
    for _, tree in _caller_trees():
        skip, todo = set(), [(tree, None)]
        while todo:
            node, cls = todo.pop()
            if id(node) in skip:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                skip.update(id(x.annotation) for x in a.posonlyargs + a.args + a.kwonlyargs
                            + [a.vararg, a.kwarg] if x is not None)
                skip.add(id(node.returns))
            elif isinstance(node, ast.AnnAssign):
                skip.add(id(node.annotation))
            elif isinstance(node, ast.ExceptHandler):
                skip.add(id(node.type))
            elif isinstance(node, ast.ClassDef):
                skip.update(id(b) for b in node.bases)
                cls = node.name
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(_shape(node))
                if name == "__init__" and cls is not None:
                    calls.setdefault(cls, []).append(_shape(node))
                if name in ("isinstance", "issubclass") and len(node.args) == 2:
                    skip.add(id(node.args[1]))
                func = node.func  # its own name is a call, not an escape
                callee = ([func.value] if isinstance(func, ast.Attribute)
                          else [] if isinstance(func, ast.Name) else [func])
                todo.extend((c, cls) for c in callee + node.args + node.keywords)
                continue
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                escaped.add(getattr(node, "id", getattr(node, "attr", None)))
            todo.extend((c, cls) for c in ast.iter_child_nodes(node))
    return calls, escaped


@functools.lru_cache(maxsize=None)
def unpassed_defaults() -> tuple:
    """``module:Qual.name(param=)`` for every defaulted parameter of a def
    in src/repro that no call in ``src``, ``examples`` or the ledger passes.
    Calls match by name, so a clash may hide a knob but never flags a passed one."""
    calls, escaped = _calls()
    subclasses = {}
    for _, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    subclasses.setdefault(getattr(base, "id", getattr(base, "attr", None)), set()).add(node.name)
    found = []
    for name, node, cls in _index():
        names = {node.name}
        if cls is not None and node.name == "__init__":
            names, todo = set(), [cls.name]
            while todo:
                names.add(todo[-1])
                todo.extend(subclasses.get(todo.pop(), set()) - names)
        if names & escaped:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = cls is not None and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        seen = [c for callee in names for c in calls.get(callee, ())]
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for index, param in defaulted:
            if not any(splat or param in keywords
                       or (index is not None and count + bound > index)
                       for count, keywords, splat in seen):
                found.append(f"{name}({param}=)")
    return tuple(sorted(found))


# -- the list ---------------------------------------------------------------

def read_list(path: pathlib.Path = LIST) -> dict:
    """name -> (verdict, reason or None, why)."""
    entries = {}
    for line in path.read_text().splitlines() if path.exists() else ():
        if line.strip() and not line.startswith("#"):
            head, _, why = line.partition(" -- ")
            name, verdict, *reason = head.split()
            entries[name] = (verdict, reason[0] if reason else None, why)
    return entries


def list_problems(entries: dict) -> list:
    """Everything wrong with the list that needs no tracing."""
    defs, params = src_defs(), set(unpassed_defaults())
    problems = []
    for name, (verdict, reason, _) in sorted(entries.items()):
        is_param = name.endswith("=)")
        allowed = PARAM_REASONS if is_param else DEF_REASONS
        if (name.split("(")[0] if is_param else name) not in defs:
            problems.append(f"{name}: listed, but no such def in src/repro")
        if verdict == "delete":
            problems.append(f"{name}: verdict delete")
        elif verdict != "keep" or reason not in allowed:
            problems.append(f"{name}: '{verdict} {reason}' is not keep + one of {allowed}")
    problems += [f"{name}: no call passes it, and it is not listed" for name in sorted(params - set(entries))]
    return problems


# -- the dynamic half: trace the entry points -------------------------------

def entry_points(work: pathlib.Path) -> list:
    """Commands, run in order from *work*; ``{hosts}`` is the live worker."""
    py, scen = sys.executable, sorted((ROOT / "scenarios").glob("*.fsl"))
    fig5 = [py, "-m", "repro", "sweep", str(ROOT / "scenarios" / "fig5_tcp_congestion.fsl"),
            "--seeds", "0,1", "--json"]
    journal, cache = str(work / "j.jsonl"), str(work / "cache")
    return [
        *([py, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
        *([py, "-m", "repro", cmd, str(path)]
          for path in scen for cmd in ("check", "tables", "lint", "scenarios", "analyze")),
        [py, "-m", "repro", "analyze", str(scen[0]), "--workload", "udp_probes", "--all",
         "--jsonl", str(work / "journeys.jsonl")],
        fig5[:-3] + ["--seeds", "0", "--media", "hub,bus,link", "--rll", "--loss", "0,0.2",
                     "--backend", "serial", "--fail-fast", "--task-timeout", "60"],
        fig5 + ["--backend", "serial", "--journal", journal, "--cache-dir", cache],
        fig5 + ["--backend", "serial", "--resume", journal],
        fig5 + ["--backend", "serial", "--cache-dir", cache],
        fig5 + ["--backend", "parallel", "--workers", "2"],
        fig5 + ["--backend", "tcp", "--hosts", "{hosts}"],
        [py, "-c", "from tests.paper.figures import generate; generate()"],
        [py, "-c", "from tests.differential.golden import GOLDEN_RUNS\n"
                   "for run in GOLDEN_RUNS.values(): run()"],
        [py, str(ROOT / "benchmarks" / "ledger" / "run.py"), "--quick", "--out", str(work / "ledger.json")],
    ]


def trace(commands, roots=(SRC,)) -> set:
    """Run *commands* traced; returns the (file, qualname) pairs entered
    under *roots*.  *commands* may be a callable of the work directory.
    Raises, naming each process, if a tracer failed to record an entry."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        site, out, err = tmp / "site", tmp / "out", tmp / "err"
        site.mkdir(), out.mkdir(), err.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE % {
            "roots": tuple(str(r) for r in roots), "out": str(out), "err": str(err)})
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_SWEEP_")}
        env["PYTHONPATH"] = os.pathsep.join([str(site), str(ROOT / "src"), str(ROOT)])
        work = tmp / "work"
        work.mkdir()
        worker = subprocess.Popen([sys.executable, "-u", "-m", "repro", "worker", "--slots", "2"],
                                  cwd=work, env=env, stdout=subprocess.PIPE, text=True,
                                  start_new_session=True)
        try:
            hosts = worker.stdout.readline().split()[-1]
            for argv in commands(work) if callable(commands) else commands:
                argv = [a.replace("{hosts}", hosts) for a in argv]
                subprocess.run(argv, cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
        finally:
            os.killpg(worker.pid, signal.SIGTERM)
            worker.wait()
        failures = sorted(line for f in err.iterdir() for line in f.read_text().splitlines())
        if failures:
            raise RuntimeError("tracer failed, entries lost:\n" + "\n".join(failures))
        return {tuple(line.split("\t")) for f in out.iterdir()
                for line in f.read_text().splitlines()}


def reached_names(pairs) -> set:
    return {f"{_module(pathlib.Path(path), SRC.parent)}:{qual}" for path, qual in pairs
            if path.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="fail instead of rewriting the list")
    args = parser.parse_args(argv)
    defs = src_defs()
    reached = reached_names(trace(entry_points)) & defs.keys()
    unreached = defs.keys() - reached
    entries = read_list()
    listed_defs = {n for n in entries if not n.endswith("=)")}
    lines = sum(node.end_lineno - node.lineno + 1 for n, node in defs.items() if n in unreached)
    print(f"{len(defs)} defs in src/repro, {len(reached)} entered, "
          f"{len(unreached)} never entered ({lines} lines); "
          f"{count_def_defaults()} def defaults, {len(unpassed_defaults())} passed by no call")
    for name in sorted(listed_defs & reached):
        print(f"reached, though listed: {name} ({' '.join(filter(None, entries[name][:2]))})")
    if args.check:
        problems = list_problems(entries)
        problems += [f"{name}: never entered, and not listed" for name in sorted(unreached - listed_defs)]
        for problem in problems:
            print(problem)
        return 1 if problems else 0
    params = set(unpassed_defaults())
    for name in unreached | params:
        leaf = name.rsplit(".", 1)[-1]
        dunder = leaf.startswith("__") and leaf.endswith("__")
        entries.setdefault(name, ("keep", "repr", "dunder") if dunder
                           else ("delete", None, "new: decide keep or delete"))
    LIST.write_text("".join(
        f"{name} {verdict}{' ' + reason if reason else ''} -- {why}\n"
        for name, (verdict, reason, why) in sorted(entries.items())
        if name in unreached or name in params))
    print(f"wrote {LIST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
