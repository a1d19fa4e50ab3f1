"""Every function of the library runs in a caco command, or says which test pins it.

The five commands below run in-process through cli.main under a profile
function that records the code object of every Python call. A function or
method defined in src/caco/*.py that never ran is either dead code or
something only a test calls; such code belongs in tests/, unless the entry
for it in ALLOWED names the test or benchmark file that pins it.
"""

import importlib
import inspect
import sys
from pathlib import Path

import caco
from caco import cli
from test_cli import GOLDEN_SPEC, fast_args

# "module.qualname" -> the file that pins a function no command runs
ALLOWED = {
    "dictionary.CategoricalDictionary.group": "tests/test_acceptance.py (criterion 04)",
    "dictionary.CategoricalDictionary._key": "tests/test_acceptance.py, through group",
    "labels.CategoryLabel.of": "tests/test_acceptance.py (criteria 02 and 03)",
    "dictionary.CategoricalDictionary.__len__": "perfbench/layers.py counts the keys that "
                                                "snapshot() copies and cat_nce reads",
    "data.DomainPair.source": "perfbench/workloads.py reads len(pair.source)",
    "model.load_checkpoint": "tests/test_cli.py and tests/test_model.py",
    "errors.DivergenceError.__init__": "tests/test_train.py: only a diverging run raises it",
}

COMMANDS = (
    ["ablate", "--seeds", "1,2"],
    ["train", "--seeds", "3,4"],
    ["train"],
    ["export-embeddings"],
    ["gradcheck", "--instances", "1"],
)


def _functions(module):
    """(name, function) for every function and method whose code lives in the module's file."""
    prefix = module.__name__.rpartition(".")[2]
    for name, value in vars(module).items():
        if inspect.isfunction(value):
            yield f"{prefix}.{name}", value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{prefix}.{name}.{attr}", member


def _library():
    """Every function and method of src/caco/*.py, by "module.qualname"; dataclass-generated
    methods (their code is not in the file) and nested functions are not listed."""
    found = {}
    for path in sorted(Path(caco.__file__).parent.glob("*.py")):
        module = importlib.import_module("caco" if path.stem == "__init__" else f"caco.{path.stem}")
        for name, func in _functions(module):
            if func.__code__.co_filename == module.__file__:
                found[name] = func
    return found


def _run_commands(tmp_path):
    """The code objects of every Python function that ran under the five commands."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    saved = sys.getprofile()  # cProfile's profiler when pytest runs under it
    sys.setprofile(profile)
    try:
        for i, command in enumerate(COMMANDS):
            if command[0] == "gradcheck":
                argv = command
            else:
                argv = [*command, "--spec", str(GOLDEN_SPEC), "--out", str(tmp_path / str(i)),
                        *fast_args()]
            assert cli.main(argv) == 0, argv
    finally:
        # a profiler object is not callable: it takes the hook back through enable()
        if hasattr(saved, "enable"):
            saved.enable()
        else:
            sys.setprofile(saved)
    return called


def test_every_function_runs_in_a_command_or_is_allowed(tmp_path):
    library = _library()
    called = _run_commands(tmp_path)
    unused = {name for name, func in library.items() if func.__code__ not in called}
    never_run = sorted((func.__code__.co_filename, func.__code__.co_firstlineno, func.__qualname__)
                       for name, func in library.items() if name in unused - ALLOWED.keys())
    assert not never_run, "run by no caco command and not in ALLOWED: " + ", ".join(
        f"caco/{Path(path).name}:{line} {qualname}" for path, line, qualname in never_run)
    stale = sorted(name for name in ALLOWED if name not in unused)
    assert not stale, f"ALLOWED entries that run or no longer exist: {stale}"
