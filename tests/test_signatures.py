"""Rules on the package's own code.

The label mode has one source: the class vocabulary.  A function that holds
a codec or a vocabulary reads the label mode from it, so no function of the
package takes ``label_mode`` next to one of them.

Each numeric helper exists once: logsumexp, log-softmax and the sigmoid come
from ``scipy.special``, and no module defines its own copy.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pageseq

CARRIERS = {"codec", "vocabulary", "vocab", "type_vocab"}


def package_functions():
    """(qualified name, function) for every function and method defined in
    a ``pageseq`` module, private ones included."""
    for info in pkgutil.iter_modules(pageseq.__path__):
        module = importlib.import_module(f"pageseq.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                           if inspect.isfunction(f)]
            elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                members = [(name, obj)]
            else:
                continue
            for qualname, fn in members:
                yield f"{info.name}.{qualname}", fn


def test_label_mode_never_next_to_its_source():
    functions = dict(package_functions())
    for name in ("training.train_encoder", "recurrence.page_examples",
                 "recurrence.infer_split", "evaluation.score",
                 "encoder.checkpoint_payload", "cli._restore_model"):
        assert name in functions  # the walk reaches every codec holder
    takers = {name: set(inspect.signature(fn).parameters)
              for name, fn in functions.items()
              if "label_mode" in inspect.signature(fn).parameters}
    assert [name for name, params in takers.items() if params & CARRIERS] == []
    # the vocabulary is where the label mode is set; below the codec, only
    # the encoder's loss and decision rule take it as a value
    assert sorted(takers) == ["corpus.TypeVocabulary.__init__",
                              "encoder.loss_and_grad", "encoder.predict"]


NUMERIC_HELPER = re.compile(r"log_?sum_?exp|log_?softmax|sigmoid|expit", re.IGNORECASE)


def test_no_module_defines_its_own_numeric_helper():
    """Functions, lambdas bound to a name, and classes, at any depth."""
    found = []
    for path in sorted(Path(pageseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if NUMERIC_HELPER.search(name)]
    assert found == []
