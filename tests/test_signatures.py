"""Rules on the package's own code.

The label mode has one source: the class vocabulary.  A function that holds
a codec or a vocabulary reads the label mode from it, so no function of the
package takes ``label_mode`` next to one of them.

Each numeric helper exists once: logsumexp, log-softmax and the sigmoid come
from ``scipy.special``, and no module defines its own copy.

A split has one layout: rows in document order plus document offsets.  No
function of the package takes a list of per-document arrays.  A recursion
over pages (the recurrent decoder, the CRF, the BiLSTM) walks those rows by
page position (``corpus.page_positions``) and reads a page's predecessor one
row up, so outside the encoder, whose attention pads tokens, no module binds
a name ``padded`` or ``mask``: no docs x pages grid and no page mask.

Rows are summed by index with ``np.bincount``, never with ``np.add.at``:
both add in index order, and ``add.at`` took about half of the linear
encoder's ``loss_and_grad``.

JSON files have two parsers: the JSONL line reader, and ``corpus.parse_json``
for a whole file (manifest, config, checkpoint), the one place that a JSON
value nested too deeply becomes a decode error.  ``json.loads`` is used only
by them.

A JSON object becomes a dataclass only through the typed reader of config
files (``corpus._config_from``), which checks each field's type: no function
of the package splats a JSON value into a call (``Cls(**payload[...])``).

``cli.config_hash`` (canonical JSON, then SHA-256) hashes configs only.  A
file a command reads (checkpoint, trace) is named by the SHA-256 of its
bytes, so no command re-serializes what it loaded to hash it.

Checkpoints carry float arrays one way: as the exact binary blocks of
``corpus.float_block``, read back by ``corpus.read_float_block``.  The
writer and the reader of each checkpoint kind are the only functions that
use the pair, and every checkpoint payload (a dict literal with a "kind")
is built by one of them and records its ``format``.

The context a page is fed has one shape: a (pages x 1+n) indicator whose
column 0 is the first-page marker.  No function takes the marker as a
separate ``first`` flag or whether anything was ``fed``, and the marker's
string is spelled once, as the value of ``corpus.FIRST_PAGE_TOKEN``.
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
    a ``pageseq`` module, private ones, class methods and static methods
    included."""
    for info in pkgutil.iter_modules(pageseq.__path__):
        module = importlib.import_module(f"pageseq.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(f"{name}.{m}", getattr(f, "__func__", f))
                           for m, f in vars(obj).items()
                           if inspect.isfunction(getattr(f, "__func__", f))]
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


PER_DOCUMENT_LIST = re.compile(r"seqs|\w+_seqs|sequences|batch")


def test_no_function_takes_a_list_of_documents():
    functions = dict(package_functions())
    for name in ("crf.crf_fit", "bilstm.bilstm_train", "corpus.page_positions"):
        assert name in functions  # the walk reaches the baselines
    found = [f"{name}({param})" for name, fn in functions.items()
             for param in inspect.signature(fn).parameters
             if PER_DOCUMENT_LIST.fullmatch(param)]
    assert found == []


PAGE_GRID = re.compile(r"(^|_)(padded|mask)(_|$)")


def test_pages_are_walked_by_position():
    """An assignment, loop or ``with`` target, a parameter, a definition or an
    import, at any depth."""
    found = users_of(lambda node: any(PAGE_GRID.search(name) for name in (
        [node.id] if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        else [node.arg] if isinstance(node, ast.arg)
        else [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                              ast.ClassDef))
        else [node.asname or node.name] if isinstance(node, ast.alias)
        else [])))
    assert [where for where in found if where.split(".")[0] != "encoder"] == []
    assert any(where.startswith("encoder.") for where in found)  # the walk sees it


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


def test_no_add_at():
    """``np.add.at``, ``numpy.add.at``, or ``add.at`` of an imported ufunc."""
    found = []
    for path in sorted(Path(pageseq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "at"
                    and (isinstance(node.value, ast.Attribute) and node.value.attr == "add"
                         or isinstance(node.value, ast.Name) and node.value.id == "add")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# the one JSONL line reader and the one parser of whole JSON files
JSON_LOADS_USERS = {"corpus.read_jsonl", "corpus.parse_json"}

# the JSON hash is for configs: an artifact a command reads is named by the
# SHA-256 of its bytes, never re-serialized to be hashed
CONFIG_HASH_USERS = {"cli.provenance_for", "cli.cmd_synth", "cli.cmd_train"}


# the writer and the reader of each checkpoint kind: encoder, and CRF and
# BiLSTM (each embeds an encoder checkpoint)
FLOAT_BLOCK_USERS = {"encoder.checkpoint_payload", "encoder.restore_encoder",
                     "cli.cmd_train", "cli._bilstm_head"}


def users_of(is_use) -> list[str]:
    """module.function (nested names joined by dots) of every node of the
    package's code for which ``is_use(node)`` holds."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (f"{where}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else where)
            if is_use(child):
                found.append(inner)
            visit(child, inner)

    for path in sorted(Path(pageseq.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def json_loads_users() -> list[str]:
    """Every use of ``json.loads``: a call, a reference such as
    ``map(json.loads, ...)``, or ``from json import loads``."""
    return users_of(lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "loads"
        and isinstance(node.value, ast.Name) and node.value.id == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(alias.name == "loads" for alias in node.names)))


def config_hash_users() -> list[str]:
    """Every use of ``config_hash`` by name, called or passed on, other than
    its definition."""
    return users_of(lambda node: (
        isinstance(node, ast.Name) and node.id == "config_hash"
        or isinstance(node, ast.Attribute) and node.attr == "config_hash"
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "config_hash" for alias in node.names)))


def test_json_loads_only_in_the_line_reader_and_whole_file_loaders():
    found = json_loads_users()
    assert sorted(set(found) - JSON_LOADS_USERS) == []
    assert "corpus.read_jsonl" in found  # the walk reaches the line reader


def splatted_subscripts() -> list[str]:
    """Every call that splats an indexed value, ``f(**obj[key])``."""
    return users_of(lambda node: isinstance(node, ast.Call) and any(
        kw.arg is None and isinstance(kw.value, ast.Subscript)
        for kw in node.keywords))


def test_no_call_splats_a_json_value():
    assert splatted_subscripts() == []
    # the typed reader splats its checked values, a name, into the dataclass
    assert "corpus._config_from" in users_of(lambda node: isinstance(
        node, ast.Call) and any(kw.arg is None for kw in node.keywords))


def float_block_users() -> list[str]:
    """Every use of the block encoder or decoder by name, called or passed
    on; imports and the definitions are not uses."""
    names = {"float_block", "read_float_block"}
    return users_of(lambda node: (
        isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names))


def dict_literals_with(*keys) -> list[str]:
    """Where each dict literal that holds all of the string ``keys`` is built."""
    return users_of(lambda node: isinstance(node, ast.Dict) and set(keys) <= {
        key.value for key in node.keys if isinstance(key, ast.Constant)})


def test_checkpoints_carry_floats_as_blocks():
    assert set(float_block_users()) == FLOAT_BLOCK_USERS  # none other, none bypassed
    payloads = dict_literals_with("kind")
    assert len(payloads) == 3  # the walk sees the encoder, CRF and BiLSTM payloads
    assert set(payloads) <= FLOAT_BLOCK_USERS
    assert dict_literals_with("kind", "format") == payloads


def test_config_hash_only_hashes_configs():
    found = config_hash_users()
    assert sorted(set(found) - CONFIG_HASH_USERS) == []
    assert set(found) == CONFIG_HASH_USERS  # the walk reaches every user


def test_context_has_one_shape():
    functions = dict(package_functions())
    for name in ("recurrence.augment_input", "recurrence._score_rows",
                 "recurrence.SplitTrace.blank"):
        assert name in functions  # the walk reaches the context's users
    found = [f"{name}({param})" for name, fn in functions.items()
             for param in inspect.signature(fn).parameters
             if param in ("first", "fed")]
    assert found == []
    spelled = users_of(lambda node: isinstance(node, ast.Constant)
                       and node.value == "[-1]")
    defined = users_of(lambda node: isinstance(node, ast.Assign)
                       and [ast.unparse(t) for t in node.targets] == ["FIRST_PAGE_TOKEN"]
                       and isinstance(node.value, ast.Constant)
                       and node.value.value == "[-1]")
    assert spelled == defined == ["corpus"]
