"""Rules on the package's own code.

The label mode has one source: the class vocabulary.  A function that holds
a codec or a vocabulary reads the label mode from it, so no function of the
package takes ``label_mode`` next to one of them.

Each numeric helper exists once: logsumexp, log-softmax and the sigmoid come
from ``scipy.special``, and no module defines its own copy.  The one
exception is the training loss, ``encoder.softmax_cross_entropy``, which
runs log-softmax's operations inline; ``tests/test_encoder.py`` pins them to
scipy's bits.

The AdamW step has one caller: ``training.fit_adamw`` is the only user of
``optimizer_step`` and ``AdamState.for_params``, so every trainer steps the
one flat buffer.

A split has one layout: rows in document order plus document offsets.  No
function of the package takes a list of per-document arrays.  A recursion
over pages (the recurrent decoder, the CRF, the BiLSTM) walks those rows by
page position (``corpus.page_positions``) and reads a page's predecessor one
row up, so outside the encoder, whose attention pads tokens, no module binds
a name ``padded`` or ``mask``: no docs x pages grid and no page mask.

Rows are summed by index with ``np.bincount``, never with ``np.add.at``:
both add in index order, and ``add.at`` took about half of the linear
encoder's ``loss_and_grad``.

Every input file (config, manifest, split file, checkpoint, trace file) is
read by ``files.read_input``, the one user of ``Path.read_text``,
``Path.read_bytes`` and ``open``, so each file-level fault is refused in one
wording.  JSON files have two parsers: the JSONL line reader, and
``files.read_json`` for a whole file (manifest, config, checkpoint).
``json.loads`` is used only by them.

Every fault of an input file's content is named by that file first:
``files.CorpusError`` is constructed only at a file's boundary
(``files.read_input``, ``files._malformed``, ``files.read_page_lines``,
``files.reading`` and ``files.writing``), every check below it raises a
plain ValueError that names only the field, so no second error type exists
for exit 2 and no function takes a ``noun`` naming the file.

A JSON object becomes a dataclass only through the typed reader of config
files (``files.config_from``), which checks each field's type: no function
of the package splats a JSON value into a call (``Cls(**payload[...])``).

Every JSON object the package reads from a file (a config, a checkpoint
and its blocks, a manifest, a trace file's header, a page line of a split
or trace file) has its keys checked by ``files.json_object``, which refuses
a key that no reader reads.  Page lines are taken apart in one place:
``files.page_columns`` is the one user of ``operator.itemgetter``.

``cli.config_hash`` (canonical JSON, then SHA-256) hashes configs only.  A
file a command reads (checkpoint, trace) is named by the SHA-256 of its
bytes, so no command re-serializes what it loaded to hash it.

Checkpoints carry float arrays one way: as the exact binary blocks of
``files.float_block``, read back by ``files.read_float_block``.  The
writers of each checkpoint kind and ``encoder.read_params``, the one reader
of a kind's parameter blocks, are the only functions that use the pair, and
every checkpoint payload (a dict literal with a "kind") is built by one of
them and records its ``format``.

The encoder path is a chain of stages, each taking the object that the one
before it returns: documents become ``SplitTokens``, then an
``EncodedSplit`` that carries its documents, codec and ``max_len``.  No
function takes documents next to an ``encoded`` or ``tokens`` value that
must agree with them.  The last stage, a ``SplitTrace``, carries the
documents it predicts, and they carry their class vocabulary: no function
takes a ``trace`` next to documents or a vocabulary.

Every decode scores its pages through one block planner:
``recurrence._score_rows`` is the one caller of ``encoder.forward_batch``.

The context a page is fed has one shape: a (pages x 1+n) indicator whose
column 0 is the first-page marker.  No function takes the marker as a
separate ``first`` flag or whether anything was ``fed``, and the marker's
string is spelled once, as the value of ``files.FIRST_PAGE_TOKEN``.

The file boundary is the bottom layer: ``pageseq.files`` imports no other
module of the package and holds every reader, format name and file error
under a public name, and ``corpus`` and ``recurrence``, where they used to
live, bind none of them.  No module imports another module's ``_``-prefixed
name.  ``files``, ``corpus`` and ``cli`` each import alone in a fresh
interpreter, so no import cycle hides behind a lucky import order.

The benchmark wraps each traced function under the name its caller looks it
up by, and names its layer by the function's module: every site of
``perfbench/tracing.py`` resolves but the four of the deleted per-document
decoders, and each live span site's layer is a per-layer metric of
``BENCHMARK.json``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
JSON_LOADS_USERS = {"files.read_jsonl", "files.read_json"}

# the JSON hash is for configs: an artifact a command reads is named by the
# SHA-256 of its bytes, never re-serialized to be hashed
CONFIG_HASH_USERS = {"cli.provenance_for", "cli.cmd_synth", "cli.cmd_train"}


# the writers of each checkpoint kind: encoder, and CRF and BiLSTM (each
# embeds an encoder checkpoint); and the one reader of parameter blocks
FLOAT_BLOCK_USERS = {"encoder.checkpoint_payload", "cli.cmd_train",
                     "encoder.read_params"}


# every reader of a JSON object from a file: the typed reader of config and
# checkpoint blocks, the top level of a ``train`` and a ``synth`` config, the
# top level of each checkpoint kind and the BiLSTM's config, the manifest,
# a trace file's header, and the page lines of split and trace files
BLOCK_USERS = {"files.config_from", "cli.cmd_train", "cli.synth_config_from",
               "encoder.restore_encoder", "cli._restore_model", "cli._bilstm_head",
               "corpus.load_corpus", "recurrence.read_traces", "files.page_columns"}


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
    assert "files.read_jsonl" in found  # the walk reaches the line reader


def test_files_are_read_in_one_place():
    """``read_text`` or ``read_bytes`` called or passed on, and ``open`` by
    name or as an attribute (``io.open``, ``Path.open``)."""
    found = users_of(lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("read_text", "read_bytes",
                                                           "open")
        or isinstance(node, ast.Name) and node.id == "open"))
    assert found == ["files.read_input"]


def splatted_subscripts() -> list[str]:
    """Every call that splats an indexed value, ``f(**obj[key])``."""
    return users_of(lambda node: isinstance(node, ast.Call) and any(
        kw.arg is None and isinstance(kw.value, ast.Subscript)
        for kw in node.keywords))


def test_no_call_splats_a_json_value():
    assert splatted_subscripts() == []
    # the typed reader splats its checked values, a name, into the dataclass
    assert "files.config_from" in users_of(lambda node: isinstance(
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


def test_every_json_object_read_has_its_keys_checked():
    found = users_of(lambda node: (
        isinstance(node, ast.Name) and node.id == "json_object"
        or isinstance(node, ast.Attribute) and node.attr == "json_object"))
    assert set(found) == BLOCK_USERS  # none other, none left out


def test_page_lines_are_taken_apart_in_one_place():
    """``itemgetter`` called, passed on or imported, from ``operator`` or by
    its module."""
    found = users_of(lambda node: (
        isinstance(node, ast.Name) and node.id == "itemgetter"
        or isinstance(node, ast.Attribute) and node.attr == "itemgetter"
        or isinstance(node, ast.ImportFrom) and node.module == "operator"
        and any(alias.name == "itemgetter" for alias in node.names)))
    # the files module's import, and its one user
    assert sorted(set(found)) == ["files", "files.page_columns"]


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
    assert spelled == defined == ["files"]


def test_adamw_is_stepped_only_by_the_training_loop():
    """``optimizer_step`` and ``AdamState.for_params`` called, passed on or
    imported by name, other than their definitions: no trainer bypasses the
    flat buffer that ``fit_adamw`` builds and steps."""
    for name in ("optimizer_step", "for_params"):
        found = users_of(lambda node: (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.ImportFrom)
            and any(alias.name == name for alias in node.names)))
        assert found == ["training.fit_adamw"], name


def test_one_caller_of_forward_batch():
    """``forward_batch`` called, passed on or imported by name, other than
    its definition."""
    found = users_of(lambda node: (
        isinstance(node, ast.Name) and node.id == "forward_batch"
        or isinstance(node, ast.Attribute) and node.attr == "forward_batch"
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "forward_batch" for alias in node.names)))
    assert found == ["recurrence._score_rows"]


DOCS_PARAM = re.compile(r"docs|\w+_docs")


def test_no_function_takes_documents_next_to_their_encoding():
    functions = dict(package_functions())
    params = {name: set(inspect.signature(fn).parameters)
              for name, fn in functions.items()}
    # the walk sees both kinds of parameter
    assert "docs" in params["recurrence.split_tokens"]
    assert "tokens" in params["recurrence.encode_split"]
    found = [name for name, names in params.items()
             if names & {"encoded", "tokens"}
             and any(DOCS_PARAM.fullmatch(param) for param in names)]
    assert found == []


TRACE_PARAM = re.compile(r"trace|trace_\w+|\w+_trace")


def test_no_function_takes_a_trace_next_to_what_it_carries():
    functions = dict(package_functions())
    params = {name: set(inspect.signature(fn).parameters)
              for name, fn in functions.items()}
    assert "trace" in params["recurrence.write_traces"]  # the walk sees a trace
    found = [name for name, names in params.items()
             if any(TRACE_PARAM.fullmatch(param) for param in names)
             and (names & CARRIERS
                  or any(DOCS_PARAM.fullmatch(param) for param in names))]
    assert found == []


# where a file's fault is named by the file: its reader, its JSON parse,
# its page lines, the checks of what it holds, and the CLI's writer
CORPUS_ERROR_MAKERS = {"files.read_input", "files._malformed",
                       "files.read_page_lines", "files.reading", "files.writing"}


def test_file_faults_are_named_at_the_boundary():
    """``CorpusError(...)`` called, by name or as an attribute."""
    found = users_of(lambda node: isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "CorpusError"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "CorpusError"))
    assert set(found) == CORPUS_ERROR_MAKERS  # none other, none left out


def test_one_error_type_and_no_noun():
    assert users_of(lambda node: isinstance(node, (ast.Name, ast.alias, ast.ClassDef))
                    and "ConfigError" in (getattr(node, "id", None),
                                          getattr(node, "name", None))) == []
    functions = dict(package_functions())
    assert "files.json_object" in functions  # the walk reaches the block reader
    assert [name for name, fn in functions.items()
            if "noun" in inspect.signature(fn).parameters] == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_imports(tree) -> list[ast.ImportFrom]:
    """The ``from`` imports of the package's own modules in a module's code."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "pageseq")]


def test_no_module_imports_another_modules_private_name():
    """By ``from`` import, or as an attribute of a package module imported
    by name (``from . import encoder``, then ``encoder._x``)."""
    found = []
    for path in sorted(Path(pageseq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = package_imports(tree)
        modules = {alias.asname or alias.name for node in imports
                   if node.module in (None, "pageseq") for alias in node.names}
        found += [f"{path.stem}: {alias.name}" for node in imports
                  for alias in node.names if is_private(alias.name)]
        found += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and is_private(node.attr)]
    assert found == []


def test_files_is_the_bottom_layer():
    tree = ast.parse((Path(pageseq.__file__).parent / "files.py").read_text(
        encoding="utf-8"))
    assert [ast.unparse(node) for node in package_imports(tree)] == []
    assert [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "pageseq" for alias in node.names)] == []


# what ``files`` holds, by the names it holds them under, and the private
# names they had before, in ``corpus`` (and ``TRACE_FORMAT`` in ``recurrence``)
FILE_BOUNDARY = {"CorpusError", "read_input", "read_json", "reading", "writing",
                 "gc_paused", "read_jsonl", "page_columns", "class_indicator",
                 "check_label_count", "read_page_lines", "json_object", "json_value",
                 "config_from", "field_label", "check_format", "float_block",
                 "float_block_shape", "read_float_block", "CHECKPOINT_FORMAT",
                 "TRACE_FORMAT", "FIRST_PAGE_TOKEN"}
FORMER_NAMES = {"_block", "_typed", "_config_from", "_label", "_malformed", "_SCAN",
                "_JSON_TYPES", "_Memo", "_writing"}


def test_the_file_boundary_lives_in_files():
    files = importlib.import_module("pageseq.files")
    assert sorted(name for name in FILE_BOUNDARY if not hasattr(files, name)) == []
    for name in ("corpus", "recurrence", "cli"):
        module = importlib.import_module(f"pageseq.{name}")
        assert sorted(FORMER_NAMES & set(vars(module))) == [], name
    for name in ("corpus", "recurrence"):
        module = importlib.import_module(f"pageseq.{name}")
        assert sorted(FILE_BOUNDARY & set(vars(module))) == [], name
    defined = users_of(lambda node: isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in ("CHECKPOINT_FORMAT", "TRACE_FORMAT",
                                             "FIRST_PAGE_TOKEN") for t in node.targets))
    assert defined == ["files"] * 3


@pytest.mark.parametrize("module", ["pageseq.files", "pageseq.corpus", "pageseq.cli"])
def test_module_imports_in_a_fresh_interpreter(module):
    src = str(Path(pageseq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", f"import {module}"],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")


# the sites of the per-document decoders that ``recurrence.infer_split``
# replaced, which ``perfbench/tracing.py`` still lists
DEAD_TRACE_SITES = {"pageseq.cli.infer_document", "pageseq.training.infer_document",
                    "pageseq.cli.infer_context_oblivious",
                    "pageseq.training.infer_context_oblivious"}


def test_benchmark_trace_sites_resolve_to_its_layers():
    """``perfbench/tracing.py`` is loaded by path and only read."""
    root = Path(pageseq.__file__).resolve().parent.parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    metrics = {metric["name"] for metric in json.loads(
        (root / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}

    def resolve(sites):
        return {f"{module}.{name}": getattr(importlib.import_module(module), name, None)
                for module, name in sites}

    spans, counts = resolve(tracing.SPAN_SITES), resolve(tracing.COUNT_SITES)
    assert {site for site, fn in {**spans, **counts}.items() if fn is None} \
        == DEAD_TRACE_SITES
    live = {site: fn for site, fn in spans.items() if fn is not None}
    assert len(live) == 22
    assert sorted(site for site, fn in live.items()
                  if tracing.layer_of(fn) + ".s" not in metrics) == []
