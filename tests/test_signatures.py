"""The label mode has one source: the class vocabulary.  A function that
holds a codec or a vocabulary reads the label mode from it, so no function
of the package takes ``label_mode`` next to one of them."""

import importlib
import inspect
import pkgutil

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
                 "encoder.checkpoint_payload", "cli._encoder_logit_seqs"):
        assert name in functions  # the walk reaches every codec holder
    takers = {name: set(inspect.signature(fn).parameters)
              for name, fn in functions.items()
              if "label_mode" in inspect.signature(fn).parameters}
    assert [name for name, params in takers.items() if params & CARRIERS] == []
    # the vocabulary is where the label mode is set; below the codec, only
    # the encoder's loss and decision rule take it as a value
    assert sorted(takers) == ["corpus.TypeVocabulary.__init__",
                              "encoder.loss_and_grad", "encoder.predict"]
