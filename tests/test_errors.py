"""The exception classes rgbtseg defines, pinned by module with their bases:
a new error type is a deliberate edit here, and so is retiring one. The CLI
maps them to exit codes by base (``ValueError`` and ``CheckpointError`` exit
2, ``FloatingPointError`` exits 3), so a base is part of the pin."""

import importlib
import pkgutil

import rgbtseg

ERRORS = {
    "checkpoint": {"CheckpointError": "Exception", "BadMagicError": "CheckpointError",
                   "BadVersionError": "CheckpointError", "ChecksumError": "CheckpointError",
                   "TruncatedError": "CheckpointError"},
    "cli": {"UsageError": "Exception"},
    "config": {"ConfigValidationError": "ValueError"},
    "data": {"ManifestError": "ValueError"},
    "losses": {"LabelError": "ValueError"},
    "optim": {"FreezeViolationError": "RuntimeError"},
    "params": {"DuplicateParamError": "ValueError"},
    "pnm": {"PnmFormatError": "ValueError"},
    "prompts": {"VocabularyFormatError": "ValueError", "PointError": "ValueError"},
    "tensor": {"ShapeError": "ValueError", "NumericError": "FloatingPointError",
               "GradCheckError": "RuntimeError"},
}


def test_the_package_defines_exactly_the_listed_exceptions():
    found = {}
    for info in pkgutil.iter_modules(rgbtseg.__path__):
        module = importlib.import_module(f"rgbtseg.{info.name}")
        errors = {name: ", ".join(base.__name__ for base in value.__bases__)
                  for name, value in vars(module).items()
                  if isinstance(value, type) and issubclass(value, BaseException)
                  and value.__module__ == module.__name__}
        if errors:
            found[info.name] = errors
    assert found == ERRORS
